#ifndef TPCBIH_NET_PROTOCOL_H_
#define TPCBIH_NET_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/codec.h"
#include "common/status.h"
#include "common/value.h"

namespace bih {
namespace net {

// Length-prefixed binary wire protocol between bih clients and the serve
// front end. Every message travels in one frame:
//
//   [u32 payload_len][u32 crc32(payload)][payload]
//
// — the frame of common/codec.h, which the write-ahead log uses too, so a
// frame torn mid-send is detected exactly like a frame torn mid-append: the
// length or the checksum gives it away, never a silent half-message.
// payload_len is bounded by kMaxFrameBytes; anything larger is a protocol
// error and closes the connection.
//
// The payload is a tagged Message (EncodeMessage/DecodeMessage below):
// fixed header fields first, then type-specific variable parts, all in the
// integers, strings, values and rows of common/codec.h.

// Upper bound on one payload (64 MiB): large enough for any benchmark
// result set, small enough that a corrupt length field cannot make the
// server try to buffer gigabytes.
inline constexpr uint32_t kMaxFrameBytes = 1u << 26;

inline constexpr uint32_t kProtocolVersion = 1;

enum class MsgType : uint8_t {
  // Client -> server.
  kHello = 1,    // open a session: text = tenant name
  kQuery = 2,    // text = SQL; deadline_ms = request budget (0 = none)
  kCancel = 3,   // cancel (conn_id, request_id); may ride any connection
  kStats = 4,    // request the server's stats JSON
  kPing = 5,     // liveness probe
  kGoodbye = 6,  // orderly close
  kExplain = 7,  // text = SQL (no EXPLAIN keyword); reply carries plan JSON
  // Server -> client (tag bit 6 set).
  kHelloOk = 64,     // session open; conn_id assigned
  kResult = 65,      // columns + rows of a successful query
  kError = 66,       // status_code/text/retry_hint/retry_after_ms
  kStatsReply = 67,  // text = stats JSON
  kPong = 68,
  kExplainReply = 69,  // text = {"optimizer":...,"plan":...} JSON
};

// One protocol message. A single struct (rather than one per type) keeps
// the codec small and the unused fields cost nothing on the wire: the
// encoder only emits the variable parts the type defines.
struct Message {
  MsgType type = MsgType::kPing;
  uint32_t version = kProtocolVersion;
  uint64_t conn_id = 0;     // kHelloOk (assigned), kCancel (target)
  uint64_t request_id = 0;  // echoes the request on every reply
  uint32_t deadline_ms = 0;     // kQuery: budget; 0 = no deadline
  uint32_t retry_after_ms = 0;  // kError: overload retry hint
  uint32_t scan_threads = 0;    // kHello: session ExecOptions override; 0 = server default
  uint8_t status_code = 0;      // kError: Status::Code of the failure
  std::string text;             // tenant / SQL / error message / stats JSON
  std::string retry_hint;       // kError(kUnavailable): how to get unstuck
  std::vector<std::string> columns;  // kResult
  std::vector<Row> rows;             // kResult
};

// Serializes `msg` into the payload encoding (no frame header).
void EncodeMessage(const Message& msg, std::string* payload);

// Parses a payload produced by EncodeMessage. Bounds-checked everywhere:
// a truncated or trailing-garbage payload is kIoError, never UB.
Status DecodeMessage(const uint8_t* data, size_t n, Message* out);

// Wraps a payload in the CRC-guarded frame.
void EncodeFrame(const std::string& payload, std::string* frame);

// Slices one frame off the front of data[0..n):
//   kOk         — *consumed bytes eaten, *payload holds the verified bytes;
//   kOutOfRange — the buffer holds only a frame prefix, read more;
//   kIoError    — oversized length or CRC mismatch: the stream is corrupt
//                 and the connection must die (resync is impossible).
Status DecodeFrame(const uint8_t* data, size_t n, size_t* consumed,
                   std::string* payload);

// poll() on one descriptor, retrying EINTR; >0 ready, 0 timeout, <0 hard
// error. The one wait primitive of the client and server socket loops.
int PollFd(int fd, short events, int timeout_ms);

}  // namespace net
}  // namespace bih

#endif  // TPCBIH_NET_PROTOCOL_H_
