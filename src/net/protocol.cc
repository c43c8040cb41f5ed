#include "net/protocol.h"

#include <cerrno>
#include <string>

#include <poll.h>

#include "common/codec.h"

namespace bih {
namespace net {

namespace {

bool ValidType(uint8_t t) {
  switch (static_cast<MsgType>(t)) {
    case MsgType::kHello:
    case MsgType::kQuery:
    case MsgType::kCancel:
    case MsgType::kStats:
    case MsgType::kPing:
    case MsgType::kGoodbye:
    case MsgType::kExplain:
    case MsgType::kHelloOk:
    case MsgType::kResult:
    case MsgType::kError:
    case MsgType::kStatsReply:
    case MsgType::kPong:
    case MsgType::kExplainReply:
      return true;
  }
  return false;
}

}  // namespace

void EncodeMessage(const Message& msg, std::string* payload) {
  payload->clear();
  PutU8(static_cast<uint8_t>(msg.type), payload);
  PutU32(msg.version, payload);
  PutU64(msg.conn_id, payload);
  PutU64(msg.request_id, payload);
  PutU32(msg.deadline_ms, payload);
  PutU32(msg.retry_after_ms, payload);
  PutU32(msg.scan_threads, payload);
  PutU8(msg.status_code, payload);
  PutString(msg.text, payload);
  PutString(msg.retry_hint, payload);
  PutU32(static_cast<uint32_t>(msg.columns.size()), payload);
  for (const std::string& c : msg.columns) PutString(c, payload);
  PutRows(msg.rows, payload);
}

Status DecodeMessage(const uint8_t* data, size_t n, Message* out) {
  *out = Message();
  Cursor c{data, n};
  uint8_t type;
  if (!c.GetU8(&type) || !ValidType(type)) {
    return Status::IoError("message has unknown type");
  }
  out->type = static_cast<MsgType>(type);
  if (!c.GetU32(&out->version) || !c.GetU64(&out->conn_id) ||
      !c.GetU64(&out->request_id) || !c.GetU32(&out->deadline_ms) ||
      !c.GetU32(&out->retry_after_ms) || !c.GetU32(&out->scan_threads) ||
      !c.GetU8(&out->status_code) ||
      !c.GetString(&out->text) || !c.GetString(&out->retry_hint)) {
    return Status::IoError("message header truncated");
  }
  uint32_t ncols;
  if (!c.GetCount(&ncols)) {
    return Status::IoError("message column list malformed");
  }
  out->columns.reserve(ncols);
  for (uint32_t i = 0; i < ncols; ++i) {
    std::string s;
    if (!c.GetString(&s)) {
      return Status::IoError("message column list malformed");
    }
    out->columns.push_back(std::move(s));
  }
  if (!c.GetRows(&out->rows)) {
    return Status::IoError("message row set malformed");
  }
  if (c.left != 0) {
    return Status::IoError("message has trailing bytes");
  }
  return Status::OK();
}

void EncodeFrame(const std::string& payload, std::string* frame) {
  frame->clear();
  AppendFrame(payload, frame);
}

Status DecodeFrame(const uint8_t* data, size_t n, size_t* consumed,
                   std::string* payload) {
  const FrameSlice f = SliceFrame(data, n, kMaxFrameBytes);
  switch (f.state) {
    case FrameSlice::State::kShortHeader:
      return Status::OutOfRange("frame header incomplete");
    case FrameSlice::State::kTooLong:
      return Status::IoError("frame length " + std::to_string(f.len) +
                             " exceeds limit");
    case FrameSlice::State::kShortPayload:
      return Status::OutOfRange("frame payload incomplete");
    case FrameSlice::State::kBadCrc:
      return Status::IoError("frame crc mismatch");
    case FrameSlice::State::kComplete:
      break;
  }
  payload->assign(reinterpret_cast<const char*>(f.payload), f.len);
  *consumed = f.size();
  return Status::OK();
}

int PollFd(int fd, short events, int timeout_ms) {
  struct pollfd p;
  p.fd = fd;
  p.events = events;
  p.revents = 0;
  int rc;
  do {
    rc = ::poll(&p, 1, timeout_ms);
  } while (rc < 0 && errno == EINTR);
  return rc;
}

}  // namespace net
}  // namespace bih
