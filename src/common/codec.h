#ifndef TPCBIH_COMMON_CODEC_H_
#define TPCBIH_COMMON_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/value.h"

namespace bih {

// The one binary format of the project. WAL records, checkpoint files and
// wire-protocol messages are all built from these primitives and travel in
// the same CRC-guarded frame:
//
//   [u32 payload_len][u32 crc32(payload)][payload]
//
// Integers are fixed-width in host (little-endian) order; the CRC rejects a
// cross-endian reader's frames at once. Strings are a u32 length and the
// bytes. A value is a 1-byte tag (0 null, 1 int64, 2 double, 3 string) and
// its body; a row is a u32 count and that many values.

// --- encoders --------------------------------------------------------------

inline void PutU8(uint8_t v, std::string* out) {
  out->push_back(static_cast<char>(v));
}

inline void PutU32(uint32_t v, std::string* out) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

inline void PutU64(uint64_t v, std::string* out) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

inline void PutI64(int64_t v, std::string* out) {
  PutU64(static_cast<uint64_t>(v), out);
}

inline void PutString(const std::string& s, std::string* out) {
  PutU32(static_cast<uint32_t>(s.size()), out);
  out->append(s);
}

inline void PutValue(const Value& v, std::string* out) {
  if (v.is_null()) {
    PutU8(0, out);
  } else if (v.is_int()) {
    PutU8(1, out);
    PutI64(v.AsInt(), out);
  } else if (v.is_double()) {
    PutU8(2, out);
    const double d = v.AsDouble();
    char buf[8];
    std::memcpy(buf, &d, 8);
    out->append(buf, 8);
  } else {
    PutU8(3, out);
    PutString(v.AsString(), out);
  }
}

inline void PutRow(const Row& row, std::string* out) {
  PutU32(static_cast<uint32_t>(row.size()), out);
  for (const Value& v : row) PutValue(v, out);
}

// A u32 count and that many rows.
inline void PutRows(const std::vector<Row>& rows, std::string* out) {
  PutU32(static_cast<uint32_t>(rows.size()), out);
  for (const Row& row : rows) PutRow(row, out);
}

// --- decoder ---------------------------------------------------------------

// Bounds-checked reader over data[0..left). Every getter returns false,
// without reading past the end, when the bytes run out or are malformed;
// what it has consumed by then is unspecified.
struct Cursor {
  const uint8_t* p;
  size_t left;

  bool Get(void* dst, size_t n) {
    if (left < n) return false;
    std::memcpy(dst, p, n);
    p += n;
    left -= n;
    return true;
  }
  bool GetU8(uint8_t* v) { return Get(v, 1); }
  bool GetU32(uint32_t* v) { return Get(v, 4); }
  bool GetU64(uint64_t* v) { return Get(v, 8); }
  bool GetI64(int64_t* v) { return Get(v, 8); }
  // A u32 element count. Each element takes at least one byte, so a count
  // above the bytes left is corrupt; rejecting it here keeps a bad count
  // from sizing a reserve().
  bool GetCount(uint32_t* n) { return GetU32(n) && *n <= left; }
  bool GetString(std::string* s);
  bool GetValue(Value* v);
  bool GetRow(Row* row);
  bool GetRows(std::vector<Row>* rows);
};

// --- frame -----------------------------------------------------------------

inline constexpr size_t kFrameHeaderBytes = 8;

// CRC-32 (IEEE 802.3 polynomial, reflected) of data[0..n).
uint32_t Crc32(const uint8_t* data, size_t n);

// Appends the frame of `payload` to *out.
void AppendFrame(const std::string& payload, std::string* out);

// What SliceFrame found at the front of a buffer.
struct FrameSlice {
  enum class State {
    kComplete,      // a whole frame whose CRC matches
    kShortHeader,   // fewer than kFrameHeaderBytes bytes
    kShortPayload,  // the header promises more bytes than there are
    kTooLong,       // the header's length exceeds the caller's limit
    kBadCrc,        // a whole frame whose CRC does not match
  };
  State state = State::kShortHeader;
  uint32_t len = 0;                  // the header's payload length
  const uint8_t* payload = nullptr;  // into the sliced buffer; kComplete only

  // Bytes the frame spans, header included.
  size_t size() const { return kFrameHeaderBytes + len; }
};

// Reads the frame at the front of data[0..n). The length is checked against
// `max_len` before the payload is awaited, so a corrupt length field cannot
// make a reader wait for or buffer more than the limit.
FrameSlice SliceFrame(const uint8_t* data, size_t n, uint32_t max_len);

}  // namespace bih

#endif  // TPCBIH_COMMON_CODEC_H_
