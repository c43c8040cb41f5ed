#include "common/codec.h"

namespace bih {

bool Cursor::GetString(std::string* s) {
  uint32_t n;
  if (!GetU32(&n) || left < n) return false;
  s->assign(reinterpret_cast<const char*>(p), n);
  p += n;
  left -= n;
  return true;
}

bool Cursor::GetValue(Value* v) {
  uint8_t tag;
  if (!GetU8(&tag)) return false;
  switch (tag) {
    case 0:
      *v = Value::Null();
      return true;
    case 1: {
      int64_t i;
      if (!GetI64(&i)) return false;
      *v = Value(i);
      return true;
    }
    case 2: {
      double d;
      if (!Get(&d, 8)) return false;
      *v = Value(d);
      return true;
    }
    case 3: {
      std::string s;
      if (!GetString(&s)) return false;
      *v = Value(std::move(s));
      return true;
    }
    default:
      return false;
  }
}

bool Cursor::GetRow(Row* row) {
  uint32_t n;
  if (!GetCount(&n)) return false;
  row->clear();
  row->reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Value v;
    if (!GetValue(&v)) return false;
    row->push_back(std::move(v));
  }
  return true;
}

bool Cursor::GetRows(std::vector<Row>* rows) {
  uint32_t n;
  if (!GetCount(&n)) return false;
  rows->clear();
  rows->reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Row row;
    if (!GetRow(&row)) return false;
    rows->push_back(std::move(row));
  }
  return true;
}

namespace {

const uint32_t* CrcTable() {
  static uint32_t table[256];
  static bool init = [] {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      table[i] = c;
    }
    return true;
  }();
  (void)init;
  return table;
}

}  // namespace

uint32_t Crc32(const uint8_t* data, size_t n) {
  const uint32_t* table = CrcTable();
  uint32_t c = 0xffffffffu;
  for (size_t i = 0; i < n; ++i) {
    c = table[(c ^ data[i]) & 0xff] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

void AppendFrame(const std::string& payload, std::string* out) {
  out->reserve(out->size() + kFrameHeaderBytes + payload.size());
  PutU32(static_cast<uint32_t>(payload.size()), out);
  PutU32(Crc32(reinterpret_cast<const uint8_t*>(payload.data()),
               payload.size()),
         out);
  out->append(payload);
}

FrameSlice SliceFrame(const uint8_t* data, size_t n, uint32_t max_len) {
  FrameSlice f;
  if (n < kFrameHeaderBytes) return f;
  uint32_t crc;
  std::memcpy(&f.len, data, 4);
  std::memcpy(&crc, data + 4, 4);
  if (f.len > max_len) {
    f.state = FrameSlice::State::kTooLong;
  } else if (n - kFrameHeaderBytes < f.len) {
    f.state = FrameSlice::State::kShortPayload;
  } else if (Crc32(data + kFrameHeaderBytes, f.len) != crc) {
    f.state = FrameSlice::State::kBadCrc;
  } else {
    f.state = FrameSlice::State::kComplete;
    f.payload = data + kFrameHeaderBytes;
  }
  return f;
}

}  // namespace bih
