#include "net/protocol.h"

#include <cerrno>
#include <cstring>

#include <poll.h>

#include "durability/wal.h"

namespace bih {
namespace net {

namespace {

// Same primitive vocabulary as the WAL payload encoding (durability/wal.cc
// keeps its copies file-local; the two codecs evolve independently, only
// the frame shape and the CRC are shared).

void PutU8(uint8_t v, std::string* out) {
  out->push_back(static_cast<char>(v));
}

void PutU32(uint32_t v, std::string* out) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

void PutU64(uint64_t v, std::string* out) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

void PutString(const std::string& s, std::string* out) {
  PutU32(static_cast<uint32_t>(s.size()), out);
  out->append(s);
}

void PutValue(const Value& v, std::string* out) {
  if (v.is_null()) {
    PutU8(0, out);
  } else if (v.is_int()) {
    PutU8(1, out);
    int64_t i = v.AsInt();
    char buf[8];
    std::memcpy(buf, &i, 8);
    out->append(buf, 8);
  } else if (v.is_double()) {
    PutU8(2, out);
    double d = v.AsDouble();
    char buf[8];
    std::memcpy(buf, &d, 8);
    out->append(buf, 8);
  } else {
    PutU8(3, out);
    PutString(v.AsString(), out);
  }
}

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
  bool GetString(std::string* s) {
    uint32_t n;
    if (!GetU32(&n) || left < n) return false;
    s->assign(reinterpret_cast<const char*>(p), n);
    p += n;
    left -= n;
    return true;
  }
  bool GetValue(Value* v) {
    uint8_t tag;
    if (!GetU8(&tag)) return false;
    switch (tag) {
      case 0:
        *v = Value::Null();
        return true;
      case 1: {
        int64_t i;
        if (!Get(&i, 8)) return false;
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
};

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
  PutU32(static_cast<uint32_t>(msg.rows.size()), payload);
  for (const Row& row : msg.rows) {
    PutU32(static_cast<uint32_t>(row.size()), payload);
    for (const Value& v : row) PutValue(v, payload);
  }
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
  if (!c.GetU32(&ncols) || ncols > c.left) {
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
  uint32_t nrows;
  if (!c.GetU32(&nrows) || nrows > c.left) {
    return Status::IoError("message row set malformed");
  }
  out->rows.reserve(nrows);
  for (uint32_t i = 0; i < nrows; ++i) {
    uint32_t nvals;
    if (!c.GetU32(&nvals) || nvals > c.left) {
      return Status::IoError("message row set malformed");
    }
    Row row;
    row.reserve(nvals);
    for (uint32_t j = 0; j < nvals; ++j) {
      Value v;
      if (!c.GetValue(&v)) {
        return Status::IoError("message row set malformed");
      }
      row.push_back(std::move(v));
    }
    out->rows.push_back(std::move(row));
  }
  if (c.left != 0) {
    return Status::IoError("message has trailing bytes");
  }
  return Status::OK();
}

void EncodeFrame(const std::string& payload, std::string* frame) {
  frame->clear();
  frame->reserve(payload.size() + kFrameHeaderBytes);
  const uint32_t len = static_cast<uint32_t>(payload.size());
  const uint32_t crc = WalCrc32(
      reinterpret_cast<const uint8_t*>(payload.data()), payload.size());
  frame->append(reinterpret_cast<const char*>(&len), 4);
  frame->append(reinterpret_cast<const char*>(&crc), 4);
  frame->append(payload);
}

Status DecodeFrame(const uint8_t* data, size_t n, size_t* consumed,
                   std::string* payload) {
  if (n < kFrameHeaderBytes) {
    return Status::OutOfRange("frame header incomplete");
  }
  uint32_t len, crc;
  std::memcpy(&len, data, 4);
  std::memcpy(&crc, data + 4, 4);
  if (len > kMaxFrameBytes) {
    return Status::IoError("frame length " + std::to_string(len) +
                           " exceeds limit");
  }
  if (n - kFrameHeaderBytes < len) {
    return Status::OutOfRange("frame payload incomplete");
  }
  const uint8_t* body = data + kFrameHeaderBytes;
  if (WalCrc32(body, len) != crc) {
    return Status::IoError("frame crc mismatch");
  }
  payload->assign(reinterpret_cast<const char*>(body), len);
  *consumed = kFrameHeaderBytes + len;
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
