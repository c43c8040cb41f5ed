#include "net/client.h"

#include <cerrno>
#include <chrono>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace bih {
namespace net {

Status Client::Connect(const std::string& host, uint16_t port,
                       const std::string& tenant, int scan_threads) {
  if (fd_ >= 0) return Status::InvalidArgument("client already connected");
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    return Status::IoError(std::string("socket failed: ") +
                           std::strerror(errno));
  }
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    Close();
    return Status::InvalidArgument("bad host address " + host);
  }
  if (::connect(fd_, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    Status st = Status::IoError("connect to " + host + ":" +
                                std::to_string(port) + " failed: " +
                                std::strerror(errno));
    Close();
    return st;
  }
  Message hello;
  hello.type = MsgType::kHello;
  hello.text = tenant;
  hello.scan_threads =
      scan_threads > 0 ? static_cast<uint32_t>(scan_threads) : 0;
  hello.request_id = next_request_id_++;
  Message reply;
  std::string payload;
  Status st = RoundTrip(hello, &reply, &payload);
  if (!st.ok()) {
    Close();
    return st;
  }
  if (reply.type == MsgType::kError) {
    Close();
    return Status(static_cast<Status::Code>(reply.status_code), reply.text);
  }
  if (reply.type != MsgType::kHelloOk) {
    Close();
    return Status::IoError("unexpected reply to Hello");
  }
  conn_id_ = reply.conn_id;
  return Status::OK();
}

Status Client::Query(const std::string& sql, uint32_t deadline_ms,
                     QueryReply* out) {
  *out = QueryReply();
  if (fd_ < 0) {
    out->status = Status::IoError("client not connected");
    return out->status;
  }
  Message req;
  req.type = MsgType::kQuery;
  req.text = sql;
  req.deadline_ms = deadline_ms;
  req.request_id = next_request_id_++;
  out->request_id = req.request_id;
  Message reply;
  Status st = RoundTrip(req, &reply, &out->raw_payload);
  if (!st.ok()) {
    out->status = st;
    return st;
  }
  if (reply.request_id != req.request_id) {
    // A reply for a different request on a strictly sequential connection
    // means the stream is out of step — treat the connection as corrupt.
    out->status = Status::IoError("reply request id mismatch");
    return out->status;
  }
  switch (reply.type) {
    case MsgType::kResult:
      out->status = Status::OK();
      out->columns = std::move(reply.columns);
      out->rows = std::move(reply.rows);
      break;
    case MsgType::kError:
      out->status =
          Status(static_cast<Status::Code>(reply.status_code), reply.text);
      out->retry_after_ms = reply.retry_after_ms;
      break;
    default:
      out->status = Status::IoError("unexpected reply type to Query");
      break;
  }
  return out->status;
}

Status Client::CancelPeer(uint64_t conn_id, uint64_t request_id) {
  if (fd_ < 0) return Status::IoError("client not connected");
  Message req;
  req.type = MsgType::kCancel;
  req.conn_id = conn_id;
  req.request_id = request_id;
  Message reply;
  std::string payload;
  // The kPong ack is consumed to keep the stream in step; whether the
  // cancel landed before the query finished is inherently racy and not an
  // error either way.
  return RoundTrip(req, &reply, &payload);
}

Status Client::Explain(const std::string& sql, uint32_t deadline_ms,
                       std::string* json) {
  json->clear();
  if (fd_ < 0) return Status::IoError("client not connected");
  Message req;
  req.type = MsgType::kExplain;
  req.text = sql;
  req.deadline_ms = deadline_ms;
  req.request_id = next_request_id_++;
  Message reply;
  std::string payload;
  BIH_RETURN_IF_ERROR(RoundTrip(req, &reply, &payload));
  if (reply.request_id != req.request_id) {
    return Status::IoError("reply request id mismatch");
  }
  if (reply.type == MsgType::kError) {
    return Status(static_cast<Status::Code>(reply.status_code), reply.text);
  }
  if (reply.type != MsgType::kExplainReply) {
    return Status::IoError("unexpected reply to Explain");
  }
  *json = std::move(reply.text);
  return Status::OK();
}

Status Client::GetStatsJson(std::string* out) {
  out->clear();
  if (fd_ < 0) return Status::IoError("client not connected");
  Message req;
  req.type = MsgType::kStats;
  req.request_id = next_request_id_++;
  Message reply;
  std::string payload;
  BIH_RETURN_IF_ERROR(RoundTrip(req, &reply, &payload));
  if (reply.type != MsgType::kStatsReply) {
    return Status::IoError("unexpected reply to Stats");
  }
  *out = std::move(reply.text);
  return Status::OK();
}

Status Client::Ping() {
  if (fd_ < 0) return Status::IoError("client not connected");
  Message req;
  req.type = MsgType::kPing;
  req.request_id = next_request_id_++;
  Message reply;
  std::string payload;
  BIH_RETURN_IF_ERROR(RoundTrip(req, &reply, &payload));
  if (reply.type != MsgType::kPong) {
    return Status::IoError("unexpected reply to Ping");
  }
  return Status::OK();
}

void Client::Close() {
  if (fd_ < 0) return;
  Message bye;
  bye.type = MsgType::kGoodbye;
  std::string payload, frame;
  EncodeMessage(bye, &payload);
  EncodeFrame(payload, &frame);
  (void)SendAll(frame);  // best effort; the server may already be gone
  ::close(fd_);
  fd_ = -1;
  conn_id_ = 0;
  buf_.clear();
}

Status Client::RoundTrip(const Message& req, Message* reply,
                         std::string* payload) {
  std::string p, frame;
  EncodeMessage(req, &p);
  EncodeFrame(p, &frame);
  BIH_RETURN_IF_ERROR(SendAll(frame));
  BIH_RETURN_IF_ERROR(RecvFrame(payload));
  return DecodeMessage(reinterpret_cast<const uint8_t*>(payload->data()),
                       payload->size(), reply);
}

Status Client::SendAll(const std::string& frame) {
  size_t off = 0;
  while (off < frame.size()) {
    const ssize_t n =
        ::send(fd_, frame.data() + off, frame.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("send failed: ") +
                             std::strerror(errno));
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status Client::RecvFrame(std::string* payload) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(recv_timeout_ms_);
  for (;;) {
    size_t consumed = 0;
    Status fs = DecodeFrame(reinterpret_cast<const uint8_t*>(buf_.data()),
                            buf_.size(), &consumed, payload);
    if (fs.ok()) {
      buf_.erase(0, consumed);
      return Status::OK();
    }
    if (fs.code() == Status::Code::kIoError) return fs;  // corrupt stream
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) {
      return Status::IoError("recv timed out waiting for reply frame");
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - now);
    const int ready =
        PollFd(fd_, POLLIN, static_cast<int>(left.count()) + 1);
    if (ready < 0) {
      return Status::IoError(std::string("poll failed: ") +
                             std::strerror(errno));
    }
    if (ready == 0) continue;  // loop re-checks the deadline
    char tmp[4096];
    const ssize_t n = ::recv(fd_, tmp, sizeof(tmp), 0);
    if (n == 0) {
      return Status::IoError("connection closed by server");
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("recv failed: ") +
                             std::strerror(errno));
    }
    buf_.append(tmp, static_cast<size_t>(n));
  }
}

}  // namespace net
}  // namespace bih
