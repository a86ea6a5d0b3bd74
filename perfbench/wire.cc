#include "wire.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>

#include "common/serializer.h"
#include "net/protocol.h"

namespace perfbench {

using pacman::Deserializer;
using pacman::Serializer;
using pacman::net::MsgType;

WireConn::~WireConn() {
  if (fd_ >= 0) close(fd_);
}

bool WireConn::Open(uint16_t port) {
  fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return false;
  int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return false;
  }
  std::vector<uint8_t> p;
  if (!Send(pacman::net::HelloFrame()) || !RecvFrame(&p) || p.empty() ||
      p[0] != static_cast<uint8_t>(MsgType::kHelloOk)) {
    return false;
  }
  Serializer open;
  open.PutU8(static_cast<uint8_t>(MsgType::kOpenSession));
  std::string wire;
  pacman::net::AppendFrame(open, &wire);
  return Send(wire) && RecvFrame(&p) && !p.empty() &&
         p[0] == static_cast<uint8_t>(MsgType::kSessionOpened);
}

bool WireConn::GetProc(const std::string& name, uint32_t* id) {
  Serializer s(1 + sizeof(uint32_t) + name.size());
  s.PutU8(static_cast<uint8_t>(MsgType::kGetProc));
  s.PutString(name);
  std::string wire;
  pacman::net::AppendFrame(s, &wire);
  std::vector<uint8_t> p;
  if (!Send(wire) || !RecvFrame(&p) || p.empty() ||
      p[0] != static_cast<uint8_t>(MsgType::kProcInfo)) {
    return false;
  }
  Deserializer d(p.data() + 1, p.size() - 1);
  uint8_t status = 0;
  std::string msg;
  return d.GetU8(&status).ok() && d.GetString(&msg).ok() && status == 0 &&
         d.GetU32(id).ok();
}

bool WireConn::Send(const std::string& wire) {
  const char* p = wire.data();
  size_t n = wire.size();
  while (n > 0) {
    const ssize_t w = send(fd_, p, n, MSG_NOSIGNAL);
    if (w <= 0) return false;
    p += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}

bool WireConn::ReadSome() {
  if (in_off_ > 0 && in_off_ == in_.size()) {
    in_.clear();
    in_off_ = 0;
  }
  char buf[64 * 1024];
  const ssize_t r = recv(fd_, buf, sizeof(buf), 0);
  if (r <= 0) return false;
  in_.append(buf, static_cast<size_t>(r));
  return true;
}

bool WireConn::NextFrame(std::vector<uint8_t>* payload) {
  const size_t avail = in_.size() - in_off_;
  uint32_t len = 0;
  if (avail < sizeof(len)) return false;
  std::memcpy(&len, in_.data() + in_off_, sizeof(len));
  if (avail < sizeof(len) + len) return false;
  if (len == 0) {
    // Every frame starts with a type byte; an empty one is a protocol
    // error, reported to the caller as a frame no handler accepts.
    payload->assign(1, 0);
    in_off_ += sizeof(len);
    return true;
  }
  const auto* b =
      reinterpret_cast<const uint8_t*>(in_.data() + in_off_ + sizeof(len));
  payload->assign(b, b + len);
  in_off_ += sizeof(len) + len;
  if (in_off_ > (1u << 20)) {
    in_.erase(0, in_off_);
    in_off_ = 0;
  }
  return true;
}

bool WireConn::RecvFrame(std::vector<uint8_t>* payload) {
  while (!NextFrame(payload)) {
    if (!ReadSome()) return false;
  }
  return true;
}

std::string FlushFrame() {
  Serializer s;
  s.PutU8(static_cast<uint8_t>(MsgType::kFlush));
  std::string wire;
  pacman::net::AppendFrame(s, &wire);
  return wire;
}

}  // namespace perfbench
