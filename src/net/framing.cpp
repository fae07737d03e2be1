#include "net/framing.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "store/bytes.hpp"

namespace gpf::net {

namespace {

[[noreturn]] void sys_error(const std::string& what) {
  throw std::runtime_error("net: " + what + ": " + std::strerror(errno));
}

}  // namespace

Socket& Socket::operator=(Socket&& o) noexcept {
  if (this != &o) {
    close();
    fd_ = std::exchange(o.fd_, -1);
  }
  return *this;
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::pair<std::string, std::uint16_t> parse_addr(const std::string& addr) {
  const std::size_t colon = addr.rfind(':');
  if (colon == std::string::npos || colon + 1 == addr.size())
    throw std::runtime_error("net: address must be host:port, got '" + addr +
                             "'");
  const std::string host = addr.substr(0, colon);
  const std::string port_s = addr.substr(colon + 1);
  char* end = nullptr;
  const unsigned long port = std::strtoul(port_s.c_str(), &end, 10);
  if (*end != '\0' || port > 65535)
    throw std::runtime_error("net: invalid port in '" + addr + "'");
  return {host, static_cast<std::uint16_t>(port)};
}

namespace {

sockaddr_in make_addr(const std::string& host, std::uint16_t port) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &sa.sin_addr) != 1)
    throw std::runtime_error("net: invalid IPv4 address '" + host +
                             "' (numeric addresses only)");
  return sa;
}

}  // namespace

Socket listen_tcp(const std::string& host, std::uint16_t port, int backlog) {
  Socket s(::socket(AF_INET, SOCK_STREAM, 0));
  if (!s.valid()) sys_error("socket");
  const int one = 1;
  ::setsockopt(s.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  const sockaddr_in sa = make_addr(host, port);
  if (::bind(s.fd(), reinterpret_cast<const sockaddr*>(&sa), sizeof(sa)) != 0)
    sys_error("bind " + host + ":" + std::to_string(port));
  if (::listen(s.fd(), backlog) != 0) sys_error("listen");
  return s;
}

std::uint16_t local_port(const Socket& s) {
  sockaddr_in sa{};
  socklen_t len = sizeof(sa);
  if (::getsockname(s.fd(), reinterpret_cast<sockaddr*>(&sa), &len) != 0)
    sys_error("getsockname");
  return ntohs(sa.sin_port);
}

Socket connect_tcp(const std::string& host, std::uint16_t port) {
  Socket s(::socket(AF_INET, SOCK_STREAM, 0));
  if (!s.valid()) sys_error("socket");
  const sockaddr_in sa = make_addr(host, port);
  if (::connect(s.fd(), reinterpret_cast<const sockaddr*>(&sa), sizeof(sa)) != 0)
    sys_error("connect " + host + ":" + std::to_string(port));
  const int one = 1;
  ::setsockopt(s.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return s;
}

std::pair<Socket, Socket> socket_pair() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) sys_error("socketpair");
  return {Socket(fds[0]), Socket(fds[1])};
}

void set_recv_timeout(const Socket& s, int timeout_ms) {
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  if (::setsockopt(s.fd(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0)
    sys_error("setsockopt SO_RCVTIMEO");
}

void set_nonblocking(const Socket& s, bool on) {
  const int flags = ::fcntl(s.fd(), F_GETFL, 0);
  if (flags < 0) sys_error("fcntl F_GETFL");
  const int want = on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (::fcntl(s.fd(), F_SETFL, want) != 0) sys_error("fcntl F_SETFL");
}

std::vector<std::uint8_t> frame_bytes(const Frame& f) {
  std::vector<std::uint8_t> wire;
  wire.reserve(4 + 2 + f.payload.size() + 4);
  store::ByteWriter w(wire);
  w.u32(static_cast<std::uint32_t>(2 + f.payload.size()));
  const std::size_t body_start = wire.size();
  w.u8(static_cast<std::uint8_t>(f.type));
  w.u8(static_cast<std::uint8_t>(f.type >> 8));
  wire.insert(wire.end(), f.payload.begin(), f.payload.end());
  w.u32(store::crc32(
      std::span(wire).subspan(body_start, 2 + f.payload.size())));
  return wire;
}

bool extract_frame(const std::vector<std::uint8_t>& buf, std::size_t& off,
                   Frame& out) {
  if (buf.size() - off < 4) return false;
  const std::uint32_t len = static_cast<std::uint32_t>(buf[off]) |
                            static_cast<std::uint32_t>(buf[off + 1]) << 8 |
                            static_cast<std::uint32_t>(buf[off + 2]) << 16 |
                            static_cast<std::uint32_t>(buf[off + 3]) << 24;
  if (len < 2 || len > kMaxFrameBytes)
    throw std::runtime_error("net: bad frame length " + std::to_string(len));
  if (buf.size() - off < 4 + std::size_t{len} + 4) return false;

  const std::span<const std::uint8_t> body(buf.data() + off + 4, len + 4);
  const std::uint32_t want = store::crc32(body.subspan(0, len));
  store::ByteReader crc_r(body.subspan(len, 4));
  if (crc_r.u32() != want) {
    static obs::Counter& rejects = obs::counter("net.crc_rejects");
    rejects.add(1);
    throw std::runtime_error("net: frame CRC mismatch (corrupt stream)");
  }
  out.type = static_cast<std::uint16_t>(body[0]) |
             static_cast<std::uint16_t>(static_cast<std::uint16_t>(body[1]) << 8);
  out.payload.assign(body.begin() + 2, body.begin() + len);
  off += 4 + std::size_t{len} + 4;
  static obs::Counter& frames = obs::counter("net.frames_in");
  static obs::Counter& bytes = obs::counter("net.bytes_in");
  frames.add(1);
  bytes.add(8 + len);
  return true;
}

void send_frame(const Socket& s, const Frame& f) {
  const std::vector<std::uint8_t> wire = frame_bytes(f);
  std::size_t off = 0;
  while (off < wire.size()) {
    const ssize_t n =
        ::send(s.fd(), wire.data() + off, wire.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      sys_error("send");
    }
    off += static_cast<std::size_t>(n);
  }
  static obs::Counter& frames = obs::counter("net.frames_out");
  static obs::Counter& bytes = obs::counter("net.bytes_out");
  frames.add(1);
  bytes.add(wire.size());
}

namespace {

/// Reads exactly n bytes. `allow_idle` distinguishes a peer that has gone
/// quiet *between* frames (legal: Eof / Timeout) from one that stalled
/// mid-frame (protocol error: the stream cannot resynchronize).
RecvStatus recv_exact(const Socket& s, std::uint8_t* buf, std::size_t n,
                      bool allow_idle) {
  std::size_t off = 0;
  while (off < n) {
    const ssize_t r = ::recv(s.fd(), buf + off, n - off, 0);
    if (r == 0) {
      if (off == 0 && allow_idle) return RecvStatus::Eof;
      throw std::runtime_error("net: connection closed mid-frame");
    }
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (off == 0 && allow_idle) return RecvStatus::Timeout;
        // Mid-frame timeout: keep waiting for the peer's in-flight bytes;
        // a dead peer eventually shows up as ECONNRESET/EOF and the
        // coordinator's lease deadline covers a truly hung one.
        continue;
      }
      sys_error("recv");
    }
    off += static_cast<std::size_t>(r);
  }
  return RecvStatus::Ok;
}

}  // namespace

RecvStatus recv_frame(const Socket& s, Frame& out) {
  std::uint8_t len_buf[4];
  const RecvStatus st = recv_exact(s, len_buf, 4, /*allow_idle=*/true);
  if (st != RecvStatus::Ok) return st;
  const std::uint32_t len = static_cast<std::uint32_t>(len_buf[0]) |
                            static_cast<std::uint32_t>(len_buf[1]) << 8 |
                            static_cast<std::uint32_t>(len_buf[2]) << 16 |
                            static_cast<std::uint32_t>(len_buf[3]) << 24;
  if (len < 2 || len > kMaxFrameBytes)
    throw std::runtime_error("net: bad frame length " + std::to_string(len));

  std::vector<std::uint8_t> body(len + 4);  // type + payload + crc
  recv_exact(s, body.data(), body.size(), /*allow_idle=*/false);

  const std::span<const std::uint8_t> bs(body);
  const std::uint32_t want = store::crc32(bs.subspan(0, len));
  store::ByteReader crc_r(bs.subspan(len, 4));
  if (crc_r.u32() != want) {
    static obs::Counter& rejects = obs::counter("net.crc_rejects");
    rejects.add(1);
    throw std::runtime_error("net: frame CRC mismatch (corrupt stream)");
  }

  out.type = static_cast<std::uint16_t>(body[0]) |
             static_cast<std::uint16_t>(static_cast<std::uint16_t>(body[1]) << 8);
  out.payload.assign(body.begin() + 2, body.begin() + len);
  static obs::Counter& frames = obs::counter("net.frames_in");
  static obs::Counter& bytes = obs::counter("net.bytes_in");
  frames.add(1);
  bytes.add(4 + body.size());
  return RecvStatus::Ok;
}

}  // namespace gpf::net
