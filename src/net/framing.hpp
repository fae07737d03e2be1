// Blocking-socket message framing for the distributed campaign service.
//
// Every message on the wire is one frame:
//
//   u32 len    payload length + 2 (the type field), little-endian
//   u16 type   message type (net::MsgType; opaque at this layer)
//   ...        payload bytes (len - 2 of them)
//   u32 crc    CRC-32 over type + payload (same polynomial as the store)
//
// A frame whose CRC fails, whose length field exceeds kMaxFrameBytes, or
// that ends mid-frame is a protocol error and throws — the connection is
// unusable after corruption, exactly like a torn store record. POSIX
// sockets only (the repo is zero-dependency); serialization reuses
// store/bytes.hpp so the framing shares the store's byte conventions.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace gpf::net {

/// One length-prefixed, CRC-framed message.
struct Frame {
  std::uint16_t type = 0;
  std::vector<std::uint8_t> payload;
};

/// Upper bound on (type + payload) bytes; a length field beyond this is
/// treated as corruption rather than an allocation request.
constexpr std::uint32_t kMaxFrameBytes = 16u << 20;

/// RAII file-descriptor wrapper (move-only).
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }
  Socket(Socket&& o) noexcept : fd_(std::exchange(o.fd_, -1)) {}
  Socket& operator=(Socket&& o) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void close();

 private:
  int fd_ = -1;
};

/// Splits "host:port" (e.g. the GPF_COORD_ADDR knob). Throws on a missing
/// or non-numeric port.
std::pair<std::string, std::uint16_t> parse_addr(const std::string& addr);

/// Binds and listens on host:port (port 0 = kernel-assigned; read it back
/// with local_port). Throws on failure.
Socket listen_tcp(const std::string& host, std::uint16_t port, int backlog = 16);

/// The locally bound port of a listening/connected socket.
std::uint16_t local_port(const Socket& s);

/// Connects to host:port. Throws on failure (the worker wraps this in its
/// reconnect backoff loop).
Socket connect_tcp(const std::string& host, std::uint16_t port);

/// Connected AF_UNIX pair, for in-process tests of the framing itself.
std::pair<Socket, Socket> socket_pair();

/// SO_RCVTIMEO: recv_frame returns Timeout instead of blocking forever.
void set_recv_timeout(const Socket& s, int timeout_ms);

/// O_NONBLOCK toggle, for sockets driven by the coordinator's epoll loop.
void set_nonblocking(const Socket& s, bool on);

/// Serializes one frame to its wire form (len | type | payload | crc).
std::vector<std::uint8_t> frame_bytes(const Frame& f);

/// Non-blocking frame reassembly: tries to extract one whole, CRC-valid
/// frame from `buf` starting at `off`. Returns true and advances `off` past
/// the frame; returns false when the buffer holds only a partial frame
/// (read more bytes and retry). Throws on corruption (bad length or CRC) —
/// the stream can never resynchronize, exactly like recv_frame.
bool extract_frame(const std::vector<std::uint8_t>& buf, std::size_t& off,
                   Frame& out);

/// Sends one frame (handles short writes; MSG_NOSIGNAL, so a dead peer
/// surfaces as an exception, not SIGPIPE). Throws on any send failure.
void send_frame(const Socket& s, const Frame& f);

enum class RecvStatus : std::uint8_t {
  Ok,       ///< a whole, CRC-valid frame was read into `out`
  Eof,      ///< clean shutdown before any byte of a new frame
  Timeout,  ///< SO_RCVTIMEO expired before any byte of a new frame
};

/// Reads one frame. A timeout or EOF *mid-frame* is a protocol error and
/// throws (the stream can never resynchronize), as does a CRC mismatch or
/// an oversized length field.
RecvStatus recv_frame(const Socket& s, Frame& out);

}  // namespace gpf::net
