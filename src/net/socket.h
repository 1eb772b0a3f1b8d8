// Thin POSIX TCP helpers shared by pubsubd and the client library: an RAII
// fd, listen/connect constructors, and EINTR/EAGAIN-normalizing read/write
// wrappers. IPv4 loopback/hostname only — this layer exists to put real
// kernel sockets under the protocol, not to be a portability shim.
#ifndef SRC_NET_SOCKET_H_
#define SRC_NET_SOCKET_H_

#include <cstddef>
#include <string>
#include <utility>

#include "common/status.h"

namespace net {

// Owning file descriptor. Move-only; closes on destruction.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { Close(); }

  Fd(Fd&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = std::exchange(other.fd_, -1);
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int release() { return std::exchange(fd_, -1); }
  void Close();

 private:
  int fd_ = -1;
};

// Listens on host:port (port 0 picks an ephemeral port; *bound_port receives
// the actual one). The returned socket is non-blocking with SO_REUSEADDR.
common::Result<Fd> TcpListen(const std::string& host, int port, int backlog, int* bound_port);

// Blocking connect to host:port; the returned socket is blocking with
// TCP_NODELAY (the protocol writes whole frames; Nagle only adds latency).
common::Result<Fd> TcpConnect(const std::string& host, int port);

common::Status SetNonBlocking(int fd);
void SetNoDelay(int fd);

// Result of a non-blocking socket read/write step.
enum class IoStatus : std::uint8_t {
  kOk,        // Progress was made (*n bytes).
  kWouldBlock,
  kEof,       // Peer closed (read only).
  kError,     // errno-level failure; treat the connection as dead.
};

// Reads once into buf without blocking, whatever the socket's mode (EINTR
// retried): nothing buffered is kWouldBlock. kOk with *n == 0 never happens:
// a zero-byte read is kEof.
IoStatus ReadSome(int fd, char* buf, std::size_t len, std::size_t* n);

// Writes once from buf (EINTR retried). EPIPE/ECONNRESET surface as kError.
IoStatus WriteSome(int fd, const char* buf, std::size_t len, std::size_t* n);

// Blocking helpers for the client library (the socket must be blocking).
common::Status WriteAll(int fd, const char* buf, std::size_t len);
// Waits up to timeout_us (<= 0: indefinitely) for readability. Returns true
// when readable, false on timeout; errors surface as readable (the next read
// reports them).
bool WaitReadable(int fd, std::int64_t timeout_us);

}  // namespace net

#endif  // SRC_NET_SOCKET_H_
