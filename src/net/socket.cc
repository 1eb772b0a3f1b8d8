#include "net/socket.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <cstdint>

namespace net {

void Fd::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

namespace {

common::Result<sockaddr_in> ResolveV4(const std::string& host, int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1) {
    return addr;
  }
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  if (::getaddrinfo(host.c_str(), nullptr, &hints, &res) != 0 || res == nullptr) {
    return common::Status::InvalidArgument("cannot resolve host: " + host);
  }
  addr.sin_addr = reinterpret_cast<sockaddr_in*>(res->ai_addr)->sin_addr;
  ::freeaddrinfo(res);
  return addr;
}

}  // namespace

common::Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return common::Status::Internal(std::string("fcntl: ") + std::strerror(errno));
  }
  return common::Status::Ok();
}

void SetNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

common::Result<Fd> TcpListen(const std::string& host, int port, int backlog, int* bound_port) {
  auto addr = ResolveV4(host, port);
  if (!addr.ok()) {
    return addr.status();
  }
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) {
    return common::Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&*addr), sizeof(*addr)) < 0) {
    return common::Status::Unavailable(std::string("bind: ") + std::strerror(errno));
  }
  if (::listen(fd.get(), backlog) < 0) {
    return common::Status::Internal(std::string("listen: ") + std::strerror(errno));
  }
  if (bound_port != nullptr) {
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
      *bound_port = ntohs(bound.sin_port);
    }
  }
  RETURN_IF_ERROR(SetNonBlocking(fd.get()));
  return fd;
}

common::Result<Fd> TcpConnect(const std::string& host, int port) {
  auto addr = ResolveV4(host, port);
  if (!addr.ok()) {
    return addr.status();
  }
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) {
    return common::Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  int rc;
  do {
    rc = ::connect(fd.get(), reinterpret_cast<sockaddr*>(&*addr), sizeof(*addr));
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) {
    return common::Status::Unavailable(std::string("connect: ") + std::strerror(errno));
  }
  SetNoDelay(fd.get());
  return fd;
}

IoStatus ReadSome(int fd, char* buf, std::size_t len, std::size_t* n) {
  *n = 0;
  ssize_t rc;
  do {
    rc = ::recv(fd, buf, len, MSG_DONTWAIT);
  } while (rc < 0 && errno == EINTR);
  if (rc > 0) {
    *n = static_cast<std::size_t>(rc);
    return IoStatus::kOk;
  }
  if (rc == 0) {
    return IoStatus::kEof;
  }
  return errno == EAGAIN || errno == EWOULDBLOCK ? IoStatus::kWouldBlock : IoStatus::kError;
}

IoStatus WriteSome(int fd, const char* buf, std::size_t len, std::size_t* n) {
  *n = 0;
  ssize_t rc;
  do {
    // MSG_NOSIGNAL: a dead peer yields EPIPE (loud teardown), not SIGPIPE.
    rc = ::send(fd, buf, len, MSG_NOSIGNAL);
  } while (rc < 0 && errno == EINTR);
  if (rc >= 0) {
    *n = static_cast<std::size_t>(rc);
    return IoStatus::kOk;
  }
  return errno == EAGAIN || errno == EWOULDBLOCK ? IoStatus::kWouldBlock : IoStatus::kError;
}

common::Status WriteAll(int fd, const char* buf, std::size_t len) {
  std::size_t sent = 0;
  while (sent < len) {
    std::size_t n = 0;
    switch (WriteSome(fd, buf + sent, len - sent, &n)) {
      case IoStatus::kOk:
        sent += n;
        break;
      case IoStatus::kWouldBlock: {
        // Blocking sockets only land here via SO_SNDTIMEO; wait for space.
        pollfd p{fd, POLLOUT, 0};
        ::poll(&p, 1, -1);
        break;
      }
      default:
        return common::Status::Unavailable(std::string("write: ") + std::strerror(errno));
    }
  }
  return common::Status::Ok();
}

bool WaitReadable(int fd, std::int64_t timeout_us) {
  pollfd p{fd, POLLIN, 0};
  const int timeout_ms =
      timeout_us <= 0 ? -1 : static_cast<int>((timeout_us + 999) / 1000);
  int rc;
  do {
    rc = ::poll(&p, 1, timeout_ms);
  } while (rc < 0 && errno == EINTR);
  return rc > 0;
}

}  // namespace net
