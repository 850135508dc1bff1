#include "net/socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

namespace autosens::net {

Socket::~Socket() { close(); }

Socket::Socket(Socket&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

int Socket::release() noexcept { return std::exchange(fd_, -1); }

void Socket::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

SocketError::SocketError(std::string what, int saved_errno)
    : message_(std::move(what)), errno_(saved_errno) {
  message_ += ": ";
  message_ += std::strerror(saved_errno);
}

std::string peer_address(int fd) noexcept {
  sockaddr_in addr{};
  socklen_t len = sizeof addr;
  if (::getpeername(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0 ||
      addr.sin_family != AF_INET) {
    return "unknown-peer";
  }
  char ip[INET_ADDRSTRLEN] = {};
  if (::inet_ntop(AF_INET, &addr.sin_addr, ip, sizeof ip) == nullptr) return "unknown-peer";
  return std::string(ip) + ":" + std::to_string(ntohs(addr.sin_port));
}

int SocketOps::connect_tcp_fd(std::uint16_t port) noexcept {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -errno;

  const int enable = 1;
  // Telemetry batches are small; disable Nagle so latency samples flush.
  if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof enable) < 0) {
    const int saved = errno;
    ::close(fd);
    return -saved;
  }

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
    const int saved = errno;
    ::close(fd);
    return -saved;
  }
  return fd;
}

std::int64_t SocketOps::send(int fd, const std::uint8_t* data, std::size_t len) noexcept {
  const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
  return n >= 0 ? n : -static_cast<std::int64_t>(errno);
}

std::int64_t SocketOps::recv(int fd, std::uint8_t* data, std::size_t len) noexcept {
  const ssize_t n = ::recv(fd, data, len, 0);
  return n >= 0 ? n : -static_cast<std::int64_t>(errno);
}

void SocketOps::sleep_ms(std::uint32_t ms) noexcept {
  if (ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

int SocketOps::accept4_fd(int listen_fd) noexcept {
  const int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
  return fd >= 0 ? fd : -errno;
}

int SocketOps::epoll_wait(int epoll_fd, struct epoll_event* events, int max_events,
                          int timeout_ms) noexcept {
  const int n = ::epoll_wait(epoll_fd, events, max_events, timeout_ms);
  return n >= 0 ? n : -errno;
}

int SocketOps::recvmmsg(int fd, struct mmsghdr* msgs, unsigned count) noexcept {
  const int n = ::recvmmsg(fd, msgs, count, MSG_DONTWAIT, nullptr);
  return n >= 0 ? n : -errno;
}

int SocketOps::sendmmsg(int fd, struct mmsghdr* msgs, unsigned count) noexcept {
  const int n = ::sendmmsg(fd, msgs, count, 0);
  return n >= 0 ? n : -errno;
}

int SocketOps::setsockopt_int(int fd, int level, int option, int value) noexcept {
  return ::setsockopt(fd, level, option, &value, sizeof value) == 0 ? 0 : -errno;
}

SocketOps& real_socket_ops() noexcept {
  static SocketOps ops;
  return ops;
}

Socket listen_tcp(std::uint16_t port, std::uint16_t& bound_port, int backlog) {
  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) throw SocketError("socket()", errno);

  const int enable = 1;
  if (::setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &enable, sizeof enable) < 0) {
    throw SocketError("setsockopt(SO_REUSEADDR)", errno);
  }

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(sock.fd(), reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
    throw SocketError("bind(127.0.0.1:" + std::to_string(port) + ")", errno);
  }
  if (::listen(sock.fd(), backlog) < 0) throw SocketError("listen()", errno);

  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(sock.fd(), reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
    throw SocketError("getsockname()", errno);
  }
  bound_port = ntohs(bound.sin_port);
  return sock;
}

Socket listen_tcp_reuseport(std::uint16_t port, std::uint16_t& bound_port, int backlog) {
  Socket sock(::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0));
  if (!sock.valid()) throw SocketError("socket()", errno);

  const int enable = 1;
  if (::setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &enable, sizeof enable) < 0) {
    throw SocketError("setsockopt(SO_REUSEADDR)", errno);
  }
  if (::setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEPORT, &enable, sizeof enable) < 0) {
    throw SocketError("setsockopt(SO_REUSEPORT)", errno);
  }

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(sock.fd(), reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
    throw SocketError("bind(127.0.0.1:" + std::to_string(port) + ", SO_REUSEPORT)",
                      errno);
  }
  if (::listen(sock.fd(), backlog) < 0) throw SocketError("listen()", errno);

  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(sock.fd(), reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
    throw SocketError("getsockname()", errno);
  }
  bound_port = ntohs(bound.sin_port);
  return sock;
}

Socket bind_udp(std::uint16_t port, std::uint16_t& bound_port, bool reuseport) {
  Socket sock(::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0));
  if (!sock.valid()) throw SocketError("socket(SOCK_DGRAM)", errno);

  const int enable = 1;
  if (reuseport &&
      ::setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEPORT, &enable, sizeof enable) < 0) {
    throw SocketError("setsockopt(SO_REUSEPORT)", errno);
  }

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(sock.fd(), reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
    throw SocketError("bind(udp 127.0.0.1:" + std::to_string(port) + ")", errno);
  }

  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(sock.fd(), reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
    throw SocketError("getsockname()", errno);
  }
  bound_port = ntohs(bound.sin_port);
  return sock;
}

Socket connect_udp(std::uint16_t port) {
  Socket sock(::socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0));
  if (!sock.valid()) throw SocketError("socket(SOCK_DGRAM)", errno);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(sock.fd(), reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
    throw SocketError("connect(udp 127.0.0.1:" + std::to_string(port) + ")", errno);
  }
  return sock;
}

Socket connect_tcp(std::uint16_t port, SocketOps& ops) {
  const int fd = ops.connect_tcp_fd(port);
  if (fd < 0) {
    throw SocketError("connect(127.0.0.1:" + std::to_string(port) + ")",
                      static_cast<int>(-fd));
  }
  return Socket(fd);
}

std::optional<Socket> accept_with_timeout(const Socket& listener, int timeout_ms) {
  pollfd pfd{.fd = listener.fd(), .events = POLLIN, .revents = 0};
  for (;;) {
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      throw SocketError("poll()", errno);
    }
    if (ready == 0) return std::nullopt;
    break;
  }
  const int fd = ::accept(listener.fd(), nullptr, nullptr);
  if (fd < 0) throw SocketError("accept()", errno);
  return Socket(fd);
}

void write_all(const Socket& socket, std::span<const std::uint8_t> data, SocketOps& ops) {
  std::size_t written = 0;
  while (written < data.size()) {
    const std::int64_t n =
        ops.send(socket.fd(), data.data() + written, data.size() - written);
    if (n < 0) {
      const int err = static_cast<int>(-n);
      if (err == EINTR) continue;
      if (err == EAGAIN || err == EWOULDBLOCK) {
        // Blocking sockets only hit this under injected stalls or
        // SO_SNDTIMEO; yield briefly and retry rather than failing.
        ops.sleep_ms(1);
        continue;
      }
      throw SocketError("send() to " + peer_address(socket.fd()), err);
    }
    written += static_cast<std::size_t>(n);
  }
}

bool read_exact(const Socket& socket, std::span<std::uint8_t> data, SocketOps& ops) {
  std::size_t got = 0;
  while (got < data.size()) {
    const std::int64_t n = ops.recv(socket.fd(), data.data() + got, data.size() - got);
    if (n < 0) {
      const int err = static_cast<int>(-n);
      if (err == EINTR) continue;
      if (err == EAGAIN || err == EWOULDBLOCK) {
        ops.sleep_ms(1);
        continue;
      }
      throw SocketError("recv() from " + peer_address(socket.fd()), err);
    }
    if (n == 0) {
      if (got == 0) return false;  // clean EOF at a message boundary
      throw SocketError(
          "recv() from " + peer_address(socket.fd()) + ": unexpected EOF mid-message",
          ECONNRESET);
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace autosens::net
