// RAII socket primitives for the telemetry collection pipeline. The paper's
// latency is measured at the client and conveyed to the server where it is
// logged (§3.1); `collector` and `emitter` reproduce that path over loopback
// TCP. This header provides the owning fd wrapper, the small set of TCP
// operations they need, and the SocketOps seam that lets the deterministic
// fault-injection layer (net/fault.h) stand in for the raw syscalls.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>

struct epoll_event;
struct mmsghdr;

namespace autosens::net {

/// Owning file-descriptor handle. Move-only; closes on destruction.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) noexcept : fd_(fd) {}
  ~Socket();

  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;

  bool valid() const noexcept { return fd_ >= 0; }
  int fd() const noexcept { return fd_; }
  /// Release ownership without closing.
  int release() noexcept;
  void close() noexcept;

 private:
  int fd_ = -1;
};

/// Thrown by socket operations on unrecoverable errors; carries errno text
/// and, where the caller knows it, the peer address.
class SocketError : public std::exception {
 public:
  SocketError(std::string what, int saved_errno);
  const char* what() const noexcept override { return message_.c_str(); }
  int saved_errno() const noexcept { return errno_; }

 private:
  std::string message_;
  int errno_;
};

/// "127.0.0.1:port" of the connected peer of `fd`, or "unknown-peer" when
/// getpeername fails (e.g. the socket was never connected). Used to build
/// SocketError messages that identify which connection failed.
std::string peer_address(int fd) noexcept;

/// The syscall surface the emitter/collector I/O paths go through. The
/// default implementation (real_socket_ops) forwards to the kernel; the
/// fault-injection layer (net/fault.h) wraps it to force connect refusals,
/// short reads/writes, EAGAIN stalls, disconnects, injected latency, and
/// bit corruption at seed-chosen operation indices.
///
/// Error convention: send/recv return the syscall result with errno already
/// folded in as a negative value (-EAGAIN, -ECONNRESET, ...), so injected
/// errors need no thread-local errno games. connect_tcp_fd returns a
/// connected fd >= 0 or -errno.
class SocketOps {
 public:
  virtual ~SocketOps() = default;

  /// Create a TCP socket and connect it to 127.0.0.1:port.
  /// Returns the fd, or -errno on failure.
  virtual int connect_tcp_fd(std::uint16_t port) noexcept;

  /// send(2) with MSG_NOSIGNAL. Returns bytes written or -errno.
  virtual std::int64_t send(int fd, const std::uint8_t* data, std::size_t len) noexcept;

  /// recv(2). Returns bytes read (0 = EOF) or -errno.
  virtual std::int64_t recv(int fd, std::uint8_t* data, std::size_t len) noexcept;

  /// Sleep used by retry backoff; overridable so tests can compress or
  /// record the waits instead of paying them in wall-clock time.
  virtual void sleep_ms(std::uint32_t ms) noexcept;

  // --- Nonblocking / batched surface used by the sharded collector and the
  // --- UDP transport. All go through the seam so FaultySocketOps can drive
  // --- the edge-triggered event loops through every failure mode.

  /// accept4(2) with SOCK_NONBLOCK. Returns the accepted fd or -errno
  /// (-EAGAIN when no connection is pending on a nonblocking listener).
  virtual int accept4_fd(int listen_fd) noexcept;

  /// epoll_wait(2). Returns the ready count (0 = timeout) or -errno.
  virtual int epoll_wait(int epoll_fd, struct epoll_event* events, int max_events,
                         int timeout_ms) noexcept;

  /// recvmmsg(2) with MSG_DONTWAIT. Returns datagrams received or -errno
  /// (-EAGAIN when the socket is drained).
  virtual int recvmmsg(int fd, struct mmsghdr* msgs, unsigned count) noexcept;

  /// sendmmsg(2). Returns datagrams sent (possibly fewer than `count`) or
  /// -errno.
  virtual int sendmmsg(int fd, struct mmsghdr* msgs, unsigned count) noexcept;

  /// setsockopt(2) for int-valued options (SO_RCVBUF, SO_SNDBUF, ...).
  /// Returns 0 or -errno.
  virtual int setsockopt_int(int fd, int level, int option, int value) noexcept;
};

/// The pass-through SocketOps singleton (plain syscalls).
SocketOps& real_socket_ops() noexcept;

/// Create a TCP listener bound to 127.0.0.1:port (port 0 = ephemeral).
/// Returns the socket; the bound port is written to `bound_port`.
/// The backlog matches listen_tcp_reuseport's: under the saturation bench's
/// 64-way connect bursts a small backlog overflows and every overflowed
/// connect stalls on a ~1s SYN retransmit, so the bench would measure kernel
/// timers instead of the serving loop.
Socket listen_tcp(std::uint16_t port, std::uint16_t& bound_port, int backlog = 128);

/// Like listen_tcp, but nonblocking and with SO_REUSEPORT, so N collector
/// shards can each own a listener on the same port and let the kernel shard
/// the accept queue. Throws SocketError if SO_REUSEPORT is unsupported.
Socket listen_tcp_reuseport(std::uint16_t port, std::uint16_t& bound_port,
                            int backlog = 128);

/// Create a nonblocking UDP socket bound to 127.0.0.1:port (0 = ephemeral),
/// with SO_REUSEPORT when `reuseport` so several shards can share the port.
Socket bind_udp(std::uint16_t port, std::uint16_t& bound_port, bool reuseport = false);

/// Create an unbound (ephemeral source port) UDP socket "connected" to
/// 127.0.0.1:port so plain send(2)/sendmmsg(2) address it implicitly.
Socket connect_udp(std::uint16_t port);

/// Blocking connect to 127.0.0.1:port through `ops`.
Socket connect_tcp(std::uint16_t port, SocketOps& ops = real_socket_ops());

/// Accept one connection, waiting up to timeout_ms (-1 = forever).
/// Returns nullopt on timeout.
std::optional<Socket> accept_with_timeout(const Socket& listener, int timeout_ms);

/// Write the whole buffer through `ops`, retrying on partial writes, EINTR,
/// and EAGAIN. Throws SocketError (with the peer address) on failure.
void write_all(const Socket& socket, std::span<const std::uint8_t> data,
               SocketOps& ops = real_socket_ops());

/// Read exactly data.size() bytes through `ops`. Returns false on clean EOF
/// at a message boundary (no bytes read); throws SocketError (with the peer
/// address) on mid-message EOF or error.
bool read_exact(const Socket& socket, std::span<std::uint8_t> data,
                SocketOps& ops = real_socket_ops());

}  // namespace autosens::net
