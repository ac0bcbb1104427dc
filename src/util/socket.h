// Thin RAII + error-handling wrappers over the POSIX socket calls the rpc
// layer needs: a move-only owned fd, Unix-domain listen/connect, a
// nonblocking toggle, and EINTR-safe full-buffer read/write loops.
//
// Scope is deliberately narrow — Unix-domain stream sockets only (the
// nowsched daemon binds a filesystem path; no TCP, no name resolution).
// Failures throw std::system_error carrying errno, except the partial-read
// primitives which report EOF/again in-band (the framing layer owns retry
// policy).
#pragma once

#include <cstddef>
#include <string>
#include <utility>

namespace nowsched::util {

/// Move-only owned file descriptor; closes on destruction. -1 means empty.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) noexcept : fd_(fd) {}
  ~Fd() { reset(); }

  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  Fd(Fd&& other) noexcept : fd_(other.release()) {}
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.release();
    }
    return *this;
  }

  int get() const noexcept { return fd_; }
  bool valid() const noexcept { return fd_ >= 0; }
  int release() noexcept { return std::exchange(fd_, -1); }
  void reset() noexcept;

 private:
  int fd_ = -1;
};

/// Creates, binds, and listens on a Unix-domain stream socket at `path`.
/// Throws std::system_error on any failure (including a live socket already
/// bound there); a dead leftover socket file is unlinked first.
Fd unix_listen(const std::string& path, int backlog = 16);

/// Connects to the Unix-domain stream socket at `path`.
Fd unix_connect(const std::string& path);

/// accept(2) on a listening fd; an empty Fd when nothing can be accepted
/// now: no pending connection (EAGAIN on a nonblocking listener), one that
/// died before accept, or no descriptor or buffer to accept it with
/// (EMFILE, ENFILE, ENOBUFS, ENOMEM). The last case sets `exhausted`, and
/// the client stays in the listen backlog. Other errors throw.
Fd accept_connection(int listen_fd, bool& exhausted);

void set_nonblocking(int fd, bool enable);

/// A pipe pair for self-wake: `first` is the read end, `second` the write
/// end; both nonblocking.
std::pair<Fd, Fd> make_wake_pipe();

/// Result of one read_some call.
enum class IoStatus {
  kOk,     ///< >= 1 byte transferred
  kEof,    ///< orderly peer close (read only)
  kAgain,  ///< nonblocking fd had nothing / no room
};

/// Reads up to `capacity` bytes once (EINTR retried). On kOk, `n` is the
/// byte count; otherwise n == 0. Hard errors (ECONNRESET, EBADF, ...) throw.
IoStatus read_some(int fd, char* buf, std::size_t capacity, std::size_t& n);

/// Writes as much of [data, data+len) as the socket fd accepts without
/// blocking (EINTR retried). `written` advances past the accepted prefix;
/// kAgain means the kernel buffer filled first. Uses send(MSG_NOSIGNAL), so
/// a vanished peer throws EPIPE instead of raising SIGPIPE — callers treat
/// it as a dropped connection. Socket fds only.
IoStatus write_some(int fd, const char* data, std::size_t len, std::size_t& written);

/// Blocking full-buffer write: loops write_some until every byte is out.
/// The fd must be blocking (the client library's sockets are).
void write_all(int fd, const char* data, std::size_t len);

}  // namespace nowsched::util
