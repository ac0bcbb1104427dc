#include "util/socket.h"

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>
#include <system_error>

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace nowsched::util {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::system_error(errno, std::generic_category(), what);
}

sockaddr_un make_unix_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    throw std::invalid_argument("unix socket path empty or too long (max " +
                                std::to_string(sizeof(addr.sun_path) - 1) +
                                " bytes): '" + path + "'");
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

}  // namespace

void Fd::reset() noexcept {
  if (fd_ >= 0) {
    // EINTR on close is unrecoverable-by-retry on Linux; ignore it.
    ::close(fd_);
    fd_ = -1;
  }
}

Fd unix_listen(const std::string& path, int backlog) {
  const sockaddr_un addr = make_unix_addr(path);
  Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) throw_errno("socket(AF_UNIX)");

  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (errno != EADDRINUSE) throw_errno("bind('" + path + "')");
    // A socket file exists. If something answers it, the address is truly
    // taken; if not, it is a leftover from a crashed daemon — reclaim it.
    Fd probe(::socket(AF_UNIX, SOCK_STREAM, 0));
    if (!probe.valid()) throw_errno("socket(AF_UNIX)");
    if (::connect(probe.get(), reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      errno = EADDRINUSE;
      throw_errno("bind('" + path + "'): daemon already listening");
    }
    if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
      throw_errno("unlink('" + path + "')");
    }
    if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      throw_errno("bind('" + path + "')");
    }
  }
  if (::listen(fd.get(), backlog) != 0) throw_errno("listen('" + path + "')");
  return fd;
}

Fd unix_connect(const std::string& path) {
  const sockaddr_un addr = make_unix_addr(path);
  Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) throw_errno("socket(AF_UNIX)");
  for (;;) {
    if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      return fd;
    }
    if (errno == EINTR) continue;
    throw_errno("connect('" + path + "')");
  }
}

Fd accept_connection(int listen_fd, bool& exhausted) {
  exhausted = false;
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) return Fd(fd);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return Fd();
    // A connection that died between readiness and accept is not an error
    // for the listener — report "nothing to accept" and poll again.
    if (errno == ECONNABORTED) return Fd();
    // Out of descriptors or buffers: a condition of the moment, not a
    // broken listener. A client that holds many connections open must not
    // turn it into a daemon exit.
    if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS || errno == ENOMEM) {
      exhausted = true;
      return Fd();
    }
    throw_errno("accept");
  }
}

void set_nonblocking(int fd, bool enable) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) throw_errno("fcntl(F_GETFL)");
  const int want = enable ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (want != flags && ::fcntl(fd, F_SETFL, want) != 0) throw_errno("fcntl(F_SETFL)");
}

std::pair<Fd, Fd> make_wake_pipe() {
  int fds[2];
  if (::pipe(fds) != 0) throw_errno("pipe");
  Fd read_end(fds[0]);
  Fd write_end(fds[1]);
  set_nonblocking(read_end.get(), true);
  set_nonblocking(write_end.get(), true);
  return {std::move(read_end), std::move(write_end)};
}

IoStatus read_some(int fd, char* buf, std::size_t capacity, std::size_t& n) {
  n = 0;
  for (;;) {
    const ssize_t got = ::read(fd, buf, capacity);
    if (got > 0) {
      n = static_cast<std::size_t>(got);
      return IoStatus::kOk;
    }
    if (got == 0) return IoStatus::kEof;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return IoStatus::kAgain;
    throw_errno("read");
  }
}

IoStatus write_some(int fd, const char* data, std::size_t len, std::size_t& written) {
  written = 0;
  while (written < len) {
    // send(MSG_NOSIGNAL), not write(2): a peer that closed mid-reply must
    // surface as an EPIPE system_error the caller can catch, not SIGPIPE
    // killing the whole daemon. Socket fds only (pipes use raw ::write).
    const ssize_t put = ::send(fd, data + written, len - written, MSG_NOSIGNAL);
    if (put > 0) {
      written += static_cast<std::size_t>(put);
      continue;
    }
    if (put < 0 && errno == EINTR) continue;
    if (put < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return IoStatus::kAgain;
    throw_errno("write");
  }
  return IoStatus::kOk;
}

void write_all(int fd, const char* data, std::size_t len) {
  std::size_t written = 0;
  while (written < len) {
    std::size_t n = 0;
    const IoStatus status = write_some(fd, data + written, len - written, n);
    written += n;
    if (status == IoStatus::kAgain) {
      // Blocking fds only reach here under SO_SNDTIMEO or similar; spinning
      // is wrong, so surface it.
      errno = EAGAIN;
      throw_errno("write_all on nonblocking fd");
    }
  }
}

}  // namespace nowsched::util
