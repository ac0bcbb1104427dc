// nowsched-rpc v1 daemon event loop: a poll(2)-based multi-client server
// over a Unix-domain socket, translating frames into SchedulerService
// JobTicket calls.
//
// Design notes:
//   - One FrameDecoder + output buffer per connection; all fds nonblocking,
//     so one slow client never stalls the others.
//   - Requests on a connection are processed strictly in order. A JobResult
//     request with wait=1 whose job is still pending PARKS the connection:
//     its reply (and any requests buffered behind it) waits until the
//     service's completion hook reports progress. Replies therefore always
//     arrive in request order — the invariant the blocking rpc::Client
//     relies on.
//   - Every ticket a connection submits is owned by it; when the connection
//     drops, un-fetched tickets are forget()ed so the daemon never leaks
//     job records to vanished clients (queued ones are cancelled too).
//   - A payload that fails to decode gets a typed Error reply and the
//     connection lives on; a FRAMING error (bad magic/version/length) is
//     unrecoverable — the server sends a best-effort Error frame and closes.
//   - Half-close is honoured: a peer that shutdown(SHUT_WR)s after
//     pipelining requests still receives every reply (parked fetches
//     included) before the server closes the connection.
//   - serve() blocks until stop() or a Shutdown RPC; poll_once() exposes
//     single deterministic pump steps for tests (pair it with a manual-mode
//     service and run_next()).
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "rpc/frame.h"
#include "rpc/protocol.h"
#include "service/scheduler_service.h"
#include "util/socket.h"

namespace nowsched::rpc {

struct ServerOptions {
  std::string socket_path;
  int backlog = 16;
};

class Server {
 public:
  /// Binds and listens immediately (throws std::system_error on failure)
  /// and installs itself as `service`'s completion hook. The service must
  /// outlive the server; the server does not own it.
  Server(service::SchedulerService& service, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Blocks serving clients until stop() or a Shutdown RPC — returning at
  /// once if either already happened. On Shutdown it flushes the reply,
  /// exits the loop, and calls service.shutdown(mode).
  void serve();

  /// One pump step: polls with `timeout_ms` (0 = nonblocking probe, -1 =
  /// wait indefinitely) and handles whatever is ready. Returns true when
  /// any progress happened (connection accepted/closed, bytes moved, frame
  /// handled, parked reply released). Deterministic test mode — do not mix
  /// with a concurrent serve().
  bool poll_once(int timeout_ms);

  /// Thread-safe: wakes the loop and makes serve() return. Permanent — a
  /// stop() issued before serve() makes that serve() return immediately.
  void stop();

  /// True once a Shutdown RPC was accepted; mode() says which kind. In
  /// manual pumping the caller applies service.shutdown(mode()) itself.
  bool shutdown_requested() const noexcept { return shutdown_requested_; }
  service::SchedulerService::StopMode shutdown_mode() const noexcept { return shutdown_mode_; }

  const std::string& socket_path() const noexcept { return options_.socket_path; }
  std::size_t connection_count() const noexcept { return conns_.size(); }

 private:
  struct Connection {
    util::Fd fd;
    FrameDecoder decoder;
    std::string outbuf;
    std::size_t out_pos = 0;
    std::set<service::JobId> owned;            ///< tickets to forget on drop
    std::optional<service::JobId> parked;      ///< pending wait=1 fetch
    bool closing = false;                      ///< close once outbuf drains
    bool read_closed = false;                  ///< peer half-closed; still flush replies
    bool announced_shutdown = false;           ///< carries the Shutdown reply
  };

  /// Keeps the wake-pipe write end alive inside the completion-hook lambda
  /// even while the Server is being torn down (a worker thread may hold a
  /// copy of the hook past set_completion_hook(nullptr)).
  struct WakeHandle {
    util::Fd write_end;
    void ring() noexcept;
  };

  void accept_pending();
  bool read_from(Connection& conn);
  void process_frames(Connection& conn);
  void handle_frame(Connection& conn, const Frame& frame);
  bool check_parked(Connection& conn);
  bool flush(Connection& conn);
  void send(Connection& conn, MsgType type, const std::string& payload);

  service::SchedulerService& service_;
  ServerOptions options_;
  util::Fd listener_;
  util::Fd wake_read_;
  std::shared_ptr<WakeHandle> wake_;
  /// Set by stop(), by a finished Shutdown RPC, and never cleared: a stop()
  /// that lands before serve() is entered still ends serve().
  std::atomic<bool> stopped_{false};
  bool shutdown_requested_ = false;
  service::SchedulerService::StopMode shutdown_mode_ = service::SchedulerService::StopMode::kDrain;
  std::vector<std::unique_ptr<Connection>> conns_;
};

}  // namespace nowsched::rpc
