#include "rpc/server.h"

#include <cerrno>
#include <stdexcept>
#include <utility>

#include <poll.h>
#include <unistd.h>

#include "service/stats_format.h"

namespace nowsched::rpc {

namespace {

constexpr std::size_t kReadChunk = 64 * 1024;

JobResultReply make_result_reply(service::JobId id, service::FetchOutcome&& out) {
  JobResultReply reply;
  reply.state = out.state;
  reply.error = std::move(out.error);
  reply.job_id = id;
  if (out.state == service::JobState::kDone) {
    reply.tenant = std::move(out.result.tenant);
    reply.job_id = out.result.job_id;
    reply.completion_index = out.result.completion_index;
    reply.latency_ms = out.result.latency_ms;
    reply.per_scenario = std::move(out.result.batch.per_scenario);
    reply.aggregate = out.result.batch.aggregate;
    reply.cache = out.result.batch.cache;
  }
  return reply;
}

}  // namespace

void Server::WakeHandle::ring() noexcept {
  if (!write_end.valid()) return;
  const char byte = 1;
  // Best effort: EAGAIN means a wake byte is already pending, which is all
  // a level-triggered poll loop needs; other errors mean the loop is gone.
  [[maybe_unused]] const ssize_t rc = ::write(write_end.get(), &byte, 1);
}

Server::Server(service::SchedulerService& service, ServerOptions options)
    : service_(service), options_(std::move(options)) {
  if (options_.socket_path.empty()) {
    throw std::invalid_argument("rpc::Server: empty socket path");
  }
  listener_ = util::unix_listen(options_.socket_path, options_.backlog);
  util::set_nonblocking(listener_.get(), true);

  auto [read_end, write_end] = util::make_wake_pipe();
  wake_read_ = std::move(read_end);
  wake_ = std::make_shared<WakeHandle>();
  wake_->write_end = std::move(write_end);
  // The hook holds the WakeHandle by shared_ptr: a worker thread that
  // copied the hook just before ~Server still writes into a live fd.
  std::shared_ptr<WakeHandle> wake = wake_;
  service_.set_completion_hook([wake](service::JobId) { wake->ring(); });
}

Server::~Server() {
  service_.set_completion_hook(nullptr);
  conns_.clear();
  listener_.reset();
  ::unlink(options_.socket_path.c_str());
}

void Server::stop() {
  stopped_.store(true);
  if (wake_) wake_->ring();
}

void Server::serve() {
  while (!stopped_.load()) {
    poll_once(-1);
  }
  if (shutdown_requested_) service_.shutdown(shutdown_mode_);
}

bool Server::poll_once(int timeout_ms) {
  bool progress = false;

  // Parked fetches first: in manual pumping the completion may have landed
  // between calls with no wake byte racing ahead of us, and rechecking is
  // one nonblocking fetch_result per parked connection.
  for (auto& conn : conns_) {
    if (check_parked(*conn)) progress = true;
  }

  // Snapshot the count: accept_pending below may grow conns_, and those
  // fresh connections have no pollfd this pass — they are polled next time.
  const std::size_t polled = conns_.size();
  std::vector<pollfd> fds;
  fds.reserve(polled + 2);
  fds.push_back({listener_.get(), POLLIN, 0});
  fds.push_back({wake_read_.get(), POLLIN, 0});
  for (std::size_t i = 0; i < polled; ++i) {
    Connection& conn = *conns_[i];
    short events = 0;
    if (!conn.read_closed) events |= POLLIN;
    if (conn.out_pos < conn.outbuf.size()) events |= POLLOUT;
    fds.push_back({conn.fd.get(), events, 0});
  }

  // A wake may already be pending (completion hook); progress made above
  // also means we should not block forever waiting for new bytes.
  const int wait_ms = progress ? 0 : timeout_ms;
  const int ready = ::poll(fds.data(), fds.size(), wait_ms);
  if (ready < 0) {
    if (errno == EINTR) return progress;
    throw std::system_error(errno, std::generic_category(), "poll");
  }

  if (fds[1].revents & POLLIN) {
    char buf[256];
    std::size_t n = 0;
    while (util::read_some(wake_read_.get(), buf, sizeof(buf), n) ==
           util::IoStatus::kOk) {
    }
    progress = true;
    for (auto& conn : conns_) {
      if (check_parked(*conn)) progress = true;
    }
  }

  if (fds[0].revents & POLLIN) {
    accept_pending();
    progress = true;
  }

  for (std::size_t i = 0; i < polled; ++i) {
    Connection& conn = *conns_[i];
    const pollfd& pfd = fds[i + 2];
    if (!conn.read_closed && (pfd.revents & (POLLIN | POLLHUP | POLLERR))) {
      if (read_from(conn)) progress = true;
    }
    if (!conn.closing || conn.out_pos < conn.outbuf.size()) {
      if (flush(conn)) progress = true;
    }
  }

  // Reap: a connection is dead when reading hit an error (fd already reset)
  // or when it finished flushing its goodbye. A half-closed peer (read side
  // EOF) still gets replies to everything it pipelined — including a parked
  // fetch — before the connection goes.
  for (std::size_t i = 0; i < conns_.size();) {
    Connection& conn = *conns_[i];
    const bool flushed = conn.out_pos >= conn.outbuf.size();
    const bool done = conn.closing || (conn.read_closed && !conn.parked);
    if (!conn.fd.valid() || (done && flushed)) {
      if (conn.announced_shutdown) stopped_.store(true);
      for (const service::JobId id : conn.owned) service_.forget(id);
      conns_.erase(conns_.begin() + static_cast<std::ptrdiff_t>(i));
      progress = true;
      continue;
    }
    ++i;
  }

  // The Shutdown reply left the building (or its connection died): stop.
  if (shutdown_requested_) {
    bool still_flushing = false;
    for (auto& conn : conns_) {
      if (conn->announced_shutdown && conn->out_pos < conn->outbuf.size()) {
        still_flushing = true;
      }
    }
    if (!still_flushing) stopped_.store(true);
  }

  return progress;
}

void Server::accept_pending() {
  for (;;) {
    util::Fd fd = util::accept_connection(listener_.get());
    if (!fd.valid()) return;
    util::set_nonblocking(fd.get(), true);
    auto conn = std::make_unique<Connection>();
    conn->fd = std::move(fd);
    conns_.push_back(std::move(conn));
  }
}

bool Server::read_from(Connection& conn) {
  bool progress = false;
  char buf[kReadChunk];
  for (;;) {
    std::size_t n = 0;
    util::IoStatus status;
    try {
      status = util::read_some(conn.fd.get(), buf, sizeof(buf), n);
    } catch (const std::system_error&) {
      // ECONNRESET and friends: the fd is dead both ways. Replies can no
      // longer flush, but frames already buffered still carry side effects
      // (a pipelined Shutdown must not be lost), so fall through to
      // process_frames before the reap pass drops the connection.
      conn.fd.reset();
      progress = true;
      break;
    }
    if (status == util::IoStatus::kOk) {
      conn.decoder.append(std::string_view(buf, n));
      progress = true;
      continue;
    }
    if (status == util::IoStatus::kEof) {
      // Half-close: the peer is done sending but may still be reading
      // (shutdown(SHUT_WR)). Process everything it pipelined and keep the
      // write side open; the reap pass closes once the outbuf drains.
      conn.read_closed = true;
      progress = true;
      break;
    }
    break;  // kAgain — drained the socket
  }
  if (progress) process_frames(conn);
  return progress;
}

void Server::process_frames(Connection& conn) {
  // In-order guarantee: while a fetch is parked, later frames stay encoded
  // in the decoder buffer untouched.
  while (!conn.parked && !conn.closing) {
    Frame frame;
    const DecodeStatus status = conn.decoder.next(frame);
    if (status == DecodeStatus::kNeedMore) return;
    if (status == DecodeStatus::kError) {
      // Framing is unrecoverable: best-effort typed goodbye, then close.
      send(conn, MsgType::kError, encode_error({conn.decoder.error()}));
      conn.closing = true;
      return;
    }
    handle_frame(conn, frame);
  }
}

void Server::handle_frame(Connection& conn, const Frame& frame) {
  const std::optional<MsgType> type = msg_type_from_wire(frame.type);
  try {
    if (!type) {
      throw std::invalid_argument("nowsched-rpc: unknown message type " +
                                  std::to_string(static_cast<int>(frame.type)));
    }
    switch (*type) {
      case MsgType::kSubmitBatch: {
        SubmitBatchRequest req = decode_submit_batch(frame.payload);
        const service::TicketSubmission sub =
            service_.submit_job(req.tenant, std::move(req.specs));
        SubmitReply reply;
        reply.status = sub.status;
        reply.reason = sub.reason;
        reply.job_id = sub.ticket.id;
        if (sub.accepted()) conn.owned.insert(sub.ticket.id);
        send(conn, MsgType::kSubmitReply, encode_submit_reply(reply));
        return;
      }
      case MsgType::kJobStatus: {
        const JobStatusRequest req = decode_job_status(frame.payload);
        send(conn, MsgType::kJobStatusReply,
             encode_job_status_reply({service_.job_state(req.job_id)}));
        return;
      }
      case MsgType::kJobResult: {
        const JobResultRequest req = decode_job_result(frame.payload);
        service::FetchOutcome out =
            service_.fetch_result(req.job_id, /*wait=*/false);
        const bool pending = out.state == service::JobState::kQueued ||
                             out.state == service::JobState::kRunning;
        if (pending && req.wait) {
          conn.parked = req.job_id;  // reply when the completion hook fires
          return;
        }
        if (!pending) conn.owned.erase(req.job_id);
        send(conn, MsgType::kJobResultReply,
             encode_job_result_reply(
                 make_result_reply(req.job_id, std::move(out))));
        return;
      }
      case MsgType::kStats: {
        decode_stats_request(frame.payload);
        send(conn, MsgType::kStatsReply,
             service::to_stats_string(service_.stats()));
        return;
      }
      case MsgType::kCancelJob: {
        const CancelRequest req = decode_cancel(frame.payload);
        send(conn, MsgType::kCancelReply,
             encode_cancel_reply({service_.cancel(req.job_id)}));
        return;
      }
      case MsgType::kShutdown: {
        const ShutdownRequest req = decode_shutdown(frame.payload);
        shutdown_requested_ = true;
        shutdown_mode_ = req.mode;
        conn.announced_shutdown = true;
        send(conn, MsgType::kShutdownReply, encode_shutdown_reply());
        return;
      }
      default:
        throw std::invalid_argument(
            std::string("nowsched-rpc: '") + to_string(*type) +
            "' is a reply type, not a request");
    }
  } catch (const std::invalid_argument& e) {
    // Payload-level problem: the stream is still framed correctly, so the
    // connection survives with a typed error reply.
    send(conn, MsgType::kError, encode_error({e.what()}));
  }
}

bool Server::check_parked(Connection& conn) {
  if (!conn.parked) return false;
  const service::JobId id = *conn.parked;
  service::FetchOutcome out = service_.fetch_result(id, /*wait=*/false);
  if (out.state == service::JobState::kQueued ||
      out.state == service::JobState::kRunning) {
    return false;
  }
  conn.parked.reset();
  conn.owned.erase(id);
  send(conn, MsgType::kJobResultReply,
       encode_job_result_reply(make_result_reply(id, std::move(out))));
  process_frames(conn);  // drain requests queued behind the parked fetch
  return true;
}

void Server::send(Connection& conn, MsgType type, const std::string& payload) {
  conn.outbuf.append(encode_frame(wire_code(type), payload));
  flush(conn);
}

bool Server::flush(Connection& conn) {
  if (!conn.fd.valid()) return false;
  if (conn.out_pos >= conn.outbuf.size()) return false;
  std::size_t n = 0;
  try {
    util::write_some(conn.fd.get(), conn.outbuf.data() + conn.out_pos,
                     conn.outbuf.size() - conn.out_pos, n);
  } catch (const std::system_error&) {
    conn.fd.reset();  // peer vanished mid-reply
    return true;
  }
  conn.out_pos += n;
  if (conn.out_pos >= conn.outbuf.size()) {
    conn.outbuf.clear();
    conn.out_pos = 0;
  }
  return n > 0;
}

}  // namespace nowsched::rpc
