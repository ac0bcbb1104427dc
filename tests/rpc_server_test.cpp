// rpc::Server against a real Unix-domain socket, two ways:
//
//   1. Deterministic manual mode — a workers=0 service, a raw nonblocking
//      client fd, and explicit poll_once()/run_next() pumping. Every
//      assertion is an ordering/counting fact: parked wait-fetches release
//      in completion order, bad payloads draw Error replies without killing
//      the connection, framing errors close it, disconnects forget owned
//      tickets.
//   2. Threaded — serve() on a background thread with the blocking
//      rpc::Client, covering the wake-pipe path, multi-client interleaving,
//      and the Shutdown RPC handshake.
#include "rpc/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <climits>
#include <functional>
#include <future>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include "rpc/client.h"
#include "rpc/frame.h"
#include "rpc/protocol.h"
#include "service/scheduler_service.h"
#include "temp_dir.h"
#include "util/socket.h"

namespace nowsched::rpc {
namespace {

sim::ScenarioSpec quick_spec(std::uint64_t seed) {
  sim::ScenarioSpec spec;
  spec.policy = sim::PolicyKind::kEqualized;
  spec.owner = sim::OwnerKind::kPoisson;
  spec.owner_a = 500.0;
  spec.params = Params{16};
  spec.lifespan = 512;
  spec.max_interrupts = 2;
  spec.seed = seed;
  return spec;
}

std::vector<sim::ScenarioSpec> quick_batch(std::size_t n, std::uint64_t seed0) {
  std::vector<sim::ScenarioSpec> specs;
  for (std::size_t i = 0; i < n; ++i) specs.push_back(quick_spec(seed0 + i));
  return specs;
}

service::ServiceOptions manual_options() {
  service::ServiceOptions options;
  options.workers = 0;  // run_next() drives job execution deterministically
  return options;
}

/// A raw nonblocking client for manual-mode tests: sends frames directly,
/// receives via its own FrameDecoder, and pumps the server between reads so
/// one thread drives both ends deterministically.
class RawClient {
 public:
  explicit RawClient(const std::string& socket_path)
      : fd_(util::unix_connect(socket_path)) {
    util::set_nonblocking(fd_.get(), true);
  }

  void send(MsgType type, const std::string& payload) {
    const std::string bytes = encode_frame(wire_code(type), payload);
    std::size_t written = 0;
    while (written < bytes.size()) {
      (void)util::write_some(fd_.get(), bytes.data() + written,
                             bytes.size() - written, written);
    }
  }

  void send_raw(const std::string& bytes) {
    std::size_t written = 0;
    while (written < bytes.size()) {
      if (util::write_some(fd_.get(), bytes.data() + written,
                           bytes.size() - written,
                           written) == util::IoStatus::kEof) {
        break;
      }
    }
  }

  /// Pumps `server` until a reply frame arrives. `pump` runs between poll
  /// passes (e.g. service.run_next in manual mode). Fails the test after
  /// `max_iters` fruitless passes instead of hanging.
  Frame await_reply(Server& server, const std::function<void()>& pump = {},
                    int max_iters = 2000) {
    Frame frame;
    for (int i = 0; i < max_iters; ++i) {
      if (decoder_.next(frame) == DecodeStatus::kFrame) return frame;
      if (pump) pump();
      (void)server.poll_once(1);
      char buf[4096];
      std::size_t n = 0;
      while (util::read_some(fd_.get(), buf, sizeof buf, n) ==
             util::IoStatus::kOk) {
        decoder_.append(std::string_view(buf, n));
      }
    }
    ADD_FAILURE() << "no reply after " << max_iters << " pump iterations";
    return frame;
  }

  /// True once the server has closed its side (orderly EOF observed).
  bool eof_seen(Server& server, int max_iters = 2000) {
    for (int i = 0; i < max_iters; ++i) {
      (void)server.poll_once(1);
      char buf[4096];
      std::size_t n = 0;
      const util::IoStatus status = util::read_some(fd_.get(), buf, sizeof buf, n);
      if (status == util::IoStatus::kEof) return true;
      if (status == util::IoStatus::kOk) decoder_.append(std::string_view(buf, n));
    }
    return false;
  }

  /// Writes `frame` back to back without reading any reply, pumping
  /// server.poll_once(0) between bursts, until `ceiling` bytes went out or
  /// neither side moves for three rounds. Returns the bytes written.
  std::size_t flood(Server& server, const std::string& frame, std::size_t ceiling) {
    std::string burst;
    while (burst.size() < 64 * 1024) burst += frame;
    std::size_t total = 0;
    for (int idle = 0; total < ceiling && idle < 3;) {
      // `burst` holds whole frames, so total % size stays frame-aligned.
      const std::size_t at = total % burst.size();
      std::size_t n = 0;
      (void)util::write_some(fd_.get(), burst.data() + at, burst.size() - at, n);
      total += n;
      const bool progress = server.poll_once(0);
      idle = (n == 0 && !progress) ? idle + 1 : 0;
    }
    return total;
  }

  /// Caps the kernel send buffer, so how much a flood can park in the
  /// socket does not depend on the host's defaults.
  void limit_send_buffer(int bytes) {
    ASSERT_EQ(::setsockopt(fd_.get(), SOL_SOCKET, SO_SNDBUF, &bytes, sizeof bytes), 0);
  }

  void disconnect() { fd_.reset(); }

  /// shutdown(SHUT_WR): done sending, still reading replies.
  void half_close() { ::shutdown(fd_.get(), SHUT_WR); }

 private:
  util::Fd fd_;
  FrameDecoder decoder_;
};

service::JobId submit_one(RawClient& client, Server& server,
                          const std::string& tenant, std::size_t scenarios,
                          std::uint64_t seed) {
  SubmitBatchRequest req;
  req.tenant = tenant;
  req.specs = quick_batch(scenarios, seed);
  client.send(MsgType::kSubmitBatch, encode_submit_batch(req));
  const Frame frame = client.await_reply(server);
  EXPECT_EQ(frame.type, wire_code(MsgType::kSubmitReply));
  const SubmitReply reply = decode_submit_reply(frame.payload);
  EXPECT_EQ(reply.status, service::SubmitStatus::kAccepted);
  return reply.job_id;
}

struct ManualRig {
  testing::TempDir dir{"rpc-server"};
  service::SchedulerService service{manual_options()};
  Server server{service, {(dir.path() / "daemon.sock").string(), 4}};
};

TEST(RpcServer, SubmitPollRunFetchLifecycleOverTheSocket) {
  ManualRig rig;
  RawClient client(rig.server.socket_path());

  const service::JobId id = submit_one(client, rig.server, "alpha", 3, 100);
  EXPECT_EQ(id, 1u);

  // Queued before any run_next.
  client.send(MsgType::kJobStatus, encode_job_status({id}));
  Frame frame = client.await_reply(rig.server);
  ASSERT_EQ(frame.type, wire_code(MsgType::kJobStatusReply));
  EXPECT_EQ(decode_job_status_reply(frame.payload).state,
            service::JobState::kQueued);

  ASSERT_TRUE(rig.service.run_next());

  // Nonblocking fetch now returns the full result.
  client.send(MsgType::kJobResult, encode_job_result({id, /*wait=*/false}));
  frame = client.await_reply(rig.server);
  ASSERT_EQ(frame.type, wire_code(MsgType::kJobResultReply));
  const JobResultReply result = decode_job_result_reply(frame.payload);
  EXPECT_EQ(result.state, service::JobState::kDone);
  EXPECT_EQ(result.tenant, "alpha");
  EXPECT_EQ(result.job_id, id);
  EXPECT_EQ(result.per_scenario.size(), 3u);

  // Exactly-once: the job is unknown after its result crossed the wire.
  client.send(MsgType::kJobStatus, encode_job_status({id}));
  frame = client.await_reply(rig.server);
  EXPECT_EQ(decode_job_status_reply(frame.payload).state,
            service::JobState::kUnknown);
}

TEST(RpcServer, WaitFetchParksUntilTheJobCompletes) {
  ManualRig rig;
  RawClient client(rig.server.socket_path());
  const service::JobId id = submit_one(client, rig.server, "alpha", 2, 200);

  // wait=1 on a queued job: the reply must NOT arrive until run_next.
  client.send(MsgType::kJobResult, encode_job_result({id, /*wait=*/true}));
  for (int i = 0; i < 50; ++i) (void)rig.server.poll_once(0);

  bool ran = false;
  const Frame frame = client.await_reply(rig.server, [&] {
    if (!ran) ran = rig.service.run_next();
  });
  ASSERT_TRUE(ran);
  ASSERT_EQ(frame.type, wire_code(MsgType::kJobResultReply));
  EXPECT_EQ(decode_job_result_reply(frame.payload).state,
            service::JobState::kDone);
}

TEST(RpcServer, RequestsQueuedBehindAParkedFetchAnswerInOrder) {
  ManualRig rig;
  RawClient client(rig.server.socket_path());
  const service::JobId id = submit_one(client, rig.server, "alpha", 1, 300);

  // A parked fetch, then a Stats request behind it on the same connection.
  // The replies must come back in request order: result first, stats second.
  client.send(MsgType::kJobResult, encode_job_result({id, /*wait=*/true}));
  client.send(MsgType::kStats, encode_stats_request());

  bool ran = false;
  const Frame first = client.await_reply(rig.server, [&] {
    if (!ran) ran = rig.service.run_next();
  });
  EXPECT_EQ(first.type, wire_code(MsgType::kJobResultReply));
  const Frame second = client.await_reply(rig.server);
  EXPECT_EQ(second.type, wire_code(MsgType::kStatsReply));
  EXPECT_EQ(second.payload.rfind("nowsched-stats v1\n", 0), 0u);
}

TEST(RpcServer, CancelQueuedJobSettlesAsCancelled) {
  ManualRig rig;
  RawClient client(rig.server.socket_path());
  const service::JobId id = submit_one(client, rig.server, "alpha", 1, 400);

  client.send(MsgType::kCancelJob, encode_cancel({id}));
  Frame frame = client.await_reply(rig.server);
  ASSERT_EQ(frame.type, wire_code(MsgType::kCancelReply));
  EXPECT_TRUE(decode_cancel_reply(frame.payload).cancelled);

  // Second cancel is a no-op (already requested).
  client.send(MsgType::kCancelJob, encode_cancel({id}));
  frame = client.await_reply(rig.server);
  EXPECT_FALSE(decode_cancel_reply(frame.payload).cancelled);

  // The fetch reports kCancelled with the diagnostic.
  client.send(MsgType::kJobResult, encode_job_result({id, /*wait=*/false}));
  frame = client.await_reply(rig.server);
  const JobResultReply result = decode_job_result_reply(frame.payload);
  EXPECT_EQ(result.state, service::JobState::kCancelled);
  EXPECT_EQ(result.error, "SchedulerService: job cancelled before execution");
}

TEST(RpcServer, SettledCancellationTextsCrossTheWireByteForByte) {
  // Both cancellation texts, read back from settled job records (cancel's
  // and shutdown's), arrive verbatim in JobResultReply::error.
  ManualRig rig;
  RawClient client(rig.server.socket_path());
  const service::JobId cancelled = submit_one(client, rig.server, "alpha", 1, 410);
  ASSERT_TRUE(rig.service.cancel(cancelled));  // settles the job on the spot
  EXPECT_EQ(rig.service.stats().queued_jobs, 0u);
  const service::JobId stranded = submit_one(client, rig.server, "alpha", 1, 411);
  rig.service.shutdown(service::SchedulerService::StopMode::kCancelQueued);

  const std::pair<service::JobId, std::string> expected[] = {
      {cancelled, "SchedulerService: job cancelled before execution"},
      {stranded, "SchedulerService: job cancelled by shutdown"},
  };
  for (const auto& [id, text] : expected) {
    client.send(MsgType::kJobResult, encode_job_result({id, /*wait=*/false}));
    const Frame frame = client.await_reply(rig.server);
    ASSERT_EQ(frame.type, wire_code(MsgType::kJobResultReply));
    const JobResultReply result = decode_job_result_reply(frame.payload);
    EXPECT_EQ(result.state, service::JobState::kCancelled);
    EXPECT_EQ(result.error, text);
  }
}

TEST(RpcServer, FailedJobArrivesAsFailedReplyWithItsError) {
  // A dp-optimal spec whose lifespan no value table accepts passes admission and
  // fails when it runs; the failure crosses the wire as kFailed + message.
  ManualRig rig;
  RawClient client(rig.server.socket_path());
  SubmitBatchRequest req;
  req.tenant = "alpha";
  req.specs = quick_batch(1, 500);
  req.specs[0].policy = sim::PolicyKind::kDpOptimal;
  req.specs[0].lifespan = Ticks{1} << 40;
  req.specs[0].max_interrupts = INT_MAX;
  client.send(MsgType::kSubmitBatch, encode_submit_batch(req));
  Frame frame = client.await_reply(rig.server);
  ASSERT_EQ(frame.type, wire_code(MsgType::kSubmitReply));
  const SubmitReply submitted = decode_submit_reply(frame.payload);
  ASSERT_EQ(submitted.status, service::SubmitStatus::kAccepted);

  ASSERT_TRUE(rig.service.run_next());
  client.send(MsgType::kJobResult,
              encode_job_result({submitted.job_id, /*wait=*/false}));
  frame = client.await_reply(rig.server);
  ASSERT_EQ(frame.type, wire_code(MsgType::kJobResultReply));
  const JobResultReply result = decode_job_result_reply(frame.payload);
  EXPECT_EQ(result.state, service::JobState::kFailed);
  EXPECT_EQ(result.error, "ValueTable: max_lifespan outside [0, 4294967295]");
}

TEST(RpcServer, BadPayloadDrawsErrorReplyAndConnectionSurvives) {
  ManualRig rig;
  RawClient client(rig.server.socket_path());

  // Valid frame, garbage payload: typed Error reply, connection lives.
  client.send(MsgType::kSubmitBatch, "this is not a submit payload\n");
  Frame frame = client.await_reply(rig.server);
  ASSERT_EQ(frame.type, wire_code(MsgType::kError));
  EXPECT_FALSE(decode_error(frame.payload).message.empty());

  // Unknown message type is a payload-level error too.
  client.send_raw(encode_frame(200, ""));
  frame = client.await_reply(rig.server);
  EXPECT_EQ(frame.type, wire_code(MsgType::kError));

  // The connection still works for real requests afterwards.
  const service::JobId id = submit_one(client, rig.server, "alpha", 1, 500);
  EXPECT_GT(id, 0u);
  EXPECT_EQ(rig.server.connection_count(), 1u);
}

TEST(RpcServer, FramingErrorClosesTheConnection) {
  ManualRig rig;
  RawClient client(rig.server.socket_path());
  client.send_raw("GARBAGE-NOT-A-FRAME-HEADER--");
  EXPECT_TRUE(client.eof_seen(rig.server));
  for (int i = 0; i < 50 && rig.server.connection_count() > 0; ++i) {
    (void)rig.server.poll_once(0);
  }
  EXPECT_EQ(rig.server.connection_count(), 0u);
}

TEST(RpcServer, DisconnectForgetsOwnedTicketsAndCancelsQueuedOnes) {
  ManualRig rig;
  RawClient client(rig.server.socket_path());
  (void)submit_one(client, rig.server, "alpha", 1, 600);
  (void)submit_one(client, rig.server, "alpha", 1, 601);
  client.disconnect();
  for (int i = 0; i < 200 && rig.server.connection_count() > 0; ++i) {
    (void)rig.server.poll_once(1);
  }
  EXPECT_EQ(rig.server.connection_count(), 0u);

  // Drain whatever survived; the forgotten queued jobs must settle as
  // cancelled, never completed, and no record may leak.
  while (rig.service.run_next()) {
  }
  const service::ServiceStats stats = rig.service.stats();
  EXPECT_EQ(stats.accepted_jobs, 2u);
  EXPECT_EQ(stats.completed_jobs, 0u);
  EXPECT_EQ(stats.cancelled_jobs, 2u);
  EXPECT_EQ(stats.queued_jobs, 0u);
  EXPECT_EQ(stats.inflight_jobs, 0u);
}

TEST(RpcServer, HalfClosedClientStillGetsPipelinedReplies) {
  ManualRig rig;
  RawClient client(rig.server.socket_path());
  const service::JobId id = submit_one(client, rig.server, "alpha", 1, 700);

  // Pipeline a wait-fetch and a stats request, then half-close: the peer is
  // done sending but still reads. Both replies must arrive, in order, even
  // though the server's read side saw EOF before either was produced.
  client.send(MsgType::kJobResult, encode_job_result({id, /*wait=*/true}));
  client.send(MsgType::kStats, encode_stats_request());
  client.half_close();

  bool ran = false;
  const Frame first = client.await_reply(rig.server, [&] {
    if (!ran) ran = rig.service.run_next();
  });
  ASSERT_EQ(first.type, wire_code(MsgType::kJobResultReply));
  EXPECT_EQ(decode_job_result_reply(first.payload).state,
            service::JobState::kDone);
  const Frame second = client.await_reply(rig.server);
  EXPECT_EQ(second.type, wire_code(MsgType::kStatsReply));

  // Everything delivered: now the server closes its side.
  EXPECT_TRUE(client.eof_seen(rig.server));
  EXPECT_EQ(rig.server.connection_count(), 0u);
}

TEST(RpcServer, HungUpParkedConnectionDoesNotSpin) {
  ManualRig rig;
  RawClient client(rig.server.socket_path());
  // Enough scenarios that the job runs long enough for a spinning pump to
  // show; the assertions count calls and read no clock.
  const service::JobId id = submit_one(client, rig.server, "alpha", 64, 750);

  // Park a wait-fetch, then close the client fully: the connection is now
  // parked and read-closed, and its peer has hung up.
  client.send(MsgType::kJobResult, encode_job_result({id, /*wait=*/true}));
  client.disconnect();
  for (int i = 0; i < 200 && rig.server.poll_once(0); ++i) {
  }
  ASSERT_EQ(rig.server.connection_count(), 1u);

  // Nothing can move until the job completes, so every blocking pump call
  // before that must block rather than come back empty-handed.
  std::atomic<bool> started{false};
  int idle_returns = 0;
  std::thread pump([&] {
    started.store(true);
    while (!rig.server.poll_once(-1)) ++idle_returns;
  });
  while (!started.load()) std::this_thread::yield();
  EXPECT_TRUE(rig.service.run_next());
  pump.join();

  EXPECT_EQ(idle_returns, 0);
  EXPECT_EQ(rig.server.connection_count(), 0u);  // reply undeliverable: reaped
}

TEST(RpcServer, ShutdownPipelinedBeforeImmediateCloseIsNotLost) {
  ManualRig rig;
  RawClient client(rig.server.socket_path());
  client.send(MsgType::kShutdown, encode_shutdown(
      {service::SchedulerService::StopMode::kDrain}));
  client.disconnect();  // full close, no grace — the frame must still land
  for (int i = 0; i < 200 && !rig.server.shutdown_requested(); ++i) {
    (void)rig.server.poll_once(1);
  }
  EXPECT_TRUE(rig.server.shutdown_requested());
  EXPECT_EQ(rig.server.shutdown_mode(),
            service::SchedulerService::StopMode::kDrain);
}

TEST(RpcServer, AbsurdScenarioCountDrawsTypedErrorAndServerSurvives) {
  ManualRig rig;
  RawClient client(rig.server.socket_path());
  // Correctly framed, structurally bogus: the claimed count must be caught
  // before reserve() can throw something the daemon does not catch.
  client.send(MsgType::kSubmitBatch,
              "nowsched-submit v1\ntenant=t\nscenarios=18446744073709551615\n");
  const Frame frame = client.await_reply(rig.server);
  ASSERT_EQ(frame.type, wire_code(MsgType::kError));
  EXPECT_FALSE(decode_error(frame.payload).message.empty());
  // The daemon survived and the connection still serves real work.
  const service::JobId id = submit_one(client, rig.server, "alpha", 1, 800);
  EXPECT_GT(id, 0u);
}

TEST(RpcServer, ShutdownRpcRepliesThenStopsTheLoop) {
  ManualRig rig;
  RawClient client(rig.server.socket_path());
  client.send(MsgType::kShutdown, encode_shutdown(
      {service::SchedulerService::StopMode::kCancelQueued}));
  const Frame frame = client.await_reply(rig.server);
  EXPECT_EQ(frame.type, wire_code(MsgType::kShutdownReply));
  EXPECT_TRUE(rig.server.shutdown_requested());
  EXPECT_EQ(rig.server.shutdown_mode(),
            service::SchedulerService::StopMode::kCancelQueued);
}

// ---------------------------------------------------------------------------
// Resource bounds: a client cannot make the daemon throw or grow without
// bound by exhausting descriptors or by never reading its replies.
// ---------------------------------------------------------------------------

/// Lowers this process's soft RLIMIT_NOFILE to a few slots above the
/// descriptors in use, and on exhaust() fills every free slot with
/// /dev/null, so the server's next accept(2) fails with EMFILE. Closes the
/// fillers and restores the limit on scope exit.
class DescriptorExhaustion {
 public:
  DescriptorExhaustion() {
    EXPECT_EQ(::getrlimit(RLIMIT_NOFILE, &saved_), 0);
    const int lowest_free = ::open("/dev/null", O_RDONLY);
    EXPECT_GE(lowest_free, 0);
    ::close(lowest_free);
    rlimit lowered = saved_;
    lowered.rlim_cur = static_cast<rlim_t>(lowest_free) + 8;
    EXPECT_EQ(::setrlimit(RLIMIT_NOFILE, &lowered), 0);
  }
  ~DescriptorExhaustion() {
    fillers_.clear();
    ::setrlimit(RLIMIT_NOFILE, &saved_);
  }
  DescriptorExhaustion(const DescriptorExhaustion&) = delete;
  DescriptorExhaustion& operator=(const DescriptorExhaustion&) = delete;

  void exhaust() {
    for (;;) {
      util::Fd fd(::open("/dev/null", O_RDONLY));
      if (!fd.valid()) break;
      fillers_.push_back(std::move(fd));
    }
    EXPECT_EQ(errno, EMFILE);
  }
  void release() { fillers_.clear(); }

 private:
  rlimit saved_{};
  std::vector<util::Fd> fillers_;
};

/// One Stats round trip: proves the connection is accepted and served.
void expect_stats_reply(RawClient& client, Server& server) {
  client.send(MsgType::kStats, encode_stats_request());
  const Frame frame = client.await_reply(server);
  EXPECT_EQ(frame.type, wire_code(MsgType::kStatsReply));
}

TEST(RpcServer, AcceptFailureKeepsServing) {
  ManualRig rig;
  RawClient served(rig.server.socket_path());
  expect_stats_reply(served, rig.server);
  {
    DescriptorExhaustion limit;  // destroyed before the rig needs fds again
    RawClient pending(rig.server.socket_path());  // waits in the backlog
    limit.exhaust();
    // Every accept attempt now fails with EMFILE: not a server error.
    for (int i = 0; i < 20; ++i) (void)rig.server.poll_once(0);
    EXPECT_EQ(rig.server.connection_count(), 1u);
    expect_stats_reply(served, rig.server);

    // With descriptors back, the waiting client is accepted and served.
    limit.release();
    expect_stats_reply(pending, rig.server);
    EXPECT_EQ(rig.server.connection_count(), 2u);
  }
}

TEST(RpcServer, PendingClientIsAcceptedOnceAConnectionCloses) {
  ManualRig rig;
  RawClient leaving(rig.server.socket_path());
  expect_stats_reply(leaving, rig.server);
  {
    DescriptorExhaustion limit;
    RawClient pending(rig.server.socket_path());
    limit.exhaust();
    for (int i = 0; i < 20; ++i) (void)rig.server.poll_once(0);
    EXPECT_EQ(rig.server.connection_count(), 1u);

    // Reaping the closed connection frees a descriptor for the waiting one.
    leaving.disconnect();
    expect_stats_reply(pending, rig.server);
    EXPECT_EQ(rig.server.connection_count(), 1u);
  }
}

// Both floods below would run to kFloodCeiling if the server kept reading;
// a bounded server stops reading after the socket buffers and one reply
// backlog fill, far below kReadBound.
constexpr std::size_t kFloodCeiling = 2u << 20;
constexpr std::size_t kReadBound = 1u << 20;
constexpr int kClientSendBuffer = 64 * 1024;

TEST(RpcServer, ParkedConnectionIsNotReadUntilItsFetchResolves) {
  ManualRig rig;
  RawClient client(rig.server.socket_path());
  client.limit_send_buffer(kClientSendBuffer);
  const service::JobId id = submit_one(client, rig.server, "alpha", 1, 900);

  client.send(MsgType::kJobResult, encode_job_result({id, /*wait=*/true}));
  const std::string stats = encode_frame(wire_code(MsgType::kStats), encode_stats_request());
  const std::size_t written = client.flood(rig.server, stats, kFloodCeiling);
  ASSERT_LT(written, kReadBound);

  // Once the fetch resolves, every request behind it is answered in order.
  bool ran = false;
  const Frame first = client.await_reply(rig.server, [&] {
    if (!ran) ran = rig.service.run_next();
  });
  ASSERT_EQ(first.type, wire_code(MsgType::kJobResultReply));
  for (std::size_t i = 0; i < written / stats.size(); ++i) {
    ASSERT_EQ(client.await_reply(rig.server).type, wire_code(MsgType::kStatsReply))
        << "reply " << i;
  }
}

TEST(RpcServer, ClientThatNeverReadsRepliesStopsBeingRead) {
  ManualRig rig;
  RawClient client(rig.server.socket_path());
  client.limit_send_buffer(kClientSendBuffer);
  const std::string stats = encode_frame(wire_code(MsgType::kStats), encode_stats_request());
  const std::size_t written = client.flood(rig.server, stats, kFloodCeiling);
  ASSERT_LT(written, kReadBound);

  // Reading the replies lets the server take the rest: none is lost.
  for (std::size_t i = 0; i < written / stats.size(); ++i) {
    ASSERT_EQ(client.await_reply(rig.server).type, wire_code(MsgType::kStatsReply))
        << "reply " << i;
  }
  EXPECT_EQ(rig.server.connection_count(), 1u);
}

// ---------------------------------------------------------------------------
// Threaded coverage: serve() + blocking rpc::Client.
// ---------------------------------------------------------------------------

struct ThreadedRig {
  testing::TempDir dir{"rpc-served"};
  service::ServiceOptions options;
  ThreadedRig() { options.workers = 2; }
};

TEST(RpcServer, ServedClientsSubmitAndFetchConcurrently) {
  ThreadedRig rig;
  service::SchedulerService service(rig.options);
  Server server(service, {(rig.dir.path() / "daemon.sock").string(), 8});
  std::thread serve_thread([&] { server.serve(); });

  constexpr std::size_t kClients = 3;
  constexpr std::size_t kJobs = 4;
  std::vector<std::size_t> done(kClients, 0);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client(server.socket_path());
      std::vector<service::JobId> ids;
      for (std::size_t j = 0; j < kJobs; ++j) {
        const SubmitReply reply = client.submit_batch(
            "tenant-" + std::to_string(c), quick_batch(2, 1000 * c + j));
        if (reply.status != service::SubmitStatus::kAccepted) return;
        ids.push_back(reply.job_id);
      }
      for (const service::JobId id : ids) {
        const JobResultReply result = client.fetch_result(id, /*wait=*/true);
        if (result.state != service::JobState::kDone) return;
        if (result.per_scenario.size() != 2) return;
        if (client.job_state(id) != service::JobState::kUnknown) return;
        ++done[c];
      }
    });
  }
  for (std::thread& t : threads) t.join();

  Client control(server.socket_path());
  const service::ServiceStats stats = control.stats();
  control.shutdown_server(service::SchedulerService::StopMode::kDrain);
  serve_thread.join();

  for (std::size_t c = 0; c < kClients; ++c) EXPECT_EQ(done[c], kJobs) << c;
  EXPECT_EQ(stats.completed_jobs, kClients * kJobs);
  EXPECT_EQ(stats.submitted_jobs, stats.accepted_jobs + stats.rejected_jobs);
}

TEST(RpcServer, ClientSurfacesServerErrorAsRpcError) {
  ThreadedRig rig;
  service::SchedulerService service(rig.options);
  Server server(service, {(rig.dir.path() / "daemon.sock").string(), 4});
  std::thread serve_thread([&] { server.serve(); });

  Client client(server.socket_path());
  // Empty tenant id is rejected at decode time -> Error frame -> RpcError.
  EXPECT_THROW((void)client.submit_batch("", quick_batch(1, 1)), RpcError);
  // The connection survived the typed error.
  const SubmitReply reply = client.submit_batch("alpha", quick_batch(1, 2));
  EXPECT_EQ(reply.status, service::SubmitStatus::kAccepted);
  const JobResultReply result = client.fetch_result(reply.job_id);
  EXPECT_EQ(result.state, service::JobState::kDone);

  server.stop();
  serve_thread.join();
}

TEST(RpcServer, StopBeforeServeIsNotLost) {
  // A stop() that lands before serve() is entered must still end serve(),
  // with no client around to wake the loop. The timed wait only bounds a
  // regression (which would block in poll forever); the pass condition is
  // that serve() returned before the rescue stop().
  ThreadedRig rig;
  service::SchedulerService service(rig.options);
  Server server(service, {(rig.dir.path() / "daemon.sock").string(), 4});
  server.stop();
  std::promise<void> returned;
  std::future<void> done = returned.get_future();
  std::thread serve_thread([&] {
    server.serve();
    returned.set_value();
  });
  const bool prompt =
      done.wait_for(std::chrono::seconds(60)) == std::future_status::ready;
  if (!prompt) server.stop();
  serve_thread.join();
  EXPECT_TRUE(prompt) << "stop() issued before serve() was lost";
  EXPECT_FALSE(server.shutdown_requested());
}

TEST(RpcServer, BindRefusesWhenAnotherDaemonIsLive) {
  ThreadedRig rig;
  service::SchedulerService service(rig.options);
  const std::string path = (rig.dir.path() / "daemon.sock").string();
  Server first(service, {path, 4});
  EXPECT_THROW(Server(service, {path, 4}), std::system_error);
}

}  // namespace
}  // namespace nowsched::rpc
