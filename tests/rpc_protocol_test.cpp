// nowsched-rpc v1 message vocabulary: every payload codec must round-trip
// exactly, every frozen wire code must stay frozen (renumbering an enum is a
// protocol break even if every test still "passes"), and malformed payloads
// must throw std::invalid_argument — the typed error the server converts
// into an Error frame.
#include "rpc/protocol.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "service/job.h"
#include "service/scheduler_service.h"
#include "service/stats_format.h"
#include "sim/batch_runner.h"
#include "sim/scenario_gen.h"

namespace nowsched::rpc {
namespace {

sim::ScenarioSpec sample_spec(std::uint64_t seed) {
  sim::ScenarioSpec spec;
  spec.policy = sim::PolicyKind::kDpOptimal;
  spec.owner = sim::OwnerKind::kPareto;
  spec.owner_a = 1250.5;
  spec.owner_b = 1.75;
  spec.params = Params{32};
  spec.lifespan = 2048;
  spec.max_interrupts = 3;
  spec.seed = seed;
  spec.group_seed = seed * 3 + 1;
  return spec;
}

sim::SessionMetrics sample_metrics(std::int64_t base) {
  sim::SessionMetrics m;
  m.banked_work = base + 1;
  m.task_work = base + 2;
  m.comm_overhead = base + 3;
  m.lost_work = base + 4;
  m.salvaged_work = base + 5;
  m.fragmentation = base + 6;
  m.lifespan_used = base + 7;
  m.interrupts = base % 7;
  m.episodes = base % 5 + 1;
  m.periods_completed = base + 8;
  m.periods_killed = base % 3;
  m.tasks_completed = base + 9;
  return m;
}

void expect_metrics_eq(const sim::SessionMetrics& a, const sim::SessionMetrics& b) {
  EXPECT_EQ(a.banked_work, b.banked_work);
  EXPECT_EQ(a.task_work, b.task_work);
  EXPECT_EQ(a.comm_overhead, b.comm_overhead);
  EXPECT_EQ(a.lost_work, b.lost_work);
  EXPECT_EQ(a.salvaged_work, b.salvaged_work);
  EXPECT_EQ(a.fragmentation, b.fragmentation);
  EXPECT_EQ(a.lifespan_used, b.lifespan_used);
  EXPECT_EQ(a.interrupts, b.interrupts);
  EXPECT_EQ(a.episodes, b.episodes);
  EXPECT_EQ(a.periods_completed, b.periods_completed);
  EXPECT_EQ(a.periods_killed, b.periods_killed);
  EXPECT_EQ(a.tasks_completed, b.tasks_completed);
}

// --------------------------------------------------------------------------
// Frozen wire codes. These literals ARE the protocol; a failure here means
// an enum was renumbered and every deployed peer would misparse.
// --------------------------------------------------------------------------

TEST(RpcProtocol, MsgTypeWireCodesAreFrozen) {
  EXPECT_EQ(wire_code(MsgType::kSubmitBatch), 1);
  EXPECT_EQ(wire_code(MsgType::kSubmitReply), 2);
  EXPECT_EQ(wire_code(MsgType::kJobStatus), 3);
  EXPECT_EQ(wire_code(MsgType::kJobStatusReply), 4);
  EXPECT_EQ(wire_code(MsgType::kJobResult), 5);
  EXPECT_EQ(wire_code(MsgType::kJobResultReply), 6);
  EXPECT_EQ(wire_code(MsgType::kStats), 7);
  EXPECT_EQ(wire_code(MsgType::kStatsReply), 8);
  EXPECT_EQ(wire_code(MsgType::kCancelJob), 9);
  EXPECT_EQ(wire_code(MsgType::kCancelReply), 10);
  EXPECT_EQ(wire_code(MsgType::kShutdown), 11);
  EXPECT_EQ(wire_code(MsgType::kShutdownReply), 12);
  EXPECT_EQ(wire_code(MsgType::kError), 13);
  for (std::uint8_t code = 1; code <= 13; ++code) {
    const auto type = msg_type_from_wire(code);
    ASSERT_TRUE(type.has_value()) << static_cast<int>(code);
    EXPECT_EQ(wire_code(*type), code);
    EXPECT_NE(std::string(to_string(*type)), "");
  }
  EXPECT_FALSE(msg_type_from_wire(0).has_value());
  EXPECT_FALSE(msg_type_from_wire(14).has_value());
  EXPECT_FALSE(msg_type_from_wire(255).has_value());
}

TEST(RpcProtocol, SubmitStatusWireCodesAreFrozenAndRoundTrip) {
  using service::SubmitStatus;
  EXPECT_EQ(service::wire_code(SubmitStatus::kAccepted), 0);
  EXPECT_EQ(service::wire_code(SubmitStatus::kQueueFullTenant), 1);
  EXPECT_EQ(service::wire_code(SubmitStatus::kQueueFullGlobal), 2);
  EXPECT_EQ(service::wire_code(SubmitStatus::kThrottled), 3);
  EXPECT_EQ(service::wire_code(SubmitStatus::kInvalidScenario), 4);
  EXPECT_EQ(service::wire_code(SubmitStatus::kShuttingDown), 5);
  for (int code = 0; code <= 5; ++code) {
    const auto status = service::submit_status_from_wire(code);
    ASSERT_TRUE(status.has_value()) << code;
    EXPECT_EQ(service::wire_code(*status), code);
  }
  EXPECT_FALSE(service::submit_status_from_wire(-1).has_value());
  EXPECT_FALSE(service::submit_status_from_wire(6).has_value());
}

TEST(RpcProtocol, JobStateWireCodesAreFrozenAndRoundTrip) {
  using service::JobState;
  EXPECT_EQ(service::wire_code(JobState::kUnknown), 0);
  EXPECT_EQ(service::wire_code(JobState::kQueued), 1);
  EXPECT_EQ(service::wire_code(JobState::kRunning), 2);
  EXPECT_EQ(service::wire_code(JobState::kDone), 3);
  EXPECT_EQ(service::wire_code(JobState::kFailed), 4);
  EXPECT_EQ(service::wire_code(JobState::kCancelled), 5);
  for (int code = 0; code <= 5; ++code) {
    const auto state = service::job_state_from_wire(code);
    ASSERT_TRUE(state.has_value()) << code;
    EXPECT_EQ(service::wire_code(*state), code);
  }
  EXPECT_FALSE(service::job_state_from_wire(-1).has_value());
  EXPECT_FALSE(service::job_state_from_wire(6).has_value());
}

TEST(RpcProtocol, SubmitStatusAndJobStateNamesAreDistinct) {
  // The daemon and the service example print these names for the codes a
  // reply carries; two codes sharing a name would read as one outcome.
  std::set<std::string> statuses;
  for (int code = 0; code <= 5; ++code) {
    const std::string name = service::to_string(*service::submit_status_from_wire(code));
    EXPECT_NE(name, "") << code;
    EXPECT_TRUE(statuses.insert(name).second) << name;
  }
  std::set<std::string> states;
  for (int code = 0; code <= 5; ++code) {
    const std::string name = service::to_string(*service::job_state_from_wire(code));
    EXPECT_NE(name, "") << code;
    EXPECT_TRUE(states.insert(name).second) << name;
  }
}

// --------------------------------------------------------------------------
// Payload codec round-trips.
// --------------------------------------------------------------------------

// --------------------------------------------------------------------------
// Golden bytes: one fixed value per MsgType payload, pinned literally. The
// round-trip tests above cannot see a symmetric change to both codec sides;
// these can.
// --------------------------------------------------------------------------

TEST(RpcProtocol, EveryRequestAndReplyPayloadIsPinnedByteForByte) {
  sim::ScenarioSpec spec;
  spec.policy = sim::PolicyKind::kEqualized;
  spec.owner = sim::OwnerKind::kPoisson;
  spec.owner_a = 500.0;
  spec.params = Params{8};
  spec.lifespan = 256;
  spec.max_interrupts = 2;
  spec.seed = 7;
  SubmitBatchRequest submit;
  submit.tenant = "alpha";
  submit.specs = {spec};
  EXPECT_EQ(encode_submit_batch(submit), R"(nowsched-submit v1
tenant=alpha
scenarios=1

nowsched-scenario v1
policy=equalized
owner=poisson
owner_a=500
owner_b=1.5
owner_c=0
owner_d=0
c=8
lifespan=256
max_interrupts=2
seed=7
group_seed=0
)");

  SubmitReply submit_reply;
  submit_reply.status = service::SubmitStatus::kThrottled;
  submit_reply.reason = "over rate";
  EXPECT_EQ(encode_submit_reply(submit_reply),
            "nowsched-submit-reply v1\nstatus=3\nreason=over rate\njob_id=0\n");

  EXPECT_EQ(encode_job_status(JobStatusRequest{17}),
            "nowsched-job-status v1\njob_id=17\n");
  EXPECT_EQ(encode_job_status_reply(JobStatusReply{service::JobState::kRunning}),
            "nowsched-job-status-reply v1\nstate=2\n");

  EXPECT_EQ(encode_job_result(JobResultRequest{17, false}),
            "nowsched-job-result v1\njob_id=17\nwait=0\n");

  JobResultReply done;
  done.state = service::JobState::kDone;
  done.tenant = "alpha";
  done.job_id = 17;
  done.completion_index = 3;
  done.latency_ms = 0.1 + 0.2;
  done.cache = {11, 3, 2, 1, 4, 5, 1048576};
  sim::SessionMetrics m;
  m.banked_work = 100;
  m.task_work = 90;
  m.comm_overhead = 16;
  m.lost_work = 40;
  m.fragmentation = 10;
  m.lifespan_used = 256;
  m.interrupts = 2;
  m.episodes = 3;
  m.periods_completed = 5;
  m.periods_killed = 2;
  m.tasks_completed = 9;
  done.per_scenario = {m, m};
  done.aggregate = m;
  done.aggregate.banked_work = 200;
  EXPECT_EQ(encode_job_result_reply(done), R"(nowsched-job-result-reply v1
state=3
tenant=alpha
job_id=17
completion_index=3
latency_ms=0.30000000000000004
cache_hits=11
cache_misses=3
cache_store_hits=2
cache_spills=1
cache_evictions=4
cache_entries=5
cache_resident_bytes=1048576
scenarios=2
metrics=100 90 16 40 0 10 256 2 3 5 2 9
metrics=100 90 16 40 0 10 256 2 3 5 2 9
aggregate=200 90 16 40 0 10 256 2 3 5 2 9
)");
  JobResultReply failed;
  failed.state = service::JobState::kFailed;
  failed.error = "boom";
  EXPECT_EQ(encode_job_result_reply(failed),
            "nowsched-job-result-reply v1\nstate=4\nerror=boom\n");

  EXPECT_EQ(encode_stats_request(), "");
  service::ServiceStats stats;
  stats.queue_policy = "fifo";
  EXPECT_EQ(service::to_stats_string(stats), R"(nowsched-stats v1
queue_policy=fifo
workers=0
queued_jobs=0
inflight_jobs=0
submitted_jobs=0
accepted_jobs=0
rejected_jobs=0
completed_jobs=0
failed_jobs=0
cancelled_jobs=0
completed_scenarios=0
latency_count=0
latency_p50_ms=0
latency_p90_ms=0
latency_p99_ms=0
latency_max_ms=0
tenants=0
)");

  EXPECT_EQ(encode_cancel(CancelRequest{17}), "nowsched-cancel v1\njob_id=17\n");
  EXPECT_EQ(encode_cancel_reply(CancelReply{true}),
            "nowsched-cancel-reply v1\ncancelled=1\n");
  EXPECT_EQ(encode_shutdown(
                ShutdownRequest{service::SchedulerService::StopMode::kCancelQueued}),
            "nowsched-shutdown v1\nmode=cancel\n");
  EXPECT_EQ(encode_shutdown_reply(), "nowsched-shutdown-reply v1\n");
  EXPECT_EQ(encode_error(ErrorReply{"bad payload"}),
            "nowsched-error v1\nmessage=bad payload\n");
}

TEST(RpcProtocol, SubmitBatchRoundTripsScenariosBitIdentically) {
  SubmitBatchRequest req;
  req.tenant = "tenant-alpha";
  for (std::uint64_t s = 1; s <= 4; ++s) req.specs.push_back(sample_spec(s));

  const SubmitBatchRequest got = decode_submit_batch(encode_submit_batch(req));
  EXPECT_EQ(got.tenant, req.tenant);
  ASSERT_EQ(got.specs.size(), req.specs.size());
  for (std::size_t i = 0; i < req.specs.size(); ++i) {
    // The wire embeds unmodified `nowsched-scenario v1` records, so the
    // replay serialization must match byte for byte.
    EXPECT_EQ(sim::to_replay_string(got.specs[i]),
              sim::to_replay_string(req.specs[i]))
        << i;
  }
}

TEST(RpcProtocol, SubmitBatchWithZeroScenariosRoundTrips) {
  SubmitBatchRequest req;
  req.tenant = "t";
  const SubmitBatchRequest got = decode_submit_batch(encode_submit_batch(req));
  EXPECT_EQ(got.tenant, "t");
  EXPECT_TRUE(got.specs.empty());
}

TEST(RpcProtocol, SubmitReplyRoundTripsEveryStatus) {
  for (int code = 0; code <= 5; ++code) {
    SubmitReply reply;
    reply.status = *service::submit_status_from_wire(code);
    reply.reason = code == 0 ? "" : "queue depth reached";
    reply.job_id = code == 0 ? 42u : 0u;
    const SubmitReply got = decode_submit_reply(encode_submit_reply(reply));
    EXPECT_EQ(got.status, reply.status) << code;
    EXPECT_EQ(got.reason, reply.reason) << code;
    EXPECT_EQ(got.job_id, reply.job_id) << code;
  }
}

TEST(RpcProtocol, JobStatusRoundTrips) {
  JobStatusRequest req;
  req.job_id = 7;
  EXPECT_EQ(decode_job_status(encode_job_status(req)).job_id, 7u);
  for (int code = 0; code <= 5; ++code) {
    JobStatusReply reply;
    reply.state = *service::job_state_from_wire(code);
    EXPECT_EQ(decode_job_status_reply(encode_job_status_reply(reply)).state,
              reply.state);
  }
}

TEST(RpcProtocol, JobResultRequestRoundTripsWaitFlag) {
  for (const bool wait : {false, true}) {
    JobResultRequest req;
    req.job_id = 13;
    req.wait = wait;
    const JobResultRequest got = decode_job_result(encode_job_result(req));
    EXPECT_EQ(got.job_id, 13u);
    EXPECT_EQ(got.wait, wait);
  }
}

TEST(RpcProtocol, DoneResultReplyRoundTripsFieldForField) {
  JobResultReply reply;
  reply.state = service::JobState::kDone;
  reply.tenant = "tenant-beta";
  reply.job_id = 99;
  reply.completion_index = 12;
  reply.latency_ms = 0.1 + 0.2;  // a value with no short decimal form
  reply.per_scenario = {sample_metrics(10), sample_metrics(300),
                        sample_metrics(7000)};
  reply.aggregate = sample_metrics(123456789);
  reply.cache.hits = 11;
  reply.cache.misses = 3;
  reply.cache.store_hits = 2;
  reply.cache.spills = 1;
  reply.cache.evictions = 4;
  reply.cache.entries = 5;
  reply.cache.resident_bytes = 1 << 20;

  const JobResultReply got =
      decode_job_result_reply(encode_job_result_reply(reply));
  EXPECT_EQ(got.state, service::JobState::kDone);
  EXPECT_TRUE(got.error.empty());
  EXPECT_EQ(got.tenant, reply.tenant);
  EXPECT_EQ(got.job_id, reply.job_id);
  EXPECT_EQ(got.completion_index, reply.completion_index);
  EXPECT_EQ(got.latency_ms, reply.latency_ms);  // %.17g: bit-exact
  ASSERT_EQ(got.per_scenario.size(), reply.per_scenario.size());
  for (std::size_t i = 0; i < reply.per_scenario.size(); ++i) {
    expect_metrics_eq(got.per_scenario[i], reply.per_scenario[i]);
  }
  expect_metrics_eq(got.aggregate, reply.aggregate);
  EXPECT_EQ(got.cache.hits, reply.cache.hits);
  EXPECT_EQ(got.cache.misses, reply.cache.misses);
  EXPECT_EQ(got.cache.store_hits, reply.cache.store_hits);
  EXPECT_EQ(got.cache.spills, reply.cache.spills);
  EXPECT_EQ(got.cache.evictions, reply.cache.evictions);
  EXPECT_EQ(got.cache.entries, reply.cache.entries);
  EXPECT_EQ(got.cache.resident_bytes, reply.cache.resident_bytes);
}

TEST(RpcProtocol, NonDoneResultRepliesCarryStateAndError) {
  for (const service::JobState state :
       {service::JobState::kUnknown, service::JobState::kQueued,
        service::JobState::kRunning, service::JobState::kFailed,
        service::JobState::kCancelled}) {
    JobResultReply reply;
    reply.state = state;
    if (state == service::JobState::kFailed ||
        state == service::JobState::kCancelled) {
      reply.error = "diagnostic text";
    }
    const JobResultReply got =
        decode_job_result_reply(encode_job_result_reply(reply));
    EXPECT_EQ(got.state, state);
    EXPECT_EQ(got.error, reply.error);
    EXPECT_TRUE(got.per_scenario.empty());
  }
}

TEST(RpcProtocol, StatsCancelShutdownErrorRoundTrip) {
  EXPECT_TRUE(encode_stats_request().empty());
  EXPECT_NO_THROW(decode_stats_request(""));
  EXPECT_THROW(decode_stats_request("x"), std::invalid_argument);

  CancelRequest cancel;
  cancel.job_id = 5;
  EXPECT_EQ(decode_cancel(encode_cancel(cancel)).job_id, 5u);
  for (const bool cancelled : {false, true}) {
    CancelReply reply;
    reply.cancelled = cancelled;
    EXPECT_EQ(decode_cancel_reply(encode_cancel_reply(reply)).cancelled,
              cancelled);
  }

  for (const auto mode : {service::SchedulerService::StopMode::kDrain,
                          service::SchedulerService::StopMode::kCancelQueued}) {
    ShutdownRequest req;
    req.mode = mode;
    EXPECT_EQ(decode_shutdown(encode_shutdown(req)).mode, mode);
  }
  EXPECT_NO_THROW(decode_shutdown_reply(encode_shutdown_reply()));

  ErrorReply error;
  error.message = "nowsched-rpc payload: something went wrong";
  EXPECT_EQ(decode_error(encode_error(error)).message, error.message);
}

TEST(RpcProtocol, DiagnosticTextWithNewlinesIsFlattenedNotCorrupting) {
  // reason=/error=/message= are single-line fields; embedded newlines would
  // desynchronize the line-oriented payload. The encoder flattens them.
  SubmitReply reply;
  reply.status = service::SubmitStatus::kInvalidScenario;
  reply.reason = "line one\nline two\r\nline three";
  const SubmitReply got = decode_submit_reply(encode_submit_reply(reply));
  EXPECT_EQ(got.status, reply.status);
  EXPECT_EQ(got.reason.find('\n'), std::string::npos);
  EXPECT_NE(got.reason.find("line one"), std::string::npos);
  EXPECT_NE(got.reason.find("line three"), std::string::npos);
}

// --------------------------------------------------------------------------
// Malformed payloads: every decoder throws std::invalid_argument, never
// crashes or mis-decodes.
// --------------------------------------------------------------------------

TEST(RpcProtocol, MalformedPayloadsThrowTypedErrors) {
  EXPECT_THROW(decode_submit_batch(""), std::invalid_argument);
  EXPECT_THROW(decode_submit_batch("garbage\n"), std::invalid_argument);
  EXPECT_THROW(decode_submit_batch("nowsched-submit v2\n"), std::invalid_argument);
  EXPECT_THROW(decode_submit_batch("nowsched-submit v1\ntenant=t\nscenarios=x\n"),
               std::invalid_argument);
  // Declared two scenarios, delivered none.
  EXPECT_THROW(
      decode_submit_batch("nowsched-submit v1\ntenant=t\nscenarios=2\n\n"),
      std::invalid_argument);

  EXPECT_THROW(decode_submit_reply("nowsched-submit-reply v1\nstatus=9\n"),
               std::invalid_argument);
  EXPECT_THROW(decode_submit_reply("nowsched-submit-reply v1\nstatus=-1\n"),
               std::invalid_argument);
  // A wire code outside int range must not narrow onto a valid code (0).
  EXPECT_THROW(decode_submit_reply(
                   "nowsched-submit-reply v1\nstatus=4294967296\nreason=\njob_id=0\n"),
               std::invalid_argument);
  // Encoders flatten '\r' in reason/error/message, so a payload carrying one
  // was not produced by an encoder; decoding it would not round-trip.
  EXPECT_THROW(
      decode_submit_reply("nowsched-submit-reply v1\nstatus=4\nreason=x\r\njob_id=0\n"),
      std::invalid_argument);
  EXPECT_THROW(decode_error("nowsched-error v1\nmessage=a\rb\n"), std::invalid_argument);
  EXPECT_THROW(decode_job_status("nowsched-job-status v1\njob_id=nan\n"),
               std::invalid_argument);
  EXPECT_THROW(decode_job_status_reply("nowsched-job-status-reply v1\nstate=6\n"),
               std::invalid_argument);
  EXPECT_THROW(decode_job_result("nowsched-job-result v1\njob_id=1\nwait=2\n"),
               std::invalid_argument);
  EXPECT_THROW(decode_cancel("nowsched-cancel v1\n"), std::invalid_argument);
  EXPECT_THROW(decode_shutdown("nowsched-shutdown v1\nmode=explode\n"),
               std::invalid_argument);
  EXPECT_THROW(decode_error("wrong-header v1\nmessage=x\n"),
               std::invalid_argument);

  // Trailing junk after a complete record is also an error (strict EOF).
  const std::string ok = encode_cancel(CancelRequest{5});
  EXPECT_THROW(decode_cancel(ok + "extra=1\n"), std::invalid_argument);
}

TEST(RpcProtocol, AbsurdCountsAreRejectedBeforeAllocation) {
  // A correctly framed payload claiming 2^64-1 records must draw the typed
  // error, not a std::length_error/bad_alloc out of vector::reserve — those
  // would escape the server's invalid_argument catch and kill the daemon.
  EXPECT_THROW(decode_submit_batch("nowsched-submit v1\ntenant=t\n"
                                   "scenarios=18446744073709551615\n"),
               std::invalid_argument);

  // Client side has the same exposure through the result-reply decoder.
  JobResultReply reply;
  reply.state = service::JobState::kDone;
  reply.tenant = "t";
  reply.job_id = 1;
  reply.per_scenario = {sample_metrics(1)};
  std::string payload = encode_job_result_reply(reply);
  const std::size_t pos = payload.find("scenarios=1\n");
  ASSERT_NE(pos, std::string::npos);
  payload.replace(pos, 12, "scenarios=18446744073709551615\n");
  EXPECT_THROW(decode_job_result_reply(payload), std::invalid_argument);
}

TEST(RpcProtocol, TenantWithNewlineIsRejectedAtEncode) {
  // The tenant id is an identifier, not free text: flattening would bill a
  // different quota bucket, and passing it raw would inject protocol lines
  // into the record. Encode refuses instead.
  SubmitBatchRequest req;
  req.tenant = "alpha\nscenarios=0";
  EXPECT_THROW((void)encode_submit_batch(req), std::invalid_argument);
  req.tenant = "alpha\rbeta";
  EXPECT_THROW((void)encode_submit_batch(req), std::invalid_argument);
  // Decode rejects a smuggled carriage return too ('\n' cannot survive the
  // line split, so '\r' is the only one that needs an explicit check).
  EXPECT_THROW(
      decode_submit_batch("nowsched-submit v1\ntenant=a\rb\nscenarios=0\n"),
      std::invalid_argument);
}

TEST(RpcProtocol, ResultReplyRejectsWrongMetricsArity) {
  JobResultReply reply;
  reply.state = service::JobState::kDone;
  reply.tenant = "t";
  reply.job_id = 1;
  reply.per_scenario = {sample_metrics(1)};
  std::string payload = encode_job_result_reply(reply);
  // Truncate the (only) metrics line by one field: 12 integers is the
  // contract, 11 must throw rather than zero-fill.
  const std::size_t metrics_pos = payload.find("metrics=");
  ASSERT_NE(metrics_pos, std::string::npos);
  const std::size_t line_end = payload.find('\n', metrics_pos);
  const std::size_t last_space = payload.rfind(' ', line_end);
  ASSERT_NE(last_space, std::string::npos);
  payload.erase(last_space, line_end - last_space);
  EXPECT_THROW(decode_job_result_reply(payload), std::invalid_argument);
}

TEST(RpcProtocol, MetricsLinesSplitOnEveryBlankStreamExtractionSkips) {
  // A metrics line splits on the C-locale blanks `std::istream >>` skips
  // (space, \t, \v, \f, \r), in runs and at either end; 12 fields, no more
  // and no fewer.
  JobResultReply reply;
  reply.state = service::JobState::kDone;
  reply.tenant = "t";
  reply.job_id = 1;
  reply.per_scenario = {sample_metrics(1)};
  const std::string payload = encode_job_result_reply(reply);
  const std::string good = "metrics=2 3 4 5 6 7 8 1 2 9 1 10\n";
  const std::size_t pos = payload.find(good);
  ASSERT_NE(pos, std::string::npos) << payload;
  const auto with_line = [&](const std::string& line) {
    std::string text = payload;
    return text.replace(pos, good.size(), line + '\n');
  };
  for (const std::string line : {
           "metrics=2\t3\t4\t5\t6\t7\t8\t1\t2\t9\t1\t10",
           "metrics=2   3  4 5 6 7 8 1 2 9 1     10",
           "metrics=  2 3 4 5 6 7 8 1 2 9 1 10  ",
           "metrics=2 3 4 5 6 7 8 1 2 9 1 10\r",
           "metrics=\t \v2\f3\r4 5 6 7 8 1 2 9 1 10 \t\r",
       }) {
    const JobResultReply got = decode_job_result_reply(with_line(line));
    ASSERT_EQ(got.per_scenario.size(), 1u);
    expect_metrics_eq(got.per_scenario[0], reply.per_scenario[0]);
  }
  const std::size_t line_no =
      static_cast<std::size_t>(std::count(payload.begin(), payload.begin() + pos, '\n')) + 1;
  const auto error_of = [&](const std::string& line) -> std::string {
    try {
      decode_job_result_reply(with_line(line));
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };
  const auto message = [&](const char* what, const std::string& line) {
    return std::string("nowsched-rpc payload: ") + what + " in line " +
           std::to_string(line_no) + ": '" + line + "'";
  };
  for (const std::string line : {"metrics=2 3 4 5 6 7 8 1 2 9 1",
                                 "metrics= 2 3 4 5 6 7 8 1 2 9 1 \t\r", "metrics="}) {
    EXPECT_EQ(error_of(line), message("too few metrics fields", line));
  }
  for (const std::string line : {"metrics=2 3 4 5 6 7 8 1 2 9 1 10 11",
                                 "metrics=2 3 4 5 6 7 8 1 2 9 1 10\r11"}) {
    EXPECT_EQ(error_of(line), message("too many metrics fields", line));
  }
  // Other control characters are not blanks: they stay inside a token.
  EXPECT_EQ(error_of("metrics=2\x01 3 4 5 6 7 8 1 2 9 1 10"),
            message("malformed integer", "metrics=2\x01 3 4 5 6 7 8 1 2 9 1 10"));
}

TEST(RpcProtocol, SubmitBatchRejectsInterruptBoundOutsideIntRange) {
  // 2^32 + 1 must not narrow to p = 1 and pass validation: the service would
  // solve a different contract than the one submitted.
  SubmitBatchRequest req;
  req.tenant = "alpha";
  req.specs = {sample_spec(1)};
  std::string payload = encode_submit_batch(req);
  const std::size_t pos = payload.find("max_interrupts=3\n");
  ASSERT_NE(pos, std::string::npos);
  payload.replace(pos, 17, "max_interrupts=4294967297\n");
  EXPECT_THROW(decode_submit_batch(payload), std::invalid_argument);
}

TEST(RpcProtocol, ResultReplyRejectsNegativeUnsignedMetric) {
  // episodes is a size_t: a negative count must not wrap to 2^64 - 1.
  JobResultReply reply;
  reply.state = service::JobState::kDone;
  reply.tenant = "t";
  reply.job_id = 1;
  reply.per_scenario = {sample_metrics(1)};
  const std::string payload = encode_job_result_reply(reply);
  // sample_metrics(1): episodes (9th field) is 1 % 5 + 1 = 2.
  const std::string good = "metrics=2 3 4 5 6 7 8 1 2 9 1 10\n";
  ASSERT_NE(payload.find(good), std::string::npos) << payload;
  std::string bad = payload;
  bad.replace(bad.find(good), good.size(), "metrics=2 3 4 5 6 7 8 1 -2 9 1 10\n");
  EXPECT_THROW(decode_job_result_reply(bad), std::invalid_argument);
}

}  // namespace
}  // namespace nowsched::rpc
