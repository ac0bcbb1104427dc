// service::SchedulerService — the deterministic half of the service battery:
// manual-mode (workers == 0) scheduling-order tests per queue policy,
// admission/backpressure rejection paths, the JobTicket lifecycle
// (exactly-once fetch, cancel, forget), per-tenant cache quota isolation
// and live resize, drain/shutdown semantics, and stats conservation laws.
// Every assertion is an ordering or counting fact — never a timing one
// (tests/service_stress_test.cpp adds the multi-threaded TSan half).
#include "service/scheduler_service.h"

#include <gtest/gtest.h>

#include <climits>
#include <stdexcept>
#include <string>
#include <vector>

#include "temp_dir.h"

namespace nowsched::service {
namespace {

// A cheap, valid scenario: closed-form policy (no solve), short lifespan.
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

// A dp-optimal scenario — the kind that exercises the tenant's SolveCache.
// Distinct `lifespan` values produce distinct canonical solve keys.
sim::ScenarioSpec dp_spec(Ticks lifespan, std::uint64_t seed) {
  sim::ScenarioSpec spec = quick_spec(seed);
  spec.policy = sim::PolicyKind::kDpOptimal;
  spec.lifespan = lifespan;
  return spec;
}

std::vector<sim::ScenarioSpec> quick_batch(std::size_t n, std::uint64_t seed0) {
  std::vector<sim::ScenarioSpec> specs;
  for (std::size_t i = 0; i < n; ++i) specs.push_back(quick_spec(seed0 + i));
  return specs;
}

ServiceOptions manual_options(QueueKind queue, std::size_t quantum = 1) {
  ServiceOptions options;
  options.workers = 0;  // manual mode: run_next() drives deterministically
  options.queue = queue;
  options.drr_quantum = quantum;
  return options;
}

/// submit_job that must be admitted; returns the ticket.
JobTicket expect_accepted(SchedulerService& service, const std::string& tenant,
                          std::vector<sim::ScenarioSpec> specs) {
  TicketSubmission sub = service.submit_job(tenant, std::move(specs));
  EXPECT_TRUE(sub.accepted()) << to_string(sub.status) << ": " << sub.reason;
  return sub.ticket;
}

/// fetch_result that must consume a completed job; returns the result.
JobResult fetch_done(SchedulerService& service, JobId id) {
  FetchOutcome outcome = service.fetch_result(id);
  EXPECT_TRUE(outcome.done())
      << to_string(outcome.state) << ": " << outcome.error;
  return std::move(outcome.result);
}

// Checks the per-tenant and global conservation laws the stats snapshot
// promises. Holds at ANY quiescent point (and under load for the sums).
void expect_conservation(const ServiceStats& stats) {
  std::uint64_t sum_submitted = 0, sum_accepted = 0, sum_rejected = 0;
  for (const TenantStats& t : stats.tenants) {
    EXPECT_EQ(t.submitted_jobs, t.accepted_jobs + t.rejected_total()) << t.tenant;
    EXPECT_EQ(t.accepted_jobs, t.completed_jobs + t.failed_jobs +
                                   t.cancelled_jobs + t.queued_jobs +
                                   t.inflight_jobs)
        << t.tenant;
    sum_submitted += t.submitted_jobs;
    sum_accepted += t.accepted_jobs;
    sum_rejected += t.rejected_total();
  }
  EXPECT_EQ(stats.submitted_jobs, sum_submitted);
  EXPECT_EQ(stats.accepted_jobs, sum_accepted);
  EXPECT_EQ(stats.rejected_jobs, sum_rejected);
}

TEST(SchedulerService, ManualModeRunsASubmittedJobToCompletion) {
  SchedulerService service(manual_options(QueueKind::kFifo));
  TicketSubmission sub = service.submit_job("alice", quick_batch(3, 100));
  ASSERT_TRUE(sub.accepted());
  EXPECT_TRUE(sub.ticket.valid());
  EXPECT_EQ(sub.ticket.id, 1u);
  EXPECT_EQ(sub.ticket.tenant, "alice");
  EXPECT_EQ(service.job_state(sub.ticket.id), JobState::kQueued);

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.queued_jobs, 1u);
  ASSERT_NE(stats.tenant("alice"), nullptr);
  EXPECT_EQ(stats.tenant("alice")->pending_scenarios, 3u);

  EXPECT_TRUE(service.run_next());
  EXPECT_FALSE(service.run_next());  // queue is empty now
  EXPECT_EQ(service.job_state(sub.ticket.id), JobState::kDone);

  JobResult result = fetch_done(service, sub.ticket.id);
  EXPECT_EQ(result.tenant, "alice");
  EXPECT_EQ(result.job_id, 1u);
  EXPECT_EQ(result.completion_index, 0u);
  EXPECT_EQ(result.batch.per_scenario.size(), 3u);
  EXPECT_GT(result.batch.aggregate.lifespan_used, 0);

  stats = service.stats();
  EXPECT_EQ(stats.queued_jobs, 0u);
  EXPECT_EQ(stats.tenant("alice")->completed_jobs, 1u);
  EXPECT_EQ(stats.tenant("alice")->completed_scenarios, 3u);
  expect_conservation(stats);
}

TEST(SchedulerService, FifoCompletionOrderIsAdmissionOrder) {
  SchedulerService service(manual_options(QueueKind::kFifo));
  std::vector<JobTicket> tickets;
  tickets.push_back(expect_accepted(service, "a", quick_batch(1, 1)));
  tickets.push_back(expect_accepted(service, "b", quick_batch(1, 2)));
  tickets.push_back(expect_accepted(service, "a", quick_batch(1, 3)));
  tickets.push_back(expect_accepted(service, "c", quick_batch(1, 4)));
  service.drain();
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    EXPECT_EQ(fetch_done(service, tickets[i].id).completion_index, i) << i;
  }
}

TEST(SchedulerService, DrrInterleavesEqualCostTenantsRoundRobin) {
  // A bursts three 1-spec jobs before B's three: DRR still alternates
  // A B A B A B (quantum 1) — the service-level replay of the queue test.
  SchedulerService service(manual_options(QueueKind::kDeficitRoundRobin, 1));
  std::vector<JobTicket> a_tickets, b_tickets;
  for (int i = 0; i < 3; ++i) {
    a_tickets.push_back(expect_accepted(service, "a", quick_batch(1, 10 + i)));
  }
  for (int i = 0; i < 3; ++i) {
    b_tickets.push_back(expect_accepted(service, "b", quick_batch(1, 20 + i)));
  }
  service.drain();
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(fetch_done(service, a_tickets[i].id).completion_index, 2 * i) << i;
    EXPECT_EQ(fetch_done(service, b_tickets[i].id).completion_index, 2 * i + 1)
        << i;
  }
}

TEST(SchedulerService, DrrMetersByScenarioCostNotJobCount) {
  // A: two 3-scenario jobs; B: six 1-scenario jobs; quantum 1. Expected
  // completion order (hand-traced DRR): B B A B B B A B — indices below.
  SchedulerService service(manual_options(QueueKind::kDeficitRoundRobin, 1));
  std::vector<JobTicket> a_tickets, b_tickets;
  a_tickets.push_back(expect_accepted(service, "a", quick_batch(3, 100)));
  a_tickets.push_back(expect_accepted(service, "a", quick_batch(3, 200)));
  for (int i = 0; i < 6; ++i) {
    b_tickets.push_back(expect_accepted(service, "b", quick_batch(1, 300 + i)));
  }
  service.drain();
  EXPECT_EQ(fetch_done(service, a_tickets[0].id).completion_index, 2u);
  EXPECT_EQ(fetch_done(service, a_tickets[1].id).completion_index, 6u);
  const std::vector<std::uint64_t> b_expected = {0, 1, 3, 4, 5, 7};
  for (std::size_t i = 0; i < b_tickets.size(); ++i) {
    EXPECT_EQ(fetch_done(service, b_tickets[i].id).completion_index,
              b_expected[i])
        << i;
  }
}

TEST(SchedulerService, FifoIsTenantBlindUnderTheSameSkew) {
  // Same submission pattern as the DRR cost test, FIFO queue: A's burst
  // runs first in admission order — the unfairness DRR exists to fix.
  SchedulerService service(manual_options(QueueKind::kFifo));
  std::vector<JobTicket> tickets;
  tickets.push_back(expect_accepted(service, "a", quick_batch(3, 100)));
  tickets.push_back(expect_accepted(service, "a", quick_batch(3, 200)));
  for (int i = 0; i < 6; ++i) {
    tickets.push_back(expect_accepted(service, "b", quick_batch(1, 300 + i)));
  }
  service.drain();
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    EXPECT_EQ(fetch_done(service, tickets[i].id).completion_index, i) << i;
  }
}

TEST(SchedulerService, TenantQueueDepthLimitRejectsWithReason) {
  ServiceOptions options = manual_options(QueueKind::kFifo);
  options.max_queued_jobs_per_tenant = 2;
  SchedulerService service(options);
  (void)expect_accepted(service, "a", quick_batch(1, 1));
  (void)expect_accepted(service, "a", quick_batch(1, 2));

  TicketSubmission rejected = service.submit_job("a", quick_batch(1, 3));
  EXPECT_EQ(rejected.status, SubmitStatus::kQueueFullTenant);
  EXPECT_TRUE(is_backpressure(rejected.status));
  EXPECT_FALSE(rejected.reason.empty());
  EXPECT_FALSE(rejected.ticket.valid());
  EXPECT_EQ(rejected.ticket.id, 0u);

  // Another tenant is unaffected by a's limit.
  (void)expect_accepted(service, "b", quick_batch(1, 4));

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.tenant("a")->rejected_tenant_full, 1u);
  EXPECT_EQ(stats.tenant("a")->submitted_jobs, 3u);
  EXPECT_EQ(stats.tenant("a")->accepted_jobs, 2u);
  expect_conservation(stats);
  service.drain();
}

TEST(SchedulerService, GlobalQueueDepthLimitRejectsAnyTenant) {
  ServiceOptions options = manual_options(QueueKind::kFifo);
  options.max_queued_jobs_total = 2;
  SchedulerService service(options);
  (void)expect_accepted(service, "a", quick_batch(1, 1));
  (void)expect_accepted(service, "b", quick_batch(1, 2));

  TicketSubmission rejected = service.submit_job("c", quick_batch(1, 3));
  EXPECT_EQ(rejected.status, SubmitStatus::kQueueFullGlobal);
  EXPECT_TRUE(is_backpressure(rejected.status));
  EXPECT_EQ(service.stats().tenant("c")->rejected_global_full, 1u);
  expect_conservation(service.stats());
  service.drain();
}

TEST(SchedulerService, ScenarioBudgetThrottlesBigBatches) {
  ServiceOptions options = manual_options(QueueKind::kFifo);
  options.max_pending_scenarios_per_tenant = 4;
  SchedulerService service(options);
  (void)expect_accepted(service, "a", quick_batch(3, 1));

  TicketSubmission throttled = service.submit_job("a", quick_batch(3, 10));
  EXPECT_EQ(throttled.status, SubmitStatus::kThrottled);
  EXPECT_TRUE(is_backpressure(throttled.status));
  // A batch that still fits the budget is fine (3 pending + 1 <= 4)...
  (void)expect_accepted(service, "a", quick_batch(1, 20));
  // ...and now the budget is exactly exhausted.
  EXPECT_EQ(service.submit_job("a", quick_batch(1, 30)).status,
            SubmitStatus::kThrottled);
  EXPECT_EQ(service.stats().tenant("a")->rejected_throttled, 2u);
  service.drain();
}

TEST(SchedulerService, BackpressureRetrySucceedsAfterCapacityFrees) {
  ServiceOptions options = manual_options(QueueKind::kFifo);
  options.max_queued_jobs_per_tenant = 1;
  SchedulerService service(options);
  (void)expect_accepted(service, "a", quick_batch(1, 1));
  TicketSubmission rejected = service.submit_job("a", quick_batch(1, 2));
  ASSERT_TRUE(is_backpressure(rejected.status));

  ASSERT_TRUE(service.run_next());  // frees the tenant's queue slot
  const JobTicket retry = expect_accepted(service, "a", quick_batch(1, 2));
  service.drain();
  EXPECT_EQ(fetch_done(service, retry.id).completion_index, 1u);
  expect_conservation(service.stats());
}

TEST(SchedulerService, InvalidScenarioRejectedAtAdmission) {
  SchedulerService service(manual_options(QueueKind::kFifo));

  std::vector<sim::ScenarioSpec> bad = quick_batch(2, 1);
  bad[1].params = Params{0};  // invalid setup cost
  TicketSubmission invalid = service.submit_job("a", std::move(bad));
  EXPECT_EQ(invalid.status, SubmitStatus::kInvalidScenario);
  EXPECT_FALSE(is_backpressure(invalid.status));
  EXPECT_NE(invalid.reason.find("#1"), std::string::npos) << invalid.reason;

  TicketSubmission empty = service.submit_job("a", {});
  EXPECT_EQ(empty.status, SubmitStatus::kInvalidScenario);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.queued_jobs, 0u);  // nothing poisoned the queue
  EXPECT_EQ(stats.tenant("a")->rejected_invalid, 2u);
  expect_conservation(stats);
}

TEST(SchedulerService, EmptyTenantIdIsACallerBug) {
  SchedulerService service(manual_options(QueueKind::kFifo));
  EXPECT_THROW((void)service.submit_job("", quick_batch(1, 1)),
               std::invalid_argument);
  EXPECT_THROW(service.set_tenant_quota("", 1024), std::invalid_argument);
}

TEST(SchedulerService, EmptyTenantErrorNamesSubmitJobAndCountsNothing) {
  SchedulerService service(manual_options(QueueKind::kFifo));
  try {
    (void)service.submit_job("", quick_batch(1, 1));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("submit_job"), std::string::npos) << e.what();
  }
  // A caller bug is not a submission: no tenant, no counters, no id spent.
  const ServiceStats stats = service.stats();
  EXPECT_TRUE(stats.tenants.empty());
  EXPECT_EQ(stats.submitted_jobs, 0u);
  EXPECT_EQ(expect_accepted(service, "a", quick_batch(1, 2)).id, 1u);
  service.drain();
}

TEST(SchedulerService, EveryAcceptedJobGetsARecordAndRejectedOnesNone) {
  // Every accepted submission is ticketed: distinct increasing ids, each
  // pollable as queued. A rejection spends no id and leaves no record.
  ServiceOptions options = manual_options(QueueKind::kFifo);
  options.max_queued_jobs_per_tenant = 2;
  SchedulerService service(options);
  std::vector<JobId> ids;
  for (const char* tenant : {"a", "b", "a", "b"}) {
    ids.push_back(expect_accepted(service, tenant, quick_batch(1, ids.size())).id);
  }
  const TicketSubmission rejected = service.submit_job("a", quick_batch(1, 9));
  ASSERT_EQ(rejected.status, SubmitStatus::kQueueFullTenant);
  EXPECT_EQ(ids, (std::vector<JobId>{1, 2, 3, 4}));
  for (const JobId id : ids) EXPECT_EQ(service.job_state(id), JobState::kQueued) << id;
  EXPECT_EQ(service.job_state(5), JobState::kUnknown);

  service.drain();
  for (const JobId id : ids) {
    EXPECT_EQ(service.job_state(id), JobState::kDone) << id;
    EXPECT_EQ(fetch_done(service, id).job_id, id);
  }
  EXPECT_EQ(expect_accepted(service, "c", quick_batch(1, 10)).id, 5u);
  service.drain();
  expect_conservation(service.stats());
}

TEST(SchedulerService, RunNextThrowsWhenServiceOwnsWorkers) {
  ServiceOptions options;
  options.workers = 1;
  SchedulerService service(options);
  EXPECT_THROW((void)service.run_next(), std::logic_error);
  service.shutdown();
}

// ---------------------------------------------------------------------------
// JobTicket lifecycle: exactly-once fetch, probes, cancel, forget
// ---------------------------------------------------------------------------

TEST(SchedulerService, FetchConsumesTheOutcomeExactlyOnce) {
  SchedulerService service(manual_options(QueueKind::kFifo));
  const JobTicket ticket = expect_accepted(service, "a", quick_batch(2, 1));
  ASSERT_TRUE(service.run_next());

  const JobResult result = fetch_done(service, ticket.id);
  EXPECT_EQ(result.batch.per_scenario.size(), 2u);

  // The first terminal fetch released the record: the id is gone.
  EXPECT_EQ(service.job_state(ticket.id), JobState::kUnknown);
  const FetchOutcome again = service.fetch_result(ticket.id);
  EXPECT_EQ(again.state, JobState::kUnknown);
  EXPECT_FALSE(again.done());

  // Completion counters are untouched by the release.
  EXPECT_EQ(service.stats().tenant("a")->completed_jobs, 1u);
  expect_conservation(service.stats());
}

TEST(SchedulerService, FailedSolveSettlesAsFailedAndFetchesOnce) {
  // Admission validates scenarios but sizes no table, so a dp-optimal spec
  // whose slab overflows size_t is accepted and fails only when it runs.
  SchedulerService service(manual_options(QueueKind::kFifo));
  sim::ScenarioSpec spec = dp_spec(Ticks{1} << 40, 1);
  spec.max_interrupts = INT_MAX;
  const JobTicket ticket = expect_accepted(service, "a", {spec});
  ASSERT_TRUE(service.run_next());
  EXPECT_EQ(service.job_state(ticket.id), JobState::kFailed);

  const FetchOutcome failed = service.fetch_result(ticket.id);
  EXPECT_EQ(failed.state, JobState::kFailed);
  EXPECT_FALSE(failed.done());
  EXPECT_NE(failed.error.find("dimensions overflow size_t"), std::string::npos)
      << failed.error;
  EXPECT_EQ(service.fetch_result(ticket.id).state, JobState::kUnknown);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.failed_jobs, 1u);
  EXPECT_EQ(stats.tenant("a")->failed_jobs, 1u);
  EXPECT_EQ(stats.tenant("a")->completed_jobs, 0u);
  expect_conservation(stats);
}

TEST(SchedulerService, NonWaitingFetchProbesWithoutConsuming) {
  SchedulerService service(manual_options(QueueKind::kFifo));
  const JobTicket ticket = expect_accepted(service, "a", quick_batch(1, 1));

  // Probe while queued: reports kQueued, consumes nothing.
  const FetchOutcome probe = service.fetch_result(ticket.id, /*wait=*/false);
  EXPECT_EQ(probe.state, JobState::kQueued);
  EXPECT_EQ(service.job_state(ticket.id), JobState::kQueued);

  ASSERT_TRUE(service.run_next());
  EXPECT_TRUE(service.fetch_result(ticket.id, /*wait=*/false).done());
  EXPECT_EQ(service.job_state(ticket.id), JobState::kUnknown);
}

TEST(SchedulerService, WaitingFetchBlocksUntilWorkersFinishTheJob) {
  ServiceOptions options;
  options.workers = 2;
  SchedulerService service(options);
  const JobTicket ticket = expect_accepted(service, "a", quick_batch(3, 1));
  // No drain: the fetch itself is the synchronization point.
  const JobResult result = fetch_done(service, ticket.id);
  EXPECT_EQ(result.batch.per_scenario.size(), 3u);
  EXPECT_EQ(service.job_state(ticket.id), JobState::kUnknown);
  service.shutdown();
}

TEST(SchedulerService, UnknownIdsReadUnknownEverywhere) {
  SchedulerService service(manual_options(QueueKind::kFifo));
  EXPECT_EQ(service.job_state(0), JobState::kUnknown);
  EXPECT_EQ(service.job_state(999), JobState::kUnknown);
  EXPECT_EQ(service.fetch_result(999).state, JobState::kUnknown);
  EXPECT_FALSE(service.cancel(999));
  EXPECT_FALSE(service.forget(999));
}

TEST(SchedulerService, CancelQueuedJobSettlesAsCancelledWithConservation) {
  SchedulerService service(manual_options(QueueKind::kFifo));
  const JobTicket first = expect_accepted(service, "a", quick_batch(1, 1));
  const JobTicket victim = expect_accepted(service, "a", quick_batch(2, 2));
  const JobTicket last = expect_accepted(service, "b", quick_batch(1, 3));

  ASSERT_TRUE(service.cancel(victim.id));
  // Visible immediately, before the queue entry is lazily removed.
  EXPECT_EQ(service.job_state(victim.id), JobState::kCancelled);
  EXPECT_FALSE(service.cancel(victim.id));  // second cancel is a no-op

  service.drain();

  // The cancelled job never executed; its neighbours completed in order.
  EXPECT_EQ(fetch_done(service, first.id).completion_index, 0u);
  EXPECT_EQ(fetch_done(service, last.id).completion_index, 1u);
  FetchOutcome cancelled = service.fetch_result(victim.id);
  EXPECT_EQ(cancelled.state, JobState::kCancelled);
  EXPECT_FALSE(cancelled.error.empty());
  EXPECT_EQ(service.job_state(victim.id), JobState::kUnknown);  // consumed

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed_jobs, 2u);
  EXPECT_EQ(stats.cancelled_jobs, 1u);
  EXPECT_EQ(stats.queued_jobs, 0u);
  EXPECT_EQ(stats.tenant("a")->pending_scenarios, 0u);
  expect_conservation(stats);
}

TEST(SchedulerService, CancelRefusesCompletedJobs) {
  SchedulerService service(manual_options(QueueKind::kFifo));
  const JobTicket ticket = expect_accepted(service, "a", quick_batch(1, 1));
  ASSERT_TRUE(service.run_next());
  EXPECT_FALSE(service.cancel(ticket.id));  // already terminal
  EXPECT_EQ(service.job_state(ticket.id), JobState::kDone);
  (void)fetch_done(service, ticket.id);
}

TEST(SchedulerService, ForgetReleasesRecordsInEveryState) {
  SchedulerService service(manual_options(QueueKind::kFifo));

  // Forget a QUEUED job: it is cancelled (visible until the queue entry is
  // lazily settled) and the record is erased at settlement, not handed out.
  const JobTicket queued = expect_accepted(service, "a", quick_batch(1, 1));
  EXPECT_TRUE(service.forget(queued.id));
  EXPECT_EQ(service.job_state(queued.id), JobState::kCancelled);
  while (service.run_next()) {
  }
  EXPECT_EQ(service.job_state(queued.id), JobState::kUnknown);

  // Forget a TERMINAL job: the record is dropped without a fetch.
  const JobTicket done = expect_accepted(service, "a", quick_batch(1, 2));
  ASSERT_TRUE(service.run_next());
  EXPECT_TRUE(service.forget(done.id));
  EXPECT_EQ(service.job_state(done.id), JobState::kUnknown);
  EXPECT_EQ(service.fetch_result(done.id).state, JobState::kUnknown);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cancelled_jobs, 1u);  // the forgotten queued job
  EXPECT_EQ(stats.completed_jobs, 1u);  // the forgotten done job still counts
  EXPECT_EQ(stats.queued_jobs, 0u);
  expect_conservation(stats);
}

TEST(SchedulerService, CancelledQueuedJobFetchIsExactlyOnceBeforeSettlement) {
  SchedulerService service(manual_options(QueueKind::kFifo));
  const JobTicket ticket = expect_accepted(service, "a", quick_batch(1, 1));
  ASSERT_TRUE(service.cancel(ticket.id));

  // First fetch before the pop path settles the record: this IS the fetch.
  const FetchOutcome first = service.fetch_result(ticket.id);
  EXPECT_EQ(first.state, JobState::kCancelled);
  EXPECT_FALSE(first.error.empty());

  // A second fetch of the still-unsettled record must read kUnknown — the
  // same answer it will give once settlement erases the record.
  EXPECT_EQ(service.fetch_result(ticket.id).state, JobState::kUnknown);

  // forget() consumes the fetch too: a later fetch may not resurrect the
  // cancelled outcome while the queue entry lingers.
  const JobTicket forgotten = expect_accepted(service, "a", quick_batch(1, 2));
  EXPECT_TRUE(service.forget(forgotten.id));
  EXPECT_EQ(service.fetch_result(forgotten.id).state, JobState::kUnknown);

  while (service.run_next()) {
  }
  EXPECT_EQ(service.fetch_result(ticket.id).state, JobState::kUnknown);
  expect_conservation(service.stats());
}

// ---------------------------------------------------------------------------
// Shutdown semantics
// ---------------------------------------------------------------------------

TEST(SchedulerService, ShutdownDrainCompletesQueuedWork) {
  SchedulerService service(manual_options(QueueKind::kFifo));
  const JobTicket a = expect_accepted(service, "a", quick_batch(1, 1));
  const JobTicket b = expect_accepted(service, "b", quick_batch(2, 2));
  service.shutdown(SchedulerService::StopMode::kDrain);

  EXPECT_EQ(fetch_done(service, a.id).completion_index, 0u);
  EXPECT_EQ(fetch_done(service, b.id).batch.per_scenario.size(), 2u);

  TicketSubmission late = service.submit_job("a", quick_batch(1, 3));
  EXPECT_EQ(late.status, SubmitStatus::kShuttingDown);
  EXPECT_FALSE(is_backpressure(late.status));

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed_jobs, 2u);
  EXPECT_EQ(stats.tenant("a")->rejected_shutdown, 1u);
  expect_conservation(stats);
}

TEST(SchedulerService, ShutdownCancelSettlesQueuedTickets) {
  SchedulerService service(manual_options(QueueKind::kFifo));
  const JobTicket done = expect_accepted(service, "a", quick_batch(1, 1));
  ASSERT_TRUE(service.run_next());
  const JobTicket q1 = expect_accepted(service, "a", quick_batch(1, 2));
  const JobTicket q2 = expect_accepted(service, "b", quick_batch(1, 3));
  service.shutdown(SchedulerService::StopMode::kCancelQueued);

  EXPECT_EQ(fetch_done(service, done.id).completion_index, 0u);  // work stands
  for (const JobId id : {q1.id, q2.id}) {
    const FetchOutcome outcome = service.fetch_result(id);
    EXPECT_EQ(outcome.state, JobState::kCancelled);
    EXPECT_FALSE(outcome.error.empty());
  }

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed_jobs, 1u);
  EXPECT_EQ(stats.cancelled_jobs, 2u);
  EXPECT_EQ(stats.queued_jobs, 0u);
  expect_conservation(stats);

  service.shutdown();  // idempotent, any mode
}

TEST(SchedulerService, WorkerModeCompletesEverythingOnDrain) {
  ServiceOptions options;
  options.workers = 3;
  SchedulerService service(options);
  std::vector<JobTicket> tickets;
  for (int i = 0; i < 12; ++i) {
    tickets.push_back(expect_accepted(service, i % 2 == 0 ? "even" : "odd",
                                      quick_batch(2, 1000 + i)));
  }
  service.drain();

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed_jobs, 12u);
  EXPECT_EQ(stats.queued_jobs, 0u);
  EXPECT_EQ(stats.inflight_jobs, 0u);
  expect_conservation(stats);

  // completion_index values are a permutation of 0..11 (each assigned once
  // under the service lock) even though worker timing is nondeterministic.
  std::vector<bool> seen(tickets.size(), false);
  for (const JobTicket& ticket : tickets) {
    const JobResult result = fetch_done(service, ticket.id);
    ASSERT_LT(result.completion_index, seen.size());
    EXPECT_FALSE(seen[result.completion_index]);
    seen[result.completion_index] = true;
    EXPECT_EQ(result.batch.per_scenario.size(), 2u);
  }
  service.shutdown();
}

TEST(SchedulerService, WorkerResultsMatchADirectBatchRun) {
  // A dp-optimal job run by the service's workers (solves through the
  // tenant cache, on worker threads) is bit-identical to the same batch run
  // directly on the caller's thread.
  std::vector<sim::ScenarioSpec> specs;
  for (int i = 0; i < 6; ++i) specs.push_back(dp_spec(512 + 160 * (i % 3), 40 + i));
  const sim::BatchResult direct = sim::BatchRunner().run(specs);

  ServiceOptions options;
  options.workers = 2;
  SchedulerService service(options);
  const JobTicket ticket = expect_accepted(service, "a", specs);
  const JobResult result = fetch_done(service, ticket.id);
  ASSERT_EQ(result.batch.per_scenario.size(), direct.per_scenario.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(result.batch.per_scenario[i].to_string(),
              direct.per_scenario[i].to_string())
        << i;
  }
  EXPECT_EQ(result.batch.aggregate.banked_work, direct.aggregate.banked_work);
  service.shutdown();
}

// ---------------------------------------------------------------------------
// Cache quotas and stats
// ---------------------------------------------------------------------------

TEST(SchedulerService, QuotaIsolationHostileTenantCannotEvictQuietTenant) {
  ServiceOptions options = manual_options(QueueKind::kFifo);
  options.tenant_cache_shards = 1;            // one shard: eviction observable
  options.default_tenant_quota_bytes = 6000;  // holds ~1 of the hog's tables
  SchedulerService service(options);

  // quiet warms its cache with one dp table...
  (void)expect_accepted(service, "quiet", {dp_spec(512, 1)});
  service.drain();

  // ...then hog churns through many DISTINCT tables inside its own quota.
  for (int i = 0; i < 6; ++i) {
    (void)expect_accepted(service, "hog", {dp_spec(512 + 128 * i, 50 + i)});
  }
  service.drain();

  // quiet re-runs the same contract: must be a pure cache hit.
  (void)expect_accepted(service, "quiet", {dp_spec(512, 2)});
  service.drain();

  const ServiceStats stats = service.stats();
  const TenantStats* quiet = stats.tenant("quiet");
  const TenantStats* hog = stats.tenant("hog");
  ASSERT_NE(quiet, nullptr);
  ASSERT_NE(hog, nullptr);
  EXPECT_EQ(quiet->cache.misses, 1u);  // second run re-used the table
  EXPECT_EQ(quiet->cache.hits, 1u);
  EXPECT_EQ(quiet->cache.evictions, 0u);   // hog's churn never touched quiet
  EXPECT_GT(hog->cache.evictions, 0u);     // hog really did churn
  EXPECT_LE(hog->cache.resident_bytes, quiet->cache.resident_bytes * 2 + 6000);
}

TEST(SchedulerService, ZeroQuotaTenantStillCompletesJobs) {
  ServiceOptions options = manual_options(QueueKind::kFifo);
  options.tenant_cache_shards = 1;
  SchedulerService service(options);
  service.set_tenant_quota("z", 0);

  for (int i = 0; i < 3; ++i) {
    (void)expect_accepted(service, "z", {dp_spec(256 + 64 * i, 7 + i)});
  }
  service.drain();

  const ServiceStats stats = service.stats();  // keep the snapshot alive
  const TenantStats* z = stats.tenant("z");
  ASSERT_NE(z, nullptr);
  EXPECT_EQ(z->quota_bytes, 0u);
  EXPECT_EQ(z->completed_jobs, 3u);
  // Keep-newest degrades a zero quota to one table per shard, never zero.
  EXPECT_EQ(z->cache.entries, 1u);
  EXPECT_GE(z->cache.evictions, 2u);
}

TEST(SchedulerService, QuotaResizeShrinksLiveCacheAndGrowKeepsTables) {
  ServiceOptions options = manual_options(QueueKind::kFifo);
  options.tenant_cache_shards = 1;
  options.default_tenant_quota_bytes = 1u << 20;  // roomy: all tables resident
  SchedulerService service(options);

  for (int i = 0; i < 4; ++i) {
    (void)expect_accepted(service, "t", {dp_spec(256 + 128 * i, 90 + i)});
  }
  service.drain();
  const std::size_t resident_before = service.stats().tenant("t")->cache.resident_bytes;
  EXPECT_EQ(service.stats().tenant("t")->cache.entries, 4u);

  service.set_tenant_quota("t", 1);  // shrink: evict down, keep newest
  const ServiceStats shrunk = service.stats();  // keep the snapshot alive
  const TenantStats* after = shrunk.tenant("t");
  EXPECT_EQ(after->quota_bytes, 1u);
  EXPECT_EQ(after->cache.entries, 1u);
  EXPECT_LT(after->cache.resident_bytes, resident_before);

  service.set_tenant_quota("t", 1u << 20);  // grow: nothing more evicted
  EXPECT_EQ(service.stats().tenant("t")->cache.entries, 1u);
  EXPECT_EQ(service.stats().tenant("t")->cache.evictions, 3u);
}

TEST(SchedulerService, LatencyStatsCountCompletionsAndStayOrdered) {
  ServiceOptions options = manual_options(QueueKind::kFifo);
  options.latency_window = 4;  // smaller than the completion count
  SchedulerService service(options);
  for (int i = 0; i < 6; ++i) {
    (void)expect_accepted(service, "a", quick_batch(1, 500 + i));
  }
  service.drain();

  const ServiceStats stats = service.stats();  // keep the snapshot alive
  const TenantStats* a = stats.tenant("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->completed_jobs, 6u);
  // The ring keeps the last `latency_window` samples; only ORDER is
  // asserted about the values themselves (deflake discipline).
  EXPECT_EQ(a->latency.count, 4u);
  EXPECT_LE(a->latency.p50_ms, a->latency.p90_ms);
  EXPECT_LE(a->latency.p90_ms, a->latency.p99_ms);
  EXPECT_LE(a->latency.p99_ms, a->latency.max_ms);
  EXPECT_GE(a->latency.p50_ms, 0.0);
}

TEST(SchedulerService, StatsListsTenantsSortedAndSumsMatch) {
  SchedulerService service(manual_options(QueueKind::kFifo));
  (void)expect_accepted(service, "zeta", quick_batch(1, 1));
  (void)expect_accepted(service, "alpha", quick_batch(2, 2));
  (void)expect_accepted(service, "mid", quick_batch(3, 3));
  service.drain();

  const ServiceStats stats = service.stats();
  ASSERT_EQ(stats.tenants.size(), 3u);
  EXPECT_EQ(stats.tenants[0].tenant, "alpha");
  EXPECT_EQ(stats.tenants[1].tenant, "mid");
  EXPECT_EQ(stats.tenants[2].tenant, "zeta");
  EXPECT_EQ(stats.completed_scenarios, 6u);
  EXPECT_EQ(stats.queue_policy, "fifo");
  EXPECT_EQ(stats.workers, 0u);
  expect_conservation(stats);
}

// ---------------------------------------------------------------------------
// Shared persistent store: one warm mount beneath every tenant's cache
// ---------------------------------------------------------------------------

TEST(SchedulerService, SharedStoreServesAllTenantsAboveTheirPrivateQuotas) {
  nowsched::testing::TempDir dir("svc-store");
  ServiceOptions options = manual_options(QueueKind::kFifo);
  options.shared_store_dir = dir.str();
  SchedulerService service(options);
  ASSERT_NE(service.shared_store(), nullptr);

  // Tenant a solves a dp table — its fresh solve spills to the shared store.
  (void)expect_accepted(service, "a", {dp_spec(512, 1)});
  service.drain();

  // Tenant b runs the same contract: its PRIVATE cache is cold (no
  // cross-tenant RAM sharing — isolation is intact), but the shared store
  // converts its would-be solve into a mapped read.
  (void)expect_accepted(service, "b", {dp_spec(512, 2)});
  service.drain();

  const ServiceStats stats = service.stats();
  const TenantStats* a = stats.tenant("a");
  const TenantStats* b = stats.tenant("b");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->cache.misses, 1u);
  EXPECT_EQ(a->cache.spills, 1u);
  EXPECT_EQ(a->cache.store_hits, 0u);
  EXPECT_EQ(b->cache.misses, 1u);       // private caches stay isolated...
  EXPECT_EQ(b->cache.store_hits, 1u);   // ...but the store answered the miss
  EXPECT_EQ(b->cache.spills, 0u);       // a store hit is never re-spilled
  EXPECT_EQ(service.shared_store()->stats().entries, 1u);
}

TEST(SchedulerService, ResultsAreBitIdenticalWithAndWithoutTheSharedStore) {
  // The store changes WHO supplies a table, never what the simulation
  // computes: identical per-scenario metrics with no store, with a cold
  // store, and with a pre-warmed store.
  const std::vector<sim::ScenarioSpec> batch = {
      dp_spec(512, 11), dp_spec(640, 12), dp_spec(512, 13)};

  auto run = [&batch](const std::string& store_dir) {
    ServiceOptions options = manual_options(QueueKind::kFifo);
    options.shared_store_dir = store_dir;
    SchedulerService service(options);
    const JobTicket ticket = expect_accepted(service, "t", batch);
    service.drain();
    return fetch_done(service, ticket.id);
  };

  nowsched::testing::TempDir dir("svc-bitid");
  const JobResult no_store = run("");
  const JobResult cold_store = run(dir.str());   // bakes the store
  const JobResult warm_store = run(dir.str());   // served from the store

  ASSERT_EQ(no_store.batch.per_scenario.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const sim::SessionMetrics& base = no_store.batch.per_scenario[i];
    const sim::SessionMetrics& cold = cold_store.batch.per_scenario[i];
    const sim::SessionMetrics& warm = warm_store.batch.per_scenario[i];
    EXPECT_EQ(base.banked_work, cold.banked_work) << i;
    EXPECT_EQ(base.banked_work, warm.banked_work) << i;
    EXPECT_EQ(base.task_work, cold.task_work) << i;
    EXPECT_EQ(base.task_work, warm.task_work) << i;
    EXPECT_EQ(base.lost_work, cold.lost_work) << i;
    EXPECT_EQ(base.lost_work, warm.lost_work) << i;
    EXPECT_EQ(base.interrupts, cold.interrupts) << i;
    EXPECT_EQ(base.interrupts, warm.interrupts) << i;
  }
}

TEST(SchedulerService, ReadOnlySharedStoreMountRequiresBakedDirectory) {
  ServiceOptions options = manual_options(QueueKind::kFifo);
  options.shared_store_dir = "/nonexistent/nowsched-store";
  options.shared_store_readonly = true;
  // Misconfiguration surfaces at construction, not as per-job failures.
  EXPECT_THROW(SchedulerService{options}, std::runtime_error);
}

}  // namespace
}  // namespace nowsched::service
