// service::SchedulerService under real concurrency — the TSan half of the
// battery (CI runs this suite under ThreadSanitizer). Assertions follow
// the deflake discipline: conservation laws, permutation/ordering facts, and
// bit-determinism of a canary scenario — never timing values, never "thread
// X won" expectations. All submission goes through the JobTicket API.
#include "service/scheduler_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <climits>
#include <cstdint>
#include <deque>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/batch_runner.h"
#include "sim/metrics.h"

namespace nowsched::service {
namespace {

sim::ScenarioSpec quick_spec(std::uint64_t seed) {
  sim::ScenarioSpec spec;
  spec.policy = sim::PolicyKind::kEqualized;
  spec.owner = sim::OwnerKind::kPoisson;
  spec.owner_a = 400.0;
  spec.params = Params{16};
  spec.lifespan = 256;
  spec.max_interrupts = 1;
  spec.seed = seed;
  return spec;
}

sim::ScenarioSpec dp_spec(Ticks lifespan, std::uint64_t seed) {
  sim::ScenarioSpec spec = quick_spec(seed);
  spec.policy = sim::PolicyKind::kDpOptimal;
  spec.lifespan = lifespan;
  return spec;
}

void expect_metrics_eq(const sim::SessionMetrics& got,
                       const sim::SessionMetrics& want) {
  EXPECT_EQ(got.banked_work, want.banked_work);
  EXPECT_EQ(got.task_work, want.task_work);
  EXPECT_EQ(got.comm_overhead, want.comm_overhead);
  EXPECT_EQ(got.lost_work, want.lost_work);
  EXPECT_EQ(got.salvaged_work, want.salvaged_work);
  EXPECT_EQ(got.fragmentation, want.fragmentation);
  EXPECT_EQ(got.lifespan_used, want.lifespan_used);
  EXPECT_EQ(got.interrupts, want.interrupts);
  EXPECT_EQ(got.episodes, want.episodes);
  EXPECT_EQ(got.periods_completed, want.periods_completed);
  EXPECT_EQ(got.periods_killed, want.periods_killed);
  EXPECT_EQ(got.tasks_completed, want.tasks_completed);
}

TEST(SchedulerServiceStress, ConcurrentSubmittersConserveEveryCounter) {
  ServiceOptions options;
  options.workers = 3;
  options.queue = QueueKind::kDeficitRoundRobin;
  options.drr_quantum = 2;
  // Tight limits so the backpressure paths genuinely fire under the race.
  options.max_queued_jobs_per_tenant = 4;
  options.max_queued_jobs_total = 10;
  options.max_pending_scenarios_per_tenant = 12;
  SchedulerService service(options);

  constexpr int kSubmitters = 6;
  constexpr int kPerThread = 40;
  std::atomic<std::uint64_t> accepted{0}, rejected{0}, invalid{0};

  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&service, &accepted, &rejected, &invalid, t] {
      // Every accepted ticket resolves, exactly once. Tickets are fetched as
      // the submitter goes, keeping at most kWindow unfetched, so unfetched
      // results (charged to the pending-scenario budget) do not throttle the
      // tenant and the run keeps racing submits against workers.
      constexpr std::size_t kWindow = 2;
      std::deque<JobId> tickets;
      const auto fetch_oldest = [&service, &tickets] {
        const JobId id = tickets.front();
        tickets.pop_front();
        const FetchOutcome outcome = service.fetch_result(id);
        ASSERT_TRUE(outcome.done()) << to_string(outcome.state);
        ASSERT_FALSE(outcome.result.batch.per_scenario.empty());
        ASSERT_EQ(service.job_state(id), JobState::kUnknown);
      };
      for (int i = 0; i < kPerThread; ++i) {
        const std::string tenant = "tenant-" + std::to_string(t % 3);
        std::vector<sim::ScenarioSpec> specs;
        const int n = 1 + (t + i) % 3;
        for (int k = 0; k < n; ++k) {
          specs.push_back(quick_spec(static_cast<std::uint64_t>(t * 1000 + i * 10 + k)));
        }
        if (i % 10 == 9) specs[0].params = Params{0};  // exercise the invalid path
        TicketSubmission sub = service.submit_job(tenant, std::move(specs));
        if (sub.accepted()) {
          ++accepted;
          tickets.push_back(sub.ticket.id);
          if (tickets.size() > kWindow) fetch_oldest();
        } else if (sub.status == SubmitStatus::kInvalidScenario) {
          ++invalid;
        } else {
          ASSERT_TRUE(is_backpressure(sub.status)) << to_string(sub.status);
          ++rejected;
        }
      }
      while (!tickets.empty()) fetch_oldest();
    });
  }
  for (auto& th : submitters) th.join();
  service.drain();

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted_jobs,
            static_cast<std::uint64_t>(kSubmitters) * kPerThread);
  EXPECT_EQ(stats.accepted_jobs, accepted.load());
  EXPECT_EQ(stats.rejected_jobs, rejected.load() + invalid.load());
  EXPECT_EQ(stats.completed_jobs, accepted.load());
  EXPECT_EQ(stats.failed_jobs, 0u);
  EXPECT_EQ(stats.queued_jobs, 0u);
  EXPECT_EQ(stats.inflight_jobs, 0u);
  std::uint64_t invalid_sum = 0, completed_scenarios = 0, submitted_scenarios = 0;
  for (const TenantStats& t : stats.tenants) {
    EXPECT_EQ(t.submitted_jobs, t.accepted_jobs + t.rejected_total()) << t.tenant;
    EXPECT_EQ(t.accepted_jobs, t.completed_jobs) << t.tenant;
    EXPECT_EQ(t.pending_scenarios, 0u) << t.tenant;
    invalid_sum += t.rejected_invalid;
    completed_scenarios += t.completed_scenarios;
    submitted_scenarios += t.submitted_scenarios;
  }
  EXPECT_EQ(invalid_sum, invalid.load());
  EXPECT_EQ(completed_scenarios, submitted_scenarios);  // everything accepted ran
  service.shutdown();
}

TEST(SchedulerServiceStress, CanaryScenarioIsBitDeterministicUnderLoad) {
  // One fixed scenario submitted from many racing threads, amid unrelated
  // load: every copy's metrics must equal the direct BatchRunner result
  // field for field — scheduling decides WHEN, never WHAT.
  const sim::ScenarioSpec canary = dp_spec(384, 0xCA7A);
  sim::BatchRunner reference;
  const sim::SessionMetrics want = reference.run({canary}).per_scenario.at(0);

  ServiceOptions options;
  options.workers = 4;
  options.queue = QueueKind::kDeficitRoundRobin;
  SchedulerService service(options);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&service, &canary, &want, t] {
      for (int i = 0; i < kPerThread; ++i) {
        // Interleave noise jobs from a different tenant and contract (their
        // tickets are fetched below through the same blocking path).
        TicketSubmission noise = service.submit_job(
            "noise", {dp_spec(256 + 16 * ((t + i) % 4),
                              static_cast<std::uint64_t>(t * 100 + i))});
        TicketSubmission sub =
            service.submit_job("canary-" + std::to_string(t), {canary});
        if (noise.accepted()) (void)service.fetch_result(noise.ticket.id);
        if (!sub.accepted()) continue;  // backpressure is fine; results are not
        const FetchOutcome outcome = service.fetch_result(sub.ticket.id);
        ASSERT_TRUE(outcome.done()) << to_string(outcome.state);
        ASSERT_EQ(outcome.result.batch.per_scenario.size(), 1u);
        expect_metrics_eq(outcome.result.batch.per_scenario[0], want);
      }
    });
  }
  for (auto& th : threads) th.join();
  service.shutdown(SchedulerService::StopMode::kDrain);
}

TEST(SchedulerServiceStress, StatsAndQuotaResizeRaceExecution) {
  // stats() snapshots and live set_tenant_quota churn while workers chew dp
  // jobs — TSan checks the locking; we check snapshot sanity (sums never
  // exceed submissions, monotone completions) and final conservation.
  ServiceOptions options;
  options.workers = 2;
  SchedulerService service(options);

  std::atomic<bool> stop{false};
  std::thread poller([&service, &stop] {
    std::uint64_t last_completed = 0;
    while (!stop.load()) {
      const ServiceStats stats = service.stats();
      EXPECT_LE(stats.accepted_jobs, stats.submitted_jobs);
      EXPECT_GE(stats.completed_jobs, last_completed);  // monotone
      last_completed = stats.completed_jobs;
      for (const TenantStats& t : stats.tenants) {
        EXPECT_LE(t.completed_scenarios, t.submitted_scenarios) << t.tenant;
      }
      std::this_thread::yield();
    }
  });
  std::thread resizer([&service, &stop] {
    std::size_t flip = 0;
    while (!stop.load()) {
      service.set_tenant_quota("t", (flip++ % 2 == 0) ? 0 : (1u << 20));
      std::this_thread::yield();
    }
  });

  std::vector<JobId> tickets;
  for (int i = 0; i < 48; ++i) {
    TicketSubmission sub = service.submit_job(
        "t", {dp_spec(256 + 16 * (i % 6), static_cast<std::uint64_t>(i))});
    if (sub.accepted()) tickets.push_back(sub.ticket.id);
  }
  for (const JobId id : tickets) {
    EXPECT_TRUE(service.fetch_result(id).done());
  }
  stop.store(true);
  poller.join();
  resizer.join();
  service.drain();

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed_jobs, tickets.size());
  EXPECT_EQ(stats.failed_jobs, 0u);
  service.shutdown();
}

TEST(SchedulerServiceStress, ShutdownCancelRacingSubmittersLosesNoJob) {
  // Submitters race a cancel-shutdown: every accepted ticket must settle
  // (kDone or kCancelled, never kUnknown/stuck) and completed + cancelled
  // == accepted.
  ServiceOptions options;
  options.workers = 2;
  options.max_queued_jobs_total = 64;
  SchedulerService service(options);

  std::atomic<std::uint64_t> accepted{0};
  constexpr int kSubmitters = 4;
  std::vector<std::thread> submitters;
  std::vector<std::vector<JobId>> tickets(kSubmitters);
  submitters.reserve(kSubmitters);
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&service, &accepted, &tickets, t] {
      // Assemble via append rather than operator+: string concatenation of
      // a literal with std::to_string trips a GCC 12 -Wrestrict false
      // positive (GCC bug 105651) when inlined under -O2. Retested on GCC
      // 12.2: still fires — keep until the toolchain reaches GCC 13.
      std::string tenant = "t";
      tenant += std::to_string(t);
      for (int i = 0; i < 30; ++i) {
        TicketSubmission sub = service.submit_job(
            tenant, {quick_spec(static_cast<std::uint64_t>(t * 1000 + i))});
        if (sub.accepted()) {
          ++accepted;
          tickets[static_cast<std::size_t>(t)].push_back(sub.ticket.id);
        } else if (sub.status == SubmitStatus::kShuttingDown) {
          break;  // the race is over for this thread
        }
      }
    });
  }
  service.shutdown(SchedulerService::StopMode::kCancelQueued);
  for (auto& th : submitters) th.join();

  std::uint64_t resolved_ok = 0, resolved_cancelled = 0;
  for (const auto& per_thread : tickets) {
    for (const JobId id : per_thread) {
      const FetchOutcome outcome = service.fetch_result(id);
      if (outcome.done()) {
        ++resolved_ok;
      } else {
        ASSERT_EQ(outcome.state, JobState::kCancelled);
        ASSERT_FALSE(outcome.error.empty());
        ++resolved_cancelled;
      }
    }
  }
  EXPECT_EQ(resolved_ok + resolved_cancelled, accepted.load());

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.accepted_jobs, accepted.load());
  EXPECT_EQ(stats.completed_jobs, resolved_ok);
  EXPECT_EQ(stats.cancelled_jobs, resolved_cancelled);
  EXPECT_EQ(stats.queued_jobs, 0u);
  EXPECT_EQ(stats.inflight_jobs, 0u);
}

TEST(SchedulerServiceStress, ConcurrentCancellersSettleEveryTicket) {
  // Submitters and cancellers race the workers for the same tickets: each
  // ticket ends exactly one of kDone/kCancelled, cancel() returning true at
  // most once per ticket, and the counters balance.
  ServiceOptions options;
  options.workers = 2;
  options.max_queued_jobs_total = 128;
  options.max_queued_jobs_per_tenant = 128;
  SchedulerService service(options);

  constexpr int kJobs = 60;
  std::vector<JobId> ids;
  ids.reserve(kJobs);
  for (int i = 0; i < kJobs; ++i) {
    TicketSubmission sub = service.submit_job(
        "race", {quick_spec(static_cast<std::uint64_t>(7000 + i))});
    ASSERT_TRUE(sub.accepted());
    ids.push_back(sub.ticket.id);
  }

  std::atomic<std::uint64_t> cancel_wins{0};
  std::vector<std::thread> cancellers;
  for (int t = 0; t < 2; ++t) {
    cancellers.emplace_back([&service, &ids, &cancel_wins, t] {
      // Each canceller attacks a disjoint half — a cancel() that returns
      // true must be the ONLY accepted cancel for that id.
      for (std::size_t i = static_cast<std::size_t>(t); i < ids.size(); i += 2) {
        if (service.cancel(ids[i])) ++cancel_wins;
      }
    });
  }
  for (auto& th : cancellers) th.join();
  service.drain();

  std::uint64_t done = 0, cancelled = 0;
  for (const JobId id : ids) {
    const FetchOutcome outcome = service.fetch_result(id);
    if (outcome.done()) {
      ++done;
    } else {
      ASSERT_EQ(outcome.state, JobState::kCancelled);
      ++cancelled;
    }
    EXPECT_EQ(service.job_state(id), JobState::kUnknown);  // consumed
  }
  EXPECT_EQ(done + cancelled, static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(cancelled, cancel_wins.load());

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed_jobs, done);
  EXPECT_EQ(stats.cancelled_jobs, cancelled);
  EXPECT_EQ(stats.queued_jobs, 0u);
  EXPECT_EQ(stats.inflight_jobs, 0u);
  service.shutdown();
}

TEST(SchedulerServiceStress, TerminalStateImpliesAPublishedOutcome) {
  // Pollers race the workers: the moment job_state() reads a job terminal,
  // a non-waiting fetch must hand back that same state and its complete
  // outcome (one result entry per spec, or the failure/cancel text).
  ServiceOptions options;
  options.workers = 3;
  options.max_queued_jobs_total = 128;
  options.max_queued_jobs_per_tenant = 128;
  SchedulerService service(options);

  struct Job {
    JobId id = 0;
    std::size_t specs = 0;
    bool cancelled = false;
  };
  constexpr int kJobs = 72;
  std::vector<Job> jobs;
  jobs.reserve(kJobs);
  for (int i = 0; i < kJobs; ++i) {
    Job job;
    std::vector<sim::ScenarioSpec> specs;
    if (i % 9 == 4) {
      // Admitted, then fails when it runs: no value table takes its lifespan.
      sim::ScenarioSpec spec = dp_spec(Ticks{1} << 40, 1);
      spec.max_interrupts = INT_MAX;
      specs.push_back(spec);
    } else {
      for (int k = 0; k <= i % 4; ++k) {
        specs.push_back(quick_spec(static_cast<std::uint64_t>(9000 + 10 * i + k)));
      }
    }
    job.specs = specs.size();
    TicketSubmission sub = service.submit_job(i % 2 == 0 ? "even" : "odd",
                                              std::move(specs));
    ASSERT_TRUE(sub.accepted()) << sub.reason;
    job.id = sub.ticket.id;
    if (i % 7 == 3) job.cancelled = service.cancel(job.id);
    jobs.push_back(job);
  }

  constexpr int kPollers = 3;
  std::atomic<std::uint64_t> done{0}, failed{0}, cancelled{0};
  std::vector<std::thread> pollers;
  for (int p = 0; p < kPollers; ++p) {
    pollers.emplace_back([&, p] {
      std::vector<Job> pending;
      for (std::size_t i = static_cast<std::size_t>(p); i < jobs.size(); i += kPollers) {
        pending.push_back(jobs[i]);
      }
      while (!pending.empty()) {
        for (std::size_t i = 0; i < pending.size();) {
          const Job& job = pending[i];
          const JobState state = service.job_state(job.id);
          if (state == JobState::kQueued || state == JobState::kRunning) {
            ++i;
            continue;
          }
          const FetchOutcome outcome = service.fetch_result(job.id, /*wait=*/false);
          EXPECT_EQ(outcome.state, state) << job.id;
          if (state == JobState::kDone) {
            EXPECT_EQ(outcome.result.job_id, job.id);
            EXPECT_EQ(outcome.result.batch.per_scenario.size(), job.specs) << job.id;
            ++done;
          } else if (state == JobState::kFailed) {
            EXPECT_EQ(outcome.error, "ValueTable: max_lifespan outside [0, 4294967295]");
            ++failed;
          } else {
            EXPECT_EQ(state, JobState::kCancelled) << job.id;
            EXPECT_TRUE(job.cancelled) << job.id;
            EXPECT_EQ(outcome.error, "SchedulerService: job cancelled before execution");
            ++cancelled;
          }
          pending[i] = pending.back();
          pending.pop_back();
        }
        std::this_thread::yield();
      }
    });
  }
  for (auto& th : pollers) th.join();
  service.drain();

  std::uint64_t cancel_wins = 0;
  for (const Job& job : jobs) cancel_wins += job.cancelled ? 1 : 0;
  EXPECT_EQ(done + failed + cancelled, static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(cancelled.load(), cancel_wins);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed_jobs, done.load());
  EXPECT_EQ(stats.failed_jobs, failed.load());
  EXPECT_EQ(stats.cancelled_jobs, cancelled.load());
  service.shutdown();
}

}  // namespace
}  // namespace nowsched::service
