// Service-vs-batch conformance differential: a generated multi-tenant
// workload pushed through service::SchedulerService must produce
// per-scenario metrics BIT-IDENTICAL to a direct sim::BatchRunner::run over
// the same specs — for any queue policy, worker count, tenant split, or
// cache quota. Scheduling decides WHEN a job runs, never what it computes
// (src/service/scheduler_service.h, "Determinism").
//
// Rides the same NOWSCHED_FUZZ_CASES tier knob as the rest of the
// conformance binary: the quick tier generates 200 scenarios per
// configuration; the nightly 5000-case tier scales this suite with it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "conformance/conformance_harness.h"
#include "service/scheduler_service.h"
#include "sim/batch_runner.h"
#include "sim/metrics.h"
#include "sim/scenario_gen.h"

namespace nowsched::conformance {
namespace {

/// The service differential's workload space. dp-optimal heavy (that is the
/// policy whose solves go through the per-tenant caches) but with every
/// policy represented; lifespans capped so the quick tier stays quick, and a
/// contract-class mix so the caches see real re-use.
sim::ScenarioDomain service_domain() {
  sim::ScenarioDomain domain;
  domain.min_c = 2;
  domain.max_c = 48;
  domain.min_lifespan = 32;
  domain.max_lifespan = 2048;
  domain.min_interrupts = 0;
  domain.max_interrupts = 4;
  domain.contract_classes = 4;
  domain.class_fraction = 0.6;
  return domain;
}

void expect_metrics_eq(const sim::SessionMetrics& got,
                       const sim::SessionMetrics& want, const std::string& where) {
  EXPECT_EQ(got.banked_work, want.banked_work) << where;
  EXPECT_EQ(got.task_work, want.task_work) << where;
  EXPECT_EQ(got.comm_overhead, want.comm_overhead) << where;
  EXPECT_EQ(got.lost_work, want.lost_work) << where;
  EXPECT_EQ(got.salvaged_work, want.salvaged_work) << where;
  EXPECT_EQ(got.fragmentation, want.fragmentation) << where;
  EXPECT_EQ(got.lifespan_used, want.lifespan_used) << where;
  EXPECT_EQ(got.interrupts, want.interrupts) << where;
  EXPECT_EQ(got.episodes, want.episodes) << where;
  EXPECT_EQ(got.periods_completed, want.periods_completed) << where;
  EXPECT_EQ(got.periods_killed, want.periods_killed) << where;
  EXPECT_EQ(got.tasks_completed, want.tasks_completed) << where;
}

struct ServiceConfig {
  const char* label;
  service::QueueKind queue;
  std::size_t workers;
  std::size_t quota_bytes;  ///< per-tenant; small values force cache churn
  /// Cancel every Nth job right after submitting it (0 = never). Manual mode
  /// must accept every such cancel; with workers the job may already run.
  std::size_t cancel_every = 0;
};

/// Carves `specs` into jobs of 1..13 scenarios, dealt to 3 tenants round
/// robin, submits everything, and compares every per-scenario result with
/// the direct-runner baseline (index-aligned, so a mismatch names the exact
/// generated scenario). A job whose cancel was accepted must instead fetch
/// kCancelled with the exact cancellation text.
void run_differential(const std::vector<sim::ScenarioSpec>& specs,
                      const std::vector<sim::SessionMetrics>& baseline,
                      const ServiceConfig& config) {
  service::ServiceOptions options;
  options.workers = config.workers;
  options.queue = config.queue;
  options.drr_quantum = 4;
  options.max_queued_jobs_per_tenant = specs.size() + 1;  // admission open
  options.max_queued_jobs_total = specs.size() + 1;
  options.max_pending_scenarios_per_tenant = specs.size() + 1;
  options.tenant_cache_shards = 1;
  service::SchedulerService service(options);
  for (const char* tenant : {"t0", "t1", "t2"}) {
    service.set_tenant_quota(tenant, config.quota_bytes);
  }

  struct PendingJob {
    std::size_t first_index;  ///< position of the job's first spec in `specs`
    std::size_t count;
    service::JobId ticket;
    bool cancelled;
  };
  std::vector<PendingJob> jobs;
  std::size_t cursor = 0;
  std::size_t job_number = 0;
  while (cursor < specs.size()) {
    const std::size_t count =
        std::min<std::size_t>(1 + (cursor * 7 + job_number * 3) % 13,
                              specs.size() - cursor);
    std::vector<sim::ScenarioSpec> batch(specs.begin() + cursor,
                                         specs.begin() + cursor + count);
    const char* tenants[] = {"t0", "t1", "t2"};
    service::TicketSubmission sub =
        service.submit_job(tenants[job_number % 3], std::move(batch));
    ASSERT_TRUE(sub.accepted())
        << config.label << ": job " << job_number << " rejected: " << sub.reason;
    bool cancelled = false;
    if (config.cancel_every != 0 && (job_number + 1) % config.cancel_every == 0) {
      cancelled = service.cancel(sub.ticket.id);
      if (config.workers == 0) {
        EXPECT_TRUE(cancelled) << config.label << ": job " << job_number;
      }
    }
    jobs.push_back({cursor, count, sub.ticket.id, cancelled});
    cursor += count;
    ++job_number;
  }
  service.drain();
  const service::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.accepted_jobs,
            stats.completed_jobs + stats.failed_jobs + stats.cancelled_jobs)
      << config.label;
  EXPECT_EQ(stats.cancelled_jobs,
            static_cast<std::uint64_t>(std::count_if(
                jobs.begin(), jobs.end(),
                [](const PendingJob& job) { return job.cancelled; })))
      << config.label;

  for (const PendingJob& job : jobs) {
    service::FetchOutcome outcome = service.fetch_result(job.ticket);
    if (job.cancelled) {
      EXPECT_EQ(outcome.state, service::JobState::kCancelled) << config.label;
      EXPECT_EQ(outcome.error, "SchedulerService: job cancelled before execution")
          << config.label;
      continue;
    }
    ASSERT_TRUE(outcome.done())
        << config.label << ": " << to_string(outcome.state) << " "
        << outcome.error;
    const service::JobResult result = std::move(outcome.result);
    ASSERT_EQ(result.batch.per_scenario.size(), job.count) << config.label;
    for (std::size_t i = 0; i < job.count; ++i) {
      expect_metrics_eq(result.batch.per_scenario[i],
                        baseline[job.first_index + i],
                        std::string(config.label) + ": scenario #" +
                            std::to_string(job.first_index + i));
    }
  }
  service.shutdown(service::SchedulerService::StopMode::kDrain);
}

TEST(ServiceDifferential, MatchesDirectBatchRunnerAcrossPoliciesAndWorkers) {
  const int cases = fuzz_cases(200);
  const sim::ScenarioGenerator generator(service_domain(), /*seed=*/0x5EBF1CE);
  std::vector<sim::ScenarioSpec> specs;
  specs.reserve(static_cast<std::size_t>(cases));
  for (int i = 0; i < cases; ++i) {
    specs.push_back(generator.at(static_cast<std::uint64_t>(i)));
  }

  // The ground truth: one direct run, default cache, no service in sight.
  sim::BatchRunner direct;
  const sim::BatchResult want = direct.run(specs);
  ASSERT_EQ(want.per_scenario.size(), specs.size());

  const ServiceConfig configs[] = {
      // Manual single-thread FIFO: the minimal service path.
      {"fifo/manual", service::QueueKind::kFifo, 0, 1u << 20},
      // Fair-share queueing, real worker threads, and a TIGHT quota that
      // forces mid-workload eviction churn — none of it may leak into the
      // results.
      {"drr/3-workers/tight-quota", service::QueueKind::kDeficitRoundRobin, 3,
       64u << 10},
      // The cancel leg: every 5th job is cancelled right after its submit.
      // The remaining jobs' results may not move, whatever the cancels did
      // to the queue order and the caches.
      {"fifo/manual/cancel-every-5th", service::QueueKind::kFifo, 0, 1u << 20, 5},
      {"drr/3-workers/tight-quota/cancel-every-5th",
       service::QueueKind::kDeficitRoundRobin, 3, 64u << 10, 5},
  };
  for (const ServiceConfig& config : configs) {
    SCOPED_TRACE(config.label);
    run_differential(specs, want.per_scenario, config);
  }
}

}  // namespace
}  // namespace nowsched::conformance
