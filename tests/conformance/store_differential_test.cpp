// Persistent-store conformance differential: a generated workload run with
// the tiered cache's persistent store enabled — cold (baking the store),
// warm (served from mapped files), and through the multi-tenant service
// with a shared store mount — must produce per-scenario metrics
// BIT-IDENTICAL to a plain cached run with no store anywhere. The store
// changes which tier supplies a W(p)[L] table, never the table's contents
// (src/solver/table_store.h, "identical in every tier by construction").
//
// Rides the same NOWSCHED_FUZZ_CASES tier knob as the rest of the
// conformance binary, so the nightly 5000-case tier fuzzes the store format
// and tiering with it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "conformance/conformance_harness.h"
#include "service/scheduler_service.h"
#include "sim/batch_runner.h"
#include "sim/metrics.h"
#include "sim/scenario_gen.h"
#include "solver/table_store.h"

#if defined(_WIN32)
#include <process.h>
#else
#include <unistd.h>
#endif

namespace nowsched::conformance {
namespace {

/// dp-optimal-only domain: every scenario's table goes through the solve
/// cache (and therefore the store tier under test). Contract classes give
/// real key re-use; lifespans capped so the quick tier stays quick.
sim::ScenarioDomain store_domain() {
  sim::ScenarioDomain domain;
  domain.policies = {sim::PolicyKind::kDpOptimal};
  domain.min_c = 2;
  domain.max_c = 48;
  domain.min_lifespan = 32;
  domain.max_lifespan = 1536;
  domain.min_interrupts = 0;
  domain.max_interrupts = 4;
  domain.contract_classes = 6;
  domain.class_fraction = 0.5;
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

/// Scratch store directory under the system temp dir, removed on scope
/// exit (process-unique so parallel ctest shards cannot collide).
struct StoreDir {
  StoreDir() {
#if defined(_WIN32)
    const auto pid = static_cast<unsigned long>(::_getpid());
#else
    const auto pid = static_cast<unsigned long>(::getpid());
#endif
    path = std::filesystem::temp_directory_path() /
           ("nowsched-conformance-store-" + std::to_string(pid));
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~StoreDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::filesystem::path path;
};

TEST(StoreDifferential, TieredRunsMatchStorelessBaselineExactly) {
  const int cases = fuzz_cases(200);
  const sim::ScenarioGenerator generator(store_domain(), /*seed=*/0x57047ED1);
  std::vector<sim::ScenarioSpec> specs;
  specs.reserve(static_cast<std::size_t>(cases));
  for (int i = 0; i < cases; ++i) {
    specs.push_back(generator.at(static_cast<std::uint64_t>(i)));
  }

  // Ground truth: plain cached run, no persistent tier anywhere.
  sim::BatchRunner baseline_runner;
  const sim::BatchResult want = baseline_runner.run(specs);
  ASSERT_EQ(want.per_scenario.size(), specs.size());

  StoreDir dir;
  auto run_with_store = [&specs](const std::string& store_dir,
                                 bool read_only) {
    sim::BatchOptions options;
    options.cache.store = std::make_shared<solver::MappedTableStore>(
        solver::MappedTableStore::Options{store_dir, read_only});
    sim::BatchRunner runner(options);
    return runner.run(specs);
  };

  // COLD: every fresh solve spills; results must not notice.
  const sim::BatchResult cold = run_with_store(dir.path.string(), false);
  ASSERT_EQ(cold.per_scenario.size(), specs.size());
  EXPECT_GT(cold.cache.spills, 0u) << "dp-only workload must bake the store";
  EXPECT_EQ(cold.cache.store_hits, 0u);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    expect_metrics_eq(cold.per_scenario[i], want.per_scenario[i],
                      "cold-store scenario #" + std::to_string(i));
  }

  // WARM (read-only mount): every miss is a mapped read, zero solves —
  // and still bit-identical.
  const sim::BatchResult warm = run_with_store(dir.path.string(), true);
  EXPECT_EQ(warm.cache.store_hits, warm.cache.misses)
      << "a fully baked store must answer every miss";
  EXPECT_EQ(warm.cache.spills, 0u);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    expect_metrics_eq(warm.per_scenario[i], want.per_scenario[i],
                      "warm-store scenario #" + std::to_string(i));
  }

  // SERVICE: two tenants over the shared (already warm) store, worker
  // threads in play — the full deployment shape.
  service::ServiceOptions service_options;
  service_options.workers = 2;
  service_options.shared_store_dir = dir.path.string();
  service_options.shared_store_readonly = true;
  service_options.max_queued_jobs_per_tenant = specs.size() + 1;
  service_options.max_queued_jobs_total = specs.size() + 1;
  service_options.max_pending_scenarios_per_tenant = specs.size() + 1;
  service::SchedulerService service(service_options);

  struct PendingJob {
    std::size_t first_index;
    std::size_t count;
    service::JobId id;
  };
  std::vector<PendingJob> jobs;
  std::size_t cursor = 0;
  std::size_t job_number = 0;
  while (cursor < specs.size()) {
    const std::size_t count = std::min<std::size_t>(
        1 + (cursor * 5 + job_number) % 9, specs.size() - cursor);
    std::vector<sim::ScenarioSpec> batch(specs.begin() + cursor,
                                         specs.begin() + cursor + count);
    const service::TicketSubmission sub = service.submit_job(
        job_number % 2 == 0 ? "even" : "odd", std::move(batch));
    ASSERT_TRUE(sub.accepted()) << "job " << job_number << ": " << sub.reason;
    jobs.push_back({cursor, count, sub.ticket.id});
    cursor += count;
    ++job_number;
  }
  for (PendingJob& job : jobs) {
    const service::FetchOutcome outcome =
        service.fetch_result(job.id, /*wait=*/true);
    ASSERT_TRUE(outcome.done()) << "job " << job.id << ": " << outcome.error;
    const service::JobResult& result = outcome.result;
    ASSERT_EQ(result.batch.per_scenario.size(), job.count);
    for (std::size_t i = 0; i < job.count; ++i) {
      expect_metrics_eq(result.batch.per_scenario[i],
                        want.per_scenario[job.first_index + i],
                        "service/shared-store scenario #" +
                            std::to_string(job.first_index + i));
    }
  }
  service.shutdown(service::SchedulerService::StopMode::kDrain);
}

}  // namespace
}  // namespace nowsched::conformance
