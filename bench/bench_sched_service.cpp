// E15 — scheduler service: multi-tenant throughput and fairness of
// service::SchedulerService under SKEWED tenant load, sweeping queue policy
// (FIFO vs deficit round robin) x worker count. One hog tenant bursts many
// jobs ahead of three modest tenants; the quantity under test is Jain's
// fairness index over per-tenant completed scenarios WITHIN THE FIRST HALF
// of the completion order — the window where queueing discipline matters
// (by the end of a drained run every tenant has finished everything, so
// end-state shares are trivially equal). FIFO serves the hog's burst first
// (fairness tracks offered load); DRR holds the index near 1.0 regardless
// of skew. Total banked work is asserted bit-identical across every cell:
// scheduling decides when, never what.
#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/harness.h"

#include "service/scheduler_service.h"
#include "sim/batch_runner.h"

namespace nowsched::bench {
namespace {

struct CompletionRecord {
  std::uint64_t completion_index;
  std::size_t tenant;  ///< 0 is the hog
  std::size_t scenarios;
};

struct CellResult {
  double fairness_half = 0.0;
  double hog_share_half = 0.0;
  double pooled_hit_rate = 0.0;
  Ticks banked_total = 0;
  std::size_t scenarios_total = 0;
};

// dp-optimal scenarios over `keys` contract classes so the per-tenant
// caches see re-use; tenant-distinct seeds keep sessions independent.
std::vector<sim::ScenarioSpec> job_specs(std::size_t scenarios, std::size_t keys,
                                         Ticks base_u, std::uint64_t seed) {
  std::vector<sim::ScenarioSpec> specs;
  specs.reserve(scenarios);
  for (std::size_t i = 0; i < scenarios; ++i) {
    sim::ScenarioSpec spec;
    spec.policy = sim::PolicyKind::kDpOptimal;
    spec.owner = sim::OwnerKind::kPoisson;
    spec.owner_a = 2500.0;
    spec.params = Params{32};
    spec.lifespan = base_u + static_cast<Ticks>((seed + i) % keys) * 256;
    spec.max_interrupts = 3;
    spec.seed = seed * 131 + i;
    specs.push_back(spec);
  }
  return specs;
}

CellResult run_cell(service::QueueKind queue, std::size_t workers,
                    std::size_t hog_jobs, std::size_t other_jobs,
                    std::size_t scenarios, std::size_t keys, Ticks base_u,
                    std::size_t tenants) {
  service::ServiceOptions options;
  options.workers = workers;
  options.queue = queue;
  options.drr_quantum = scenarios;  // one job's worth of credit per visit
  const std::size_t total_jobs = hog_jobs + (tenants - 1) * other_jobs;
  options.max_queued_jobs_per_tenant = total_jobs + 1;  // admission open:
  options.max_queued_jobs_total = total_jobs + 1;       // we bench queueing,
  options.max_pending_scenarios_per_tenant =            // not backpressure
      (total_jobs + 1) * scenarios;
  service::SchedulerService service(options);
  for (std::size_t t = 0; t < tenants; ++t) {
    service.set_tenant_quota("tenant-" + std::to_string(t), 4u << 20);
  }

  // The hog bursts all its jobs FIRST — the arrival pattern FIFO is blind
  // to and DRR exists for.
  struct Pending {
    std::size_t tenant;
    service::JobId id;
  };
  std::vector<Pending> pending;
  pending.reserve(total_jobs);
  std::uint64_t job_seed = 1;
  auto submit = [&](std::size_t tenant) {
    const service::TicketSubmission sub =
        service.submit_job("tenant-" + std::to_string(tenant),
                           job_specs(scenarios, keys, base_u, job_seed++));
    if (!sub.accepted()) {
      throw std::logic_error("sched_service bench: submission rejected: " +
                             sub.reason);
    }
    pending.push_back({tenant, sub.ticket.id});
  };
  for (std::size_t j = 0; j < hog_jobs; ++j) submit(0);
  for (std::size_t j = 0; j < other_jobs; ++j) {
    for (std::size_t t = 1; t < tenants; ++t) submit(t);
  }

  CellResult cell;
  std::vector<CompletionRecord> completions;
  completions.reserve(total_jobs);
  for (Pending& p : pending) {
    const service::FetchOutcome outcome = service.fetch_result(p.id, /*wait=*/true);
    if (!outcome.done()) {
      throw std::runtime_error("sched_service bench: job failed: " + outcome.error);
    }
    const service::JobResult& result = outcome.result;
    completions.push_back(
        {result.completion_index, p.tenant, result.batch.per_scenario.size()});
    cell.banked_total += result.batch.aggregate.banked_work;
    cell.scenarios_total += result.batch.per_scenario.size();
  }
  service.shutdown(service::SchedulerService::StopMode::kDrain);

  // Fairness window: per-tenant completed scenarios within the first half
  // of the completion ORDER (an ordering fact, not a timing one).
  std::sort(completions.begin(), completions.end(),
            [](const CompletionRecord& a, const CompletionRecord& b) {
              return a.completion_index < b.completion_index;
            });
  std::vector<double> share(tenants, 0.0);
  std::size_t in_window = 0;
  for (const CompletionRecord& record : completions) {
    if (in_window >= cell.scenarios_total / 2) break;
    share[record.tenant] += static_cast<double>(record.scenarios);
    in_window += record.scenarios;
  }
  cell.fairness_half = service::jains_fairness(share);
  cell.hog_share_half = in_window > 0
                            ? share[0] / static_cast<double>(in_window)
                            : 0.0;

  std::uint64_t hits = 0, misses = 0;
  const service::ServiceStats stats = service.stats();  // outlive the loop
  for (const service::TenantStats& t : stats.tenants) {
    hits += t.cache.hits;
    misses += t.cache.misses;
  }
  cell.pooled_hit_rate =
      hits + misses > 0
          ? static_cast<double>(hits) / static_cast<double>(hits + misses)
          : 0.0;
  return cell;
}

void run(harness::Context& ctx) {
  const util::Flags& flags = ctx.flags();
  const std::size_t tenants =
      static_cast<std::size_t>(flags.get_int("tenants", 4));
  const std::size_t scenarios =
      static_cast<std::size_t>(flags.get_int("scenarios", ctx.quick() ? 4 : 6));
  const std::size_t hog_jobs = static_cast<std::size_t>(
      flags.get_int("hog-jobs", ctx.quick() ? 16 : 48));
  const std::size_t other_jobs = static_cast<std::size_t>(
      flags.get_int("other-jobs", ctx.quick() ? 4 : 12));
  const std::size_t keys =
      static_cast<std::size_t>(flags.get_int("keys", 4));
  const Ticks base_u = flags.get_int("u", ctx.quick() ? 1024 : 2048);
  if (tenants < 2) throw std::invalid_argument("E15 needs --tenants >= 2");

  const std::vector<std::size_t> worker_counts =
      ctx.quick() ? std::vector<std::size_t>{1, 2}
                  : std::vector<std::size_t>{1, 2, 4};

  ctx.csv({"queue", "workers", "jobs", "scenarios_total", "wall_ms",
           "scenarios_per_sec", "fairness_half", "hog_share_half",
           "pooled_hit_rate", "banked_total"});
  util::Table out({"queue", "workers", "wall ms", "scen/s", "fairness@half",
                   "hog share", "hit rate"});

  const std::size_t total_jobs = hog_jobs + (tenants - 1) * other_jobs;
  Ticks banked_reference = -1;
  double fairness_fifo_1w = 0.0, fairness_drr_1w = 0.0, best_per_sec = 0.0;

  for (const service::QueueKind queue :
       {service::QueueKind::kFifo, service::QueueKind::kDeficitRoundRobin}) {
    for (const std::size_t workers : worker_counts) {
      CellResult cell;
      const double ms = harness::time_best_of_ms(1, [&] {
        cell = run_cell(queue, workers, hog_jobs, other_jobs, scenarios, keys,
                        base_u, tenants);
      });
      if (banked_reference < 0) banked_reference = cell.banked_total;
      if (cell.banked_total != banked_reference) {
        throw std::logic_error(
            "service results diverged across queue policies/worker counts: "
            "determinism contract broken");
      }
      const double per_sec =
          ms > 0 ? static_cast<double>(cell.scenarios_total) / (ms / 1000.0)
                 : 0.0;
      best_per_sec = std::max(best_per_sec, per_sec);
      if (workers == 1 && queue == service::QueueKind::kFifo) {
        fairness_fifo_1w = cell.fairness_half;
      }
      if (workers == 1 && queue == service::QueueKind::kDeficitRoundRobin) {
        fairness_drr_1w = cell.fairness_half;
      }

      const char* name = service::to_string(queue);
      ctx.write_csv_row(
          {name, std::to_string(workers), std::to_string(total_jobs),
           std::to_string(cell.scenarios_total), util::Table::fmt(ms, 5),
           util::Table::fmt(per_sec, 5), util::Table::fmt(cell.fairness_half, 4),
           util::Table::fmt(cell.hog_share_half, 4),
           util::Table::fmt(cell.pooled_hit_rate, 4),
           std::to_string(static_cast<long long>(cell.banked_total))});
      out.add_row({name, util::Table::fmt(static_cast<unsigned long long>(workers)),
                   util::Table::fmt(ms, 5), util::Table::fmt(per_sec, 5),
                   util::Table::fmt(cell.fairness_half, 4),
                   util::Table::fmt(cell.hog_share_half, 4),
                   util::Table::fmt(cell.pooled_hit_rate, 4)});
    }
  }

  ctx.metric("fairness_half_fifo_1w", fairness_fifo_1w);
  ctx.metric("fairness_half_drr_1w", fairness_drr_1w);
  ctx.metric("best_scenarios_per_sec", best_per_sec);

  ctx.table(out, std::to_string(total_jobs) + " jobs (" +
                     std::to_string(hog_jobs) + " from the hog, " +
                     std::to_string(other_jobs) + " from each of " +
                     std::to_string(tenants - 1) + " modest tenants), " +
                     std::to_string(scenarios) + " dp-optimal scenarios/job over " +
                     std::to_string(keys) + " contract classes");
  ctx.text(
      "Reading: the hog submits its whole burst before anyone else.\n"
      "`fairness@half` is Jain's index over per-tenant completed scenarios\n"
      "within the first half of the completion order — FIFO lets the burst\n"
      "monopolize that window (hog share near 1), deficit round robin meters\n"
      "it back toward an even split (index near 1.0). `banked_total` is\n"
      "bit-identical in every cell: the queue policy and worker count decide\n"
      "when a job runs, never what it computes.");
}

}  // namespace

const harness::Experiment& experiment_sched_service() {
  static const harness::Experiment e{
      "E15", "sched_service",
      "Scheduler service: multi-tenant fairness and throughput under skew",
      "bench_sched_service",
      "service::SchedulerService under a skewed multi-tenant load — one hog "
      "bursting ahead of modest tenants — sweeping queue policy (FIFO vs "
      "deficit round robin) and worker count; reports Jain's fairness index "
      "over the first-half completion window, scenario throughput, per-tenant "
      "cache hit rates, and asserts results are bit-identical in every cell.",
      run};
  return e;
}

}  // namespace nowsched::bench
