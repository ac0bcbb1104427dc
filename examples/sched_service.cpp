// Multi-tenant scheduler service: the resident-daemon face of the library.
//
//   ./sched_service --jobs=48 --scenarios=8 --workers=4 --queue=drr
//                   --tenants=3 --quota-mb=4 --skew=4 --seed=7
//
// Mirrors the launcher surface of a scheduler daemon (queue class x cache
// quota x worker count): tenants submit scenario-batch jobs through the
// JobTicket handle API against a resident service::SchedulerService,
// overflow comes back as a backpressure status the submitter retries on,
// and the run ends with the same `nowsched-stats v1` snapshot the daemon's
// Stats RPC serves — one format for both surfaces — plus the operator
// summary lines (pooled latency, Jain's fairness). --skew makes tenant 0
// offer N times the load of the others, which is what separates FIFO
// (fairness tracks offered load) from DRR (fairness holds anyway).
//
// The exit status is an invariant check, not decoration: every accepted
// ticket must fetch exactly once as kDone, the stats conservation laws must
// balance, and the stats text must round-trip its strict parser.
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "nowsched.h"

using namespace nowsched;

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const std::size_t jobs = flags.get_count("jobs", 48);
  const std::size_t scenarios = flags.get_count("scenarios", 8);
  const std::size_t workers = flags.get_count("workers", 4);
  const std::size_t tenants = flags.get_count("tenants", 3);
  const std::size_t quota_mb = flags.get_count("quota-mb", 4);
  const std::size_t skew = flags.get_count("skew", 1);
  const std::uint64_t seed = static_cast<std::uint64_t>(flags.get_int("seed", 7));
  const std::string queue_name = flags.get("queue", "drr");
  if (jobs == 0 || scenarios == 0 || tenants == 0 || skew == 0) {
    std::cerr << "sched_service: --jobs/--scenarios/--tenants/--skew must be >= 1\n";
    return 2;
  }

  service::ServiceOptions options;
  options.workers = workers;
  try {
    options.queue = service::queue_kind_from_string(queue_name);
  } catch (const std::invalid_argument& e) {
    flags.usage_error("queue", "fifo | drr | fair-share", queue_name);
  }
  options.drr_quantum = flags.get_count("quantum", 8);
  options.max_queued_jobs_per_tenant = flags.get_count("tenant-depth", 16);
  options.max_queued_jobs_total = flags.get_count("global-depth", 64);

  service::SchedulerService service(options);
  for (std::size_t t = 0; t < tenants; ++t) {
    service.set_tenant_quota("tenant-" + std::to_string(t), quota_mb << 20);
  }

  // dp-optimal scenarios over a few contract classes, so the per-tenant
  // caches see genuine re-use inside their quotas.
  sim::ScenarioDomain domain;
  domain.policies = {sim::PolicyKind::kDpOptimal};
  domain.max_lifespan = 2048;
  domain.contract_classes = 4;
  sim::ScenarioGenerator generator(domain, seed);

  // Tenant 0 offers `skew`x the share of the others (a weighted deal);
  // submission retries on backpressure — the cooperative protocol.
  std::vector<service::JobTicket> tickets;
  tickets.reserve(jobs);
  std::size_t rejected_retries = 0;
  for (std::size_t j = 0; j < jobs; ++j) {
    const std::size_t slot = j % (tenants + skew - 1);
    const std::size_t t = slot < skew ? 0 : slot - skew + 1;
    const std::string tenant = "tenant-" + std::to_string(t);
    std::vector<sim::ScenarioSpec> specs = generator.batch(scenarios);
    for (;;) {
      service::TicketSubmission sub = service.submit_job(tenant, specs);
      if (sub.accepted()) {
        tickets.push_back(std::move(sub.ticket));
        break;
      }
      if (!service::is_backpressure(sub.status)) {
        std::cerr << "sched_service: submit rejected: "
                  << service::to_string(sub.status) << " (" << sub.reason << ")\n";
        return 1;
      }
      ++rejected_retries;
      if (workers == 0) {
        (void)service.run_next();  // manual mode: make room ourselves
      } else {
        std::this_thread::yield();
      }
    }
  }
  if (workers == 0) service.drain();

  std::uint64_t resolved = 0;
  for (const service::JobTicket& ticket : tickets) {
    const service::FetchOutcome outcome = service.fetch_result(ticket.id);
    if (!outcome.done()) {
      std::cerr << "sched_service: job " << ticket.id << " ended "
                << service::to_string(outcome.state) << " (" << outcome.error
                << ")\n";
      return 1;
    }
    if (outcome.result.batch.per_scenario.size() != scenarios) {
      std::cerr << "sched_service: job " << ticket.id
                << " returned wrong scenario count\n";
      return 1;
    }
    // Exactly-once: the fetch consumed the ticket.
    if (service.job_state(ticket.id) != service::JobState::kUnknown) {
      std::cerr << "sched_service: job " << ticket.id
                << " still known after its result was fetched\n";
      return 1;
    }
    ++resolved;
  }
  service.shutdown(service::SchedulerService::StopMode::kDrain);

  const service::ServiceStats stats = service.stats();
  std::cout << "jobs=" << jobs << " scenarios/job=" << scenarios
            << " quota=" << quota_mb << "MiB skew=" << skew
            << " (retries absorbed: " << rejected_retries << ")\n\n";

  // The same versioned snapshot the daemon's Stats RPC serves.
  const std::string stats_text = service::to_stats_string(stats);
  std::cout << stats_text << "\n";

  std::vector<double> completed_share;
  for (const service::TenantStats& t : stats.tenants) {
    completed_share.push_back(static_cast<double>(t.completed_scenarios));
  }
  std::cout << "pooled p50/p99: " << stats.latency.p50_ms << " / "
            << stats.latency.p99_ms << " ms; Jain fairness over completed "
            << "scenarios: " << service::jains_fairness(completed_share) << "\n";

  // Invariant audit — the exit status the smoke test keys on.
  bool round_trips = false;
  try {
    round_trips =
        service::to_stats_string(service::stats_from_string(stats_text)) ==
        stats_text;
  } catch (const std::invalid_argument&) {
  }
  if (!round_trips) {
    std::cerr << "sched_service: nowsched-stats v1 round-trip failed\n";
    return 1;
  }
  if (resolved != tickets.size() || stats.completed_jobs != resolved ||
      stats.failed_jobs != 0 || stats.cancelled_jobs != 0 ||
      stats.queued_jobs != 0 || stats.inflight_jobs != 0 ||
      stats.submitted_jobs != stats.accepted_jobs + stats.rejected_jobs) {
    std::cerr << "sched_service: stats conservation violated\n";
    return 1;
  }
  std::cout << "all " << resolved << " jobs resolved; conservation laws hold\n";
  return 0;
}
