#include "replay.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>

#include "common.h"
#include "rpc/frame.h"
#include "rpc/protocol.h"
#include "service/scheduler_service.h"
#include "sim/session.h"
#include "solver/extract.h"
#include "solver/fast_solver.h"

namespace perfbench {

namespace {

using ns::rpc::MsgType;
using ns::rpc::wire_code;
using ns::solver::SolveCacheStats;

/// A replica of the daemon's solver tiers: its own scratch directory and
/// store (baked again, or empty), per-tenant caches with the service's
/// quota and shards, warmed the way the daemon's set-up warms them.
struct Replica {
  Replica(const JobSource& source, const std::filesystem::path& work_root, BakeCounts& bake)
      : dir(work_root),
        store(open_store(source.workload(), prepare_store(source, dir.path(), bake))),
        caches(tenant_caches(source.workload(), store)) {
    if (!source.workload().warm_up) return;
    for (auto& cache : caches) {
      ns::sim::BatchOptions options;
      options.shared_cache = cache.get();
      ns::sim::BatchRunner(options).run(source.class_specs());
    }
  }

  SolveCacheStats totals() const {
    SolveCacheStats sum;
    for (const auto& cache : caches) {
      const SolveCacheStats s = cache->stats();
      sum.hits += s.hits;
      sum.misses += s.misses;
      sum.store_hits += s.store_hits;
      sum.spills += s.spills;
    }
    return sum;
  }

  ScratchDir dir;
  std::shared_ptr<ns::solver::TableStore> store;
  std::vector<std::unique_ptr<ns::solver::SolveCache>> caches;
};

template <typename F>
double timed(F&& f) {
  const Clock::time_point t0 = Clock::now();
  f();
  return seconds_between(t0, Clock::now());
}

/// Replays one job through each layer's public functions, in the order the
/// daemon path calls them, accumulating per-layer time into `trace`.
/// Returns the digest of the replayed per-scenario metrics.
std::uint64_t decompose_job(const Job& job, std::uint64_t job_id, Replica& replica,
                            ns::solver::MappedTableStore* side_store,
                            ns::service::SchedulerService& admission, LayerTrace& trace) {
  const std::string tenant = tenant_name(job.tenant);

  // rpc: the request the client encodes and the server decodes.
  ns::rpc::SubmitBatchRequest request{tenant, job.specs};
  std::string payload;
  std::string frame;
  trace.encode_s += timed([&] {
    payload = ns::rpc::encode_submit_batch(request);
    frame = ns::rpc::encode_frame(wire_code(MsgType::kSubmitBatch), payload);
  });
  trace.decode_s += timed([&] { (void)ns::rpc::decode_submit_batch(payload); });
  trace.frame_bytes += static_cast<double>(frame.size());

  // service: admission alone. The job is cancelled and settled straight
  // away so the manual-mode service never executes it.
  ns::service::TicketSubmission admitted;
  trace.admit_s += timed([&] { admitted = admission.submit_job(tenant, job.specs); });
  if (admitted.accepted()) {
    admission.cancel(admitted.ticket.id);
    admission.run_next();
    (void)admission.fetch_result(admitted.ticket.id, false);
  }

  // sim + solver: what BatchRunner::run does, one public call at a time.
  trace.validate_s += timed([&] { ns::sim::validate_batch_specs(job.specs); });
  ns::solver::SolveCache& cache = *replica.caches[job.tenant];
  std::vector<ns::sim::SessionMetrics> per_scenario;
  per_scenario.reserve(job.specs.size());
  for (const ns::sim::ScenarioSpec& spec : job.specs) {
    std::shared_ptr<const ns::SchedulingPolicy> policy;
    if (spec.policy == ns::sim::PolicyKind::kDpOptimal) {
      const ns::solver::SolveRequest req{spec.max_interrupts, spec.lifespan, spec.params};
      const SolveCacheStats before = cache.stats();
      std::shared_ptr<const ns::solver::ValueTable> table;
      const double lookup_s = timed([&] { table = cache.get_or_solve(req); });
      const SolveCacheStats after = cache.stats();
      const ns::solver::SolveKey key = ns::solver::canonical_key(req);
      if (after.hits > before.hits) {
        trace.hit_s += lookup_s;
        ++trace.hits;
      } else if (after.store_hits > before.store_hits) {
        // The same load again, on the same page-cache state.
        trace.load_s += timed([&] { (void)replica.store->load(key); });
        trace.load_bytes += static_cast<double>(table->bytes());
        ++trace.loads;
      } else {
        trace.solve_s += timed([&] { (void)ns::solver::solve_shared(req); });
        trace.solve_cells += static_cast<double>(key.max_p + 1) *
                             static_cast<double>(key.max_lifespan + 1);
        trace.solve_bytes += static_cast<double>(table->bytes());
        ++trace.solves;
        if (after.spills > before.spills && side_store != nullptr) {
          trace.spill_s += timed([&] { (void)side_store->store(key, table); });
          ++trace.spills;
        }
      }
      policy = std::make_shared<ns::solver::OptimalPolicy>(table);
    } else {
      policy = ns::sim::make_policy(spec);
    }
    auto owner = ns::sim::make_owner(spec);
    ns::sim::SessionMetrics m;
    trace.session_s += timed([&] {
      m = ns::sim::run_session(*policy, *owner,
                               ns::Opportunity{spec.lifespan, spec.max_interrupts},
                               spec.params);
    });
    trace.periods += static_cast<double>(m.periods_completed + m.periods_killed);
    per_scenario.push_back(m);
  }

  // rpc: the reply the server encodes and the client decodes, plus the two
  // small frames of the round trip.
  ns::rpc::JobResultReply reply;
  reply.state = ns::service::JobState::kDone;
  reply.tenant = tenant;
  reply.job_id = job_id;
  reply.per_scenario = per_scenario;
  for (const auto& m : per_scenario) reply.aggregate.merge(m);
  reply.cache = cache.stats();
  trace.encode_s += timed([&] {
    payload = ns::rpc::encode_job_result_reply(reply);
    frame = ns::rpc::encode_frame(wire_code(MsgType::kJobResultReply), payload);
  });
  trace.decode_s += timed([&] { (void)ns::rpc::decode_job_result_reply(payload); });
  trace.frame_bytes += static_cast<double>(frame.size());
  trace.frame_bytes += static_cast<double>(
      ns::rpc::encode_frame(wire_code(MsgType::kSubmitReply),
                            ns::rpc::encode_submit_reply({{}, {}, job_id}))
          .size());
  trace.frame_bytes += static_cast<double>(
      ns::rpc::encode_frame(wire_code(MsgType::kJobResult),
                            ns::rpc::encode_job_result({job_id, true}))
          .size());

  ++trace.decomposed_jobs;
  trace.decomposed_scenarios += job.specs.size();
  return digest(per_scenario, reply.aggregate);
}

}  // namespace

GateResult verify_jobs(const JobSource& source, const std::vector<JobRecord>& records,
                       const std::filesystem::path& work_root, LayerTrace* trace,
                       double decompose_seconds) {
  GateResult result;
  Replica gate(source, work_root, result.bake);
  const SolveCacheStats before = gate.totals();

  std::vector<const JobRecord*> todo;
  for (const JobRecord& r : records) {
    if (r.ok) todo.push_back(&r);
  }
  result.checked = todo.size();

  auto run_job = [&](const JobRecord& record, const Job& job, double* batch_ms) {
    ns::sim::BatchOptions options;
    options.shared_cache = gate.caches[job.tenant].get();
    ns::sim::BatchRunner runner(options);
    ns::sim::BatchResult batch;
    const double s = timed([&] { batch = runner.run(job.specs); });
    if (batch_ms != nullptr) *batch_ms = s * 1e3;
    return digest(batch.per_scenario, batch.aggregate) == record.digest;
  };

  if (trace == nullptr) {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> mismatched{0};
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < std::max(1u, std::thread::hardware_concurrency()); ++t) {
      pool.emplace_back([&] {
        for (std::size_t i = next++; i < todo.size(); i = next++) {
          try {
            if (!run_job(*todo[i], source.job(todo[i]->index), nullptr)) ++mismatched;
          } catch (const std::exception&) {
            ++mismatched;  // a rerun that throws cannot vouch for the daemon's result
          }
        }
      });
    }
    for (std::thread& t : pool) t.join();
    result.mismatched = mismatched;
    return result;
  }

  // Traced: one thread, so per-job times and tier counts match a single
  // service worker's view, plus the layer decomposition on a second replica.
  Replica decomposition(source, work_root, result.bake);
  // Spills are timed into a store of their own, so each one really writes.
  std::unique_ptr<ScratchDir> side_dir;
  std::unique_ptr<ns::solver::MappedTableStore> side_store;
  if (source.workload().store == StoreMode::kEmptyReadWrite) {
    side_dir = std::make_unique<ScratchDir>(work_root);
    side_store = std::make_unique<ns::solver::MappedTableStore>(
        ns::solver::MappedTableStore::Options{side_dir->path().string(), false, true});
  }
  // Admission never reads the store, so the manual service mounts none.
  ns::service::ServiceOptions manual = service_options(source.workload(), {});
  manual.workers = 0;
  ns::service::SchedulerService admission(manual);

  const Clock::time_point t0 = Clock::now();
  for (const JobRecord* record : todo) {
    const Job job = source.job(record->index);
    double batch_ms = 0.0;
    if (!run_job(*record, job, &batch_ms)) ++result.mismatched;
    trace->batch_ms.push_back(batch_ms);
    trace->gated_scenarios += job.specs.size();
    for (const auto& spec : job.specs) {
      trace->dp_scenarios += spec.policy == ns::sim::PolicyKind::kDpOptimal;
    }
    if (trace->decomposed_jobs == 0 || seconds_between(t0, Clock::now()) < decompose_seconds) {
      if (decompose_job(job, record->index + 1, decomposition, side_store.get(), admission,
                        *trace) != record->digest) {
        ++result.mismatched;
      }
    }
  }
  const SolveCacheStats after = gate.totals();
  trace->cache.hits = after.hits - before.hits;
  trace->cache.misses = after.misses - before.misses;
  trace->cache.store_hits = after.store_hits - before.store_hits;
  trace->cache.spills = after.spills - before.spills;
  return result;
}

std::size_t kernel_mismatches(const JobSource& source, std::size_t samples,
                              std::size_t& compared) {
  compared = 0;
  std::size_t mismatches = 0;
  for (std::uint64_t index = 0; compared < samples && index < 64; ++index) {
    for (const ns::sim::ScenarioSpec& spec : source.job(index).specs) {
      if (spec.policy != ns::sim::PolicyKind::kDpOptimal || compared == samples) continue;
      const ns::solver::SolveRequest req{spec.max_interrupts, spec.lifespan, spec.params};
      const auto active = ns::solver::solve_shared(req);
      ns::solver::force_solver_kernel(ns::solver::SolverKernel::kLegacy);
      struct Unforce {
        ~Unforce() { ns::solver::clear_forced_solver_kernel(); }
      } unforce;
      const auto legacy = ns::solver::solve_shared(req);
      const auto a = active->slab();
      const auto b = legacy->slab();
      if (!std::equal(a.begin(), a.end(), b.begin(), b.end())) ++mismatches;
      ++compared;
      break;  // one table per job spreads the sample over contracts
    }
  }
  return mismatches;
}

}  // namespace perfbench
