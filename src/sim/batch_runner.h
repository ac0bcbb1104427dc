// Batched many-session simulation: thousands of heterogeneous cycle-stealing
// sessions, executed in parallel, with the underlying W(p)[L] solves and
// the sessions' opening episodes deduplicated through solver::SolveCache.
//
// Where sim::run_farm interleaves a handful of workstations on ONE shared
// clock (they drain a common task bag), BatchRunner is the throughput layer
// above it: every ScenarioSpec is an independent session (own clock, own
// adversary stream), so a batch is embarrassingly parallel — the only shared
// state is the solve cache, which is exactly the state worth sharing:
// dp-optimal scenarios with equal canonical solver inputs (see
// solver/solve_cache.h) re-use one table instead of re-solving per session,
// and scenarios with the same policy kind and exact contract (c, U, p)
// re-use one memoized opening episode instead of rebuilding it (the cache
// stores it once the key repeats). Episodes after an interrupt are built by
// the policy as before.
//
// Determinism contract: run() fills per_scenario[i] from spec i alone — the
// adversary stream is derived from spec.seed via util::hash_combine (no
// global RNG, no time, no thread identity) and the aggregate is merged in
// index order after the parallel region. Results are therefore bit-identical
// across thread counts, submission orders, and with or without a cache: the
// cache only changes WHO solves a table or builds an opening episode, never
// what the table or the episode is. Verified by
// tests/sim_batch_determinism_test.cpp at 1/2/8 threads and against the
// uncached runner over every policy and owner kind.
//
// Threading contract: run() drives options.pool through one blocking
// parallel_for, so call it from a thread that is not itself a pool worker
// (the ThreadPool contract). Each solve triggered inside the batch runs on
// the session's own thread: the batch itself is the parallelism.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "adversary/adversary.h"
#include "core/policy.h"
#include "core/types.h"
#include "sim/metrics.h"
#include "solver/solve_cache.h"
#include "util/thread_pool.h"

namespace nowsched::sim {

/// Which scheduling policy a scenario runs. kDpOptimal is the one that
/// needs a W(p)[L] solve (and therefore exercises the cache); the guideline
/// policies are closed-form.
enum class PolicyKind {
  kEqualized,          ///< core/equalized.h (paper §4.2, Thm 4.3)
  kAdaptivePaper,      ///< core/guidelines.h §3.2 printed constants
  kNonAdaptiveRestart, ///< core/guidelines.h §3.1 re-applied per episode
  kDpOptimal,          ///< solver::OptimalPolicy over a (cached) value table
};

/// Which stochastic owner model interrupts the session. The first three live
/// in adversary/stochastic.h; the rest are the generative processes of
/// adversary/processes.h (see owner_a..owner_d in ScenarioSpec for how the
/// four generic parameter slots map onto each model).
enum class OwnerKind {
  kPoisson,          ///< a = mean inter-arrival gap
  kPareto,           ///< a = scale, b = shape
  kUniform,          ///< a = per-episode interrupt probability
  kMarkovModulated,  ///< a = calm gap, b = busy gap, c = calm dwell, d = busy dwell
  kInhomogeneous,    ///< a = mean gap, b = depth, c = period, d = phase
  kBursty,           ///< a = inter-burst scale, b = shape, c = mean burst, d = intra gap
  kCorrelatedShock,  ///< a = shock gap, b = response prob; shared group_seed stream
};

const char* to_string(PolicyKind kind);
const char* to_string(OwnerKind kind);

/// One session of the batch: policy kind, owner (lifetime) distribution,
/// contract (c, U, p), and the seed its private RNG stream derives from.
/// owner_a..owner_d are generic process-parameter slots interpreted per
/// OwnerKind (see the enum); unused slots are ignored by validation.
struct ScenarioSpec {
  PolicyKind policy = PolicyKind::kEqualized;
  OwnerKind owner = OwnerKind::kPoisson;
  double owner_a = 3000.0;  ///< slot 1 (e.g. Poisson mean gap)
  double owner_b = 1.5;     ///< slot 2 (e.g. Pareto shape)
  double owner_c = 0.0;     ///< slot 3 (process models only)
  double owner_d = 0.0;     ///< slot 4 (process models only)
  Params params;            ///< setup cost c
  Ticks lifespan = 0;       ///< contract lifespan U
  int max_interrupts = 0;   ///< contract interrupt bound p
  std::uint64_t seed = 0;   ///< root of this scenario's private RNG stream
  /// Correlation group: kCorrelatedShock owners constructed with equal
  /// group_seed share one shock stream (a farm failing together). Ignored
  /// by the other owners; 0 is just another group id.
  std::uint64_t group_seed = 0;
};

struct BatchOptions {
  /// Pool the sessions fan out on; nullptr runs the batch on the calling
  /// thread (still through the same code path, so results are identical).
  util::ThreadPool* pool = nullptr;
  /// The cache dp-optimal solves and opening episodes go through, owned by
  /// the caller and outliving the runner. Callers share one cache across
  /// runners and runs: service::SchedulerService passes each tenant's
  /// quota-budgeted cache to every job the tenant runs. nullptr (the
  /// default) means every dp-optimal scenario solves its own table and every
  /// session builds its own episodes — the "naive per-session re-solving"
  /// baseline E13 measures against.
  solver::SolveCache* shared_cache = nullptr;
};

struct BatchResult {
  /// per_scenario[i] is the metrics of specs[i] — index-aligned, never
  /// reordered by scheduling.
  std::vector<SessionMetrics> per_scenario;
  /// All sessions merged in index order.
  SessionMetrics aggregate;
  /// Lifetime counters of BatchOptions::shared_cache after this run (so
  /// they include other runs and runners on the same cache); all zero
  /// without a cache.
  solver::SolveCacheStats cache;
  std::size_t scenarios = 0;
};

class BatchRunner {
 public:
  /// A default-constructed runner has no cache: every dp-optimal scenario
  /// solves its own table.
  explicit BatchRunner(BatchOptions options = {}) : options_(options) {}

  /// Runs every scenario to completion and aggregates. Specs are validated
  /// up front (invalid ones throw std::invalid_argument naming the index —
  /// no session starts). The cache outlives the call, so a second run()
  /// over similar specs starts warm.
  BatchResult run(const std::vector<ScenarioSpec>& specs);

 private:
  BatchOptions options_;
};

/// Validates every spec exactly like BatchRunner::run does up front: throws
/// std::invalid_argument naming the first invalid index. Exposed so the
/// service layer can reject a malformed scenario at admission time (with the
/// reason in the submit status) instead of poisoning a queued job.
void validate_batch_specs(const std::vector<ScenarioSpec>& specs);

/// Derives the deterministic adversary seed of `spec` (exposed so tests can
/// reproduce a batch entry with sim::run_session directly).
std::uint64_t scenario_stream_seed(const ScenarioSpec& spec);

/// Builds the spec's owner adversary, seeded from scenario_stream_seed —
/// exactly the one a BatchRunner session would face. Throws
/// std::invalid_argument on bad owner parameters.
std::unique_ptr<adversary::Adversary> make_owner(const ScenarioSpec& spec);

/// Builds the spec's scheduling policy — the one a BatchRunner session
/// runs. kDpOptimal takes its table from `cache` (solver::solve_shared,
/// uncached, when it is nullptr); the other kinds ignore it. The
/// conformance suite uses this + make_owner to rebuild a replayed
/// scenario's session bit-for-bit.
std::shared_ptr<const SchedulingPolicy> make_policy(const ScenarioSpec& spec,
                                                    solver::SolveCache* cache = nullptr);

}  // namespace nowsched::sim
