// Exact guaranteed work of an arbitrary *fixed* adaptive policy.
//
// Unlike the W(p)[L] solver (which optimizes over all policies), this
// evaluator fixes the scheduler and lets only the adversary optimize:
//   R_0(L) = uninterrupted work of π(L, 0)
//   R_q(L) = min( uninterrupted work of π(L, q),
//                 min_k  banked_k + R_{q−1}(L − T_{k+1}) )
// where banked_k is the work of the first k periods of π(L, q) and T_{k+1}
// the end of the killed period (last-instant interrupts; Obs (a)).
//
// Levels are computed bottom-up over q; within a level all lifespans are
// independent and evaluated in parallel.
#pragma once

#include <optional>
#include <vector>

#include "core/policy.h"
#include "util/thread_pool.h"

namespace nowsched::solver {

/// R_p(L) for every L in [0, max_lifespan]. `pool` parallelizes each level.
std::vector<Ticks> evaluate_policy_grid(const SchedulingPolicy& policy,
                                        Ticks max_lifespan, int p, const Params& params,
                                        util::ThreadPool* pool = nullptr);

/// Guaranteed work of `policy` for one opportunity (U, p).
Ticks evaluate_policy(const SchedulingPolicy& policy, Ticks lifespan, int p,
                      const Params& params, util::ThreadPool* pool = nullptr);

/// One episode of the adversary's optimal play against a fixed policy.
struct AdversaryMove {
  Ticks episode_lifespan = 0;              ///< residual when the episode began
  int interrupts_left = 0;                 ///< q at episode start
  std::optional<std::size_t> killed;       ///< 0-based killed period; nullopt = ran out
  Ticks banked = 0;                        ///< work banked by this episode
};

/// Full best-response trace against a fixed policy: the episode-by-episode
/// interrupt placements achieving the guaranteed-work minimum. `value` equals
/// evaluate_policy(policy, U, p). Used by bench_table1 and to drive the
/// simulator in integration tests.
struct BestResponse {
  Ticks value = 0;
  std::vector<AdversaryMove> moves;
};
BestResponse best_response(const SchedulingPolicy& policy, Ticks lifespan, int p,
                           const Params& params);

}  // namespace nowsched::solver
