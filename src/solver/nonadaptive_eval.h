// Exact adversary best response against a *committed* (non-adaptive)
// schedule, under the paper's §2.2 semantics: after an interrupt at period i
// the owner of A continues with the tail t_{i+1}..t_m, except that after the
// p-th interrupt the remainder of the opportunity is run as ONE long period.
//
//   W(S) = Σ_{k∉I} (t_k ⊖ c)  +  (U − T_{i_p}) ⊖ c
//
// where I = {i_1 < ... < i_p} are the interrupted periods (all interrupts
// placed at last instants; Obs (a)). The adversary may also use fewer than
// p interrupts, in which case the long-period rule never triggers.
#pragma once

#include <cstddef>
#include <vector>

#include "core/schedule.h"
#include "core/types.h"

namespace nowsched::solver {

struct NonAdaptiveBestResponse {
  Ticks value = 0;                           ///< guaranteed work of the schedule
  std::vector<std::size_t> killed_periods;   ///< 0-based, ascending
};

/// O(m·p) DP over (period index, interrupts left). Requires
/// sched.total() == lifespan.
NonAdaptiveBestResponse nonadaptive_best_response(const EpisodeSchedule& sched,
                                                  Ticks lifespan, int p,
                                                  const Params& params);

/// Convenience: just the guaranteed work.
Ticks nonadaptive_guaranteed_work(const EpisodeSchedule& sched, Ticks lifespan, int p,
                                  const Params& params);

struct EqualPeriodSearch {
  std::size_t best_m = 1;
  Ticks best_value = 0;
  std::vector<Ticks> value_by_m;  ///< value_by_m[m-1] = work with m equal periods
};

/// Exhaustive search over the number of equal periods m in [1, 4·⌈√(pU/c)⌉ + 8],
/// capped by U. Used to test §3.1's claim that m = ⌊√(pU/c)⌋ "cannot be
/// improved".
EqualPeriodSearch best_equal_period_count(Ticks lifespan, int p, const Params& params);

}  // namespace nowsched::solver
