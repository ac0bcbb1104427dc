// The closed-form optimal 1-interrupt episode-schedule S_opt(1)[U] (§5.2).
//
// Structure (the case p = 1 is 0-immune): there is α ∈ (0, 1] with
//   t_m = t_{m−1} = (1 + α)c,
//   t_k = t_{k+1} + c = (m − k + α)c   for k <= m − 2,
// and the optimal period count (eq. 5.1)
//   m(1)[U] = ⌈ √(2U/c − 7/4) − 1/2 ⌉.
// α is pinned by Σ t_k = U:  α = (U − c)/(mc) − (m − 1)/2.
#pragma once

#include <cstddef>
#include <vector>

#include "core/schedule.h"
#include "core/types.h"

namespace nowsched {

struct OptP1 {
  std::size_t m = 0;       ///< realized period count
  double alpha = 0.0;      ///< α ∈ (0, 1] (meaningful when m >= 2)
  EpisodeSchedule schedule;
};

/// Constructs S_opt(1)[U] on the tick grid (largest-remainder rounding),
/// starting from m = max(1, ⌈bounds::optimal_p1_period_count⌉) and stepping
/// m by ±1 where the discrete U pushes α out of (0, 1].
/// For lifespans too short for the two-period structure, degrades to a
/// single period (which is then optimal only when W(1)[U] = 0).
OptP1 optimal_p1_schedule(Ticks lifespan, const Params& params);

/// The adversary's kill-option values under optimal 0-interrupt
/// continuation: option[k] = banked(k) + (U − T_{k+1}) ⊖ c — kill period k
/// at its last instant, then run the residual as one long period
/// (Prop 4.1(d)). For schedules honouring Thm 4.3's equalization these are
/// flat over the early periods.
std::vector<Ticks> kill_option_profile_p1(const EpisodeSchedule& sched, Ticks lifespan,
                                          const Params& params);

/// Exact guaranteed work of an arbitrary committed episode against one
/// potential interrupt, assuming optimal continuation afterwards
/// (Prop 4.1(d): the residual is run as a single period, worth (L−T_k) ⊖ c):
///   W = min( Σ(t_i ⊖ c),  min kill_option_profile_p1 ).
/// Requires sched.total() == lifespan.
Ticks guaranteed_work_p1(const EpisodeSchedule& sched, Ticks lifespan,
                         const Params& params);

}  // namespace nowsched
