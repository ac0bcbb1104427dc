// Recovering optimal episode-schedules and verifying Thm 4.3 structure from
// the W(p)[L] value tables.
#pragma once

#include <limits>
#include <vector>

#include "core/policy.h"
#include "core/schedule.h"
#include "solver/value_table.h"

namespace nowsched::solver {

/// The committed optimal episode for state (p, L): repeatedly pick the
/// period length attaining V_p and follow the no-interrupt branch until the
/// lifespan is exhausted. Ties prefer the longest period (this matches the
/// paper's decreasing-period shape and avoids degenerate 1-tick chains).
///
/// Cost: O(log L) for the first period, then O(log d) per period for a
/// period d ticks from the one before it. Each period is the same monotone
/// A/B crossover search the fast solver's structure gives (A(t) non-
/// decreasing past c, B(t) non-increasing), galloping out from the previous
/// period's length and then bisecting the bracket, so extraction is cheap
/// enough to run per episode inside batched simulations.
/// best_period_length_linear is the O(L) scan it replaced, kept as the
/// oracle for the equivalence tests (tests/solver_extract_test.cpp): every
/// extracted period is the identical (longest) attaining period.
///
/// With `until`, extraction stops after the first period whose end is
/// >= until: the leading periods of the whole episode, bit for bit (each
/// search gallops from the same hint), which are all a session runs when
/// the owner interrupts during tick `until`. The default builds it whole.
EpisodeSchedule extract_episode(const ValueTable& table, int p, Ticks lifespan,
                                Ticks until = std::numeric_limits<Ticks>::max());

/// Longest t in [1, L] attaining V_p(L), by O(log L) crossover search.
/// Requires 1 <= p <= table.max_interrupts() and 1 <= L <= max_lifespan;
/// throws std::out_of_range otherwise.
Ticks best_period_length(const ValueTable& table, int p, Ticks lifespan);

/// The same search, galloping out from `hint` (any value; it is clamped
/// into the crossover range). The answer equals the hint-free call's; the
/// cost is O(log d) when the crossover lies d ticks from the hint.
Ticks best_period_length(const ValueTable& table, int p, Ticks lifespan, Ticks hint);

/// Test oracle: the O(L) reference scan for best_period_length (bit-identical
/// choice), with the same range contract.
Ticks best_period_length_linear(const ValueTable& table, int p, Ticks lifespan);

/// Thm 4.3 predicts, for the early ("non-immune") periods,
///   t_k = c + W(p−1)[U − T_k] − W(p−1)[U − T_{k+1}]        (1-based k),
/// i.e. each period equalizes the impact of the interrupts it exposes.
/// Returns per-period residuals t_k − (c + ΔW) for a given episode; small
/// residuals on the early periods corroborate the theorem on the grid (the
/// extraction tests' Thm 4.3 oracle).
std::vector<Ticks> equalization_residuals(const ValueTable& table,
                                          const EpisodeSchedule& episode, int p,
                                          Ticks lifespan);

/// Optimal adaptive policy backed by a value table. episode(L, q) uses
/// level min(q, max_p). Lifespans above table.max_lifespan() throw.
class OptimalPolicy final : public SchedulingPolicy {
 public:
  explicit OptimalPolicy(std::shared_ptr<const ValueTable> table);
  std::string name() const override { return "dp-optimal"; }
  EpisodeSchedule episode(Ticks residual, int interrupts_left,
                          const Params& params) const override;
  /// Extracts only the periods through the one `until` falls in.
  EpisodeSchedule episode_prefix(Ticks residual, int interrupts_left,
                                 const Params& params, Ticks until) const override;

 private:
  std::shared_ptr<const ValueTable> table_;
};

}  // namespace nowsched::solver
