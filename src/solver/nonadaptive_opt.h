// Local-search optimizer over *committed* (non-adaptive) schedules.
//
// §3.1 derives the optimal EQUAL-period schedule and the paper asserts (via
// elementary calculus) that it cannot be improved. That argument covers the
// equal-length family; this optimizer searches the full space of committed
// schedules (arbitrary period lengths, fixed only by Σt = U) under the exact
// best-response evaluator, providing an empirical upper bound on what any
// committed schedule can guarantee — and thereby a check that the equal
// family is (or is not) globally optimal on the grid.
//
// Search moves, applied in rounds with a shrinking step δ:
//   * transfer δ ticks between period i and period j (all ordered pairs of
//     a sampled subset when m is large),
//   * split a period in half,
//   * merge two adjacent periods.
// Hill climbing with first-improvement over 24 δ-halving rounds; pairs are
// sampled from a fixed seed, so the search is deterministic.
#pragma once

#include "core/schedule.h"
#include "solver/nonadaptive_eval.h"

namespace nowsched::solver {

struct CommittedSearchResult {
  EpisodeSchedule schedule;
  Ticks value = 0;          ///< guaranteed work of `schedule`
  Ticks start_value = 0;    ///< guaranteed work of the §3.1 seed schedule
  int improving_moves = 0;  ///< accepted moves
};

/// Starts from the §3.1 guideline and hill-climbs. The returned value is
/// always >= the seed's value.
CommittedSearchResult optimize_committed(Ticks lifespan, int p, const Params& params);

}  // namespace nowsched::solver
