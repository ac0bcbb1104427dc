// Adversarial regret hunt: search the generated scenario space for the
// regions where a guideline policy gives up the most guaranteed work
// relative to the DP optimum (DESIGN.md §9).
//
// Regret is EXACT, not simulated: for a spec with contract (c, U, p) and a
// guideline policy π,
//
//     regret(spec) = W(p)[U] − R_π(p, U)
//
// where W comes from the (cached) value table of solver/solve_cache.h and R_π from
// solver::evaluate_policy — both worst-case guarantees, so regret is a
// deterministic function of the CONTRACT alone (the owner process only
// steers which contracts a region draws). dp-optimal scenarios have regret 0
// by the conformance-pinned identity R_opt == W. Scores are normalized by
// the lifespan (regret <= W <= U), so they live in [0, 1] like race scores.
//
// The hunt is a deterministic beam search over recursively split regions:
// probe every (frontier region × policy) pair with a fixed number of
// generated scenarios, keep the `beam` highest mean-regret pairs, split
// their regions along the widest contract axis, and descend. All solves go
// through the caller's solver::SolveCache, so sibling regions probing
// similar contracts share tables — the same economics as the batch engine.
//
// Each surviving (region, policy) pair is distilled into a VerdictRecord
// (kind == "regret", winner dp-optimal, loser the guideline policy, gap the
// normalized regret with its empirical-Bernstein interval) so nightly hunts
// can bank worst-region verdicts in the replayable text format.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "race/policy_race.h"
#include "solver/solve_cache.h"
#include "util/welford.h"

namespace nowsched::race {

/// Exact regret of one spec in ticks (0 for kDpOptimal specs). Solves go
/// through `cache`. Throws std::invalid_argument on an invalid spec. The
/// hunt's normalized regret is this divided by the lifespan.
Ticks regret_ticks(const sim::ScenarioSpec& spec, solver::SolveCache& cache);

/// Splits a region into two halves along its widest contract axis (lifespan,
/// then c, then interrupts, by log-width; a point region splits into two
/// copies). Children are named "<name>/lo" and "<name>/hi". Exposed for the
/// unit tests; the hunt calls it to descend.
std::vector<Region> split_region(const Region& region);

struct RegretHuntOptions {
  /// Scenarios probed per (region, policy) pair per round.
  std::size_t probes_per_region = 32;
  /// Split-and-descend rounds (round 1 probes the root only).
  std::size_t rounds = 3;
  /// (region, policy) pairs kept — and regions split — per round.
  std::size_t beam = 2;
  std::uint64_t seed = 0;
  /// δ for the verdict intervals on normalized regret.
  double delta = 0.01;

  /// Throws std::invalid_argument on zero probes/rounds/beam or δ ∉ (0, 1).
  void validate() const;
};

/// One probed (region, policy) pair.
struct RegionRegret {
  Region region;
  sim::PolicyKind policy = sim::PolicyKind::kEqualized;
  /// Normalized regret over the probes (mean/variance feed the verdict).
  util::Welford regret;
  /// Mean normalized guaranteed work of the DP optimum / the guideline over
  /// the same probes (regret.mean == mean_dp − mean_guideline).
  double mean_dp = 0.0;
  double mean_guideline = 0.0;
  /// The probe achieving the maximum regret (replayable via
  /// sim::to_replay_string) and its normalized regret.
  sim::ScenarioSpec worst;
  double worst_regret = 0.0;
  /// Which round this pair was probed in (1-based; depth in the split tree).
  std::size_t round = 0;
};

struct RegretHuntResult {
  /// Every probed pair, sorted by mean regret descending (ties by round,
  /// then region name, then policy — fully deterministic).
  std::vector<RegionRegret> ranked;
  /// ranked[0..beam) distilled as kind == "regret" verdicts.
  std::vector<VerdictRecord> verdicts;
  std::size_t scenarios_evaluated = 0;
};

/// Runs the hunt for the given guideline policies over the root region.
/// Deterministic given (root, policies, options); `cache` only accelerates.
/// Throws std::invalid_argument on an invalid root domain, empty policies,
/// a kDpOptimal entry (its regret is identically 0 — hunting it is a bug),
/// or invalid options.
RegretHuntResult hunt_regret(const Region& root,
                             const std::vector<sim::PolicyKind>& policies,
                             const RegretHuntOptions& options,
                             solver::SolveCache& cache);

}  // namespace nowsched::race
