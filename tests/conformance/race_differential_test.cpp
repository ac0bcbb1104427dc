// Racing-layer conformance differential: every score the race banks must be
// BIT-IDENTICAL to a direct sim::BatchRunner run of the same spec, and every
// regret the hunt banks must match solver::evaluate_policy against the DP
// value table EXACTLY. The racing layer is bookkeeping over existing engines
// — any divergence means it corrupted a score on the way into the Welford
// accumulators, which would silently invalidate every verdict.
//
// Rides the NOWSCHED_FUZZ_CASES tier knob like the rest of the conformance
// binary; a failing spec is written as a replay file for a one-command repro.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "conformance/conformance_harness.h"
#include "race/policy_race.h"
#include "race/regret_hunt.h"
#include "sim/batch_runner.h"
#include "sim/scenario_gen.h"
#include "solver/policy_eval.h"
#include "solver/solve_cache.h"

namespace nowsched::conformance {
namespace {

using race::PolicyArm;
using race::PolicyRace;
using race::PolicyRaceOptions;
using race::Region;

/// Contracts capped so the exact-regret differential (a DP solve plus a
/// fixed-policy evaluation per spec) stays affordable at the nightly tier.
Region race_region(const std::string& name, sim::OwnerKind owner) {
  Region region;
  region.name = name;
  region.domain.owners = {owner};
  region.domain.min_c = 2;
  region.domain.max_c = 32;
  region.domain.min_lifespan = 32;
  region.domain.max_lifespan = 640;
  region.domain.min_interrupts = 0;
  region.domain.max_interrupts = 4;
  region.domain.contract_classes = 5;
  region.domain.class_fraction = 0.5;
  return region;
}

TEST(RaceConformance, BankedScoresMatchDirectBatchRunnerBitExactly) {
  const std::vector<Region> regions = {
      race_region("poisson", sim::OwnerKind::kPoisson),
      race_region("markov", sim::OwnerKind::kMarkovModulated)};
  const std::vector<PolicyArm> arms = {
      {sim::PolicyKind::kDpOptimal, 0},
      {sim::PolicyKind::kEqualized, 0},
      {sim::PolicyKind::kAdaptivePaper, 1},
      {sim::PolicyKind::kNonAdaptiveRestart, 1}};
  PolicyRaceOptions options;
  options.seed = 0xCAFE;
  PolicyRace race(regions, arms, options);

  const std::size_t per_arm = static_cast<std::size_t>(
      std::max(8, fuzz_cases(200) / static_cast<int>(arms.size())));
  for (std::size_t arm = 0; arm < arms.size(); ++arm) {
    // What the race banks…
    const std::vector<double> banked = race.score_batch(arm, 0, per_arm);

    // …vs an independent BatchRunner over the same specs (fresh runner,
    // fresh cache — whichever tier solves, the bits must agree).
    std::vector<sim::ScenarioSpec> specs;
    for (std::size_t i = 0; i < per_arm; ++i) {
      specs.push_back(race.sample_spec(arm, i));
    }
    sim::BatchRunner direct;
    const sim::BatchResult batch = direct.run(specs);

    for (std::size_t i = 0; i < per_arm; ++i) {
      const double expected =
          PolicyRace::score_of(batch.per_scenario[i], specs[i]);
      if (banked[i] != expected) {
        const std::string path = write_repro(
            specs[i], "race-score-differential",
            "race banked " + std::to_string(banked[i]) + " direct " +
                std::to_string(expected));
        FAIL() << "arm " << arm << " pull " << i
               << ": banked score diverged from direct BatchRunner (repro: "
               << path << ")";
      }
      EXPECT_GE(banked[i], 0.0);
      EXPECT_LE(banked[i], 1.0);
    }
  }
}

TEST(RaceConformance, RegretMatchesPolicyEvalAgainstDpTableExactly) {
  // Guideline scenarios from the generated space: regret through the hunt's
  // cached path must equal the uncached solver::solve_shared +
  // evaluate_policy computation tick-for-tick, and be non-negative (W is
  // the maximum over all policies).
  sim::ScenarioDomain domain = race_region("regret", sim::OwnerKind::kPoisson).domain;
  domain.policies = {sim::PolicyKind::kEqualized, sim::PolicyKind::kAdaptivePaper,
                     sim::PolicyKind::kNonAdaptiveRestart};
  const sim::ScenarioGenerator gen(domain, 0xD1FF);
  solver::SolveCache cache;

  const int cases = std::max(16, fuzz_cases(200) / 4);
  for (int i = 0; i < cases; ++i) {
    const sim::ScenarioSpec spec = gen.at(static_cast<std::uint64_t>(i));
    const Ticks got = race::regret_ticks(spec, cache);

    const auto table = solver::solve_shared(
        solver::SolveRequest{spec.max_interrupts, spec.lifespan, spec.params});
    const Ticks w = table->value(spec.max_interrupts, spec.lifespan);
    const auto policy = sim::make_policy(spec);
    const Ticks guaranteed = solver::evaluate_policy(
        *policy, spec.lifespan, spec.max_interrupts, spec.params);

    if (got != w - guaranteed || got < 0) {
      const std::string path = write_repro(
          spec, "race-regret-differential",
          "regret_ticks " + std::to_string(got) + " direct W " +
              std::to_string(w) + " R " + std::to_string(guaranteed));
      FAIL() << "case " << i << ": regret diverged (repro: " << path << ")";
    }
  }
}

TEST(RaceConformance, DpOptimalSpecsHaveZeroRegret) {
  sim::ScenarioDomain domain = race_region("dp", sim::OwnerKind::kUniform).domain;
  domain.policies = {sim::PolicyKind::kDpOptimal};
  const sim::ScenarioGenerator gen(domain, 0xD0);
  solver::SolveCache cache;
  for (int i = 0; i < 8; ++i) {
    const sim::ScenarioSpec spec = gen.at(static_cast<std::uint64_t>(i));
    EXPECT_EQ(race::regret_ticks(spec, cache), 0) << i;
  }
}

}  // namespace
}  // namespace nowsched::conformance
