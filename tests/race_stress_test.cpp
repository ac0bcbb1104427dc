// Determinism stress for the racing layer: the same (domain, seed, budget)
// must produce IDENTICAL verdicts, elimination sequences, and pull counts
// across thread counts and cache configurations — the race engine's
// allocation decisions read only banked statistics, and the banked scores
// inherit BatchRunner's bit-identical-across-threads contract.
//
// This suite runs under TSan in CI (like service_stress_test): the racing
// pulls fan sessions out over a real ThreadPool while dp-optimal arms hit
// the shared solve cache concurrently, so a data race in the scoring path
// surfaces here, not in production.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "race/policy_race.h"
#include "race/race.h"
#include "util/thread_pool.h"

namespace nowsched::race {
namespace {

Region stress_region(const std::string& name, sim::OwnerKind owner) {
  Region region;
  region.name = name;
  region.domain.owners = {owner};
  region.domain.min_c = 2;
  region.domain.max_c = 24;
  region.domain.min_lifespan = 64;
  region.domain.max_lifespan = 768;
  region.domain.min_interrupts = 0;
  region.domain.max_interrupts = 3;
  region.domain.contract_classes = 4;  // fold contracts → real cache sharing
  region.domain.class_fraction = 0.5;
  return region;
}

std::vector<Region> stress_regions() {
  return {stress_region("poisson", sim::OwnerKind::kPoisson),
          stress_region("bursty", sim::OwnerKind::kBursty)};
}

std::vector<PolicyArm> stress_arms() {
  // dp-optimal arms exercise the solve cache; guideline arms are closed-form.
  return {{sim::PolicyKind::kDpOptimal, 0},
          {sim::PolicyKind::kEqualized, 0},
          {sim::PolicyKind::kDpOptimal, 1},
          {sim::PolicyKind::kAdaptivePaper, 1}};
}

struct Fingerprint {
  std::size_t best = 0;
  bool confident = false;
  std::size_t total_pulls = 0;
  std::vector<std::size_t> elimination_order;
  std::vector<std::string> verdicts;   ///< full bit-exact serializations
  std::vector<double> means;           ///< per-arm banked means (bit-exact)
  std::vector<std::size_t> pull_counts;

  bool operator==(const Fingerprint&) const = default;
};

Fingerprint run_fingerprint(Mode mode, util::ThreadPool* pool, bool cached) {
  solver::SolveCache cache;
  PolicyRaceOptions options;
  options.race.mode = mode;
  options.race.budget = 64;          // successive halving
  options.race.batch = 8;            // lucb
  options.race.max_total_pulls = 256;
  options.race.delta = 0.05;
  options.seed = 0xD15C0;
  options.batch.pool = pool;
  options.batch.shared_cache = cached ? &cache : nullptr;
  PolicyRace race(stress_regions(), stress_arms(), options);
  const PolicyRaceResult result = race.run();

  Fingerprint fp;
  fp.best = result.race.best;
  fp.confident = result.race.confident;
  fp.total_pulls = result.race.total_pulls;
  fp.elimination_order = result.race.elimination_order;
  for (const VerdictRecord& v : result.verdicts) {
    fp.verdicts.push_back(to_verdict_string(v));
  }
  for (const ArmOutcome& arm : result.race.arms) {
    fp.means.push_back(arm.stats.mean);
    fp.pull_counts.push_back(arm.stats.n);
  }
  return fp;
}

TEST(RaceStress, IdenticalAcrossThreadCountsAndCacheConfig) {
  for (const Mode mode : {Mode::kSuccessiveHalving, Mode::kLucb}) {
    const Fingerprint baseline = run_fingerprint(mode, nullptr, true);

    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      util::ThreadPool pool(threads);
      EXPECT_EQ(run_fingerprint(mode, &pool, true), baseline)
          << to_string(mode) << " threads=" << threads;
    }

    // No cache: every dp-optimal session solves its own table; scores (and
    // therefore the whole race trajectory) must not move.
    util::ThreadPool pool(4);
    EXPECT_EQ(run_fingerprint(mode, &pool, false), baseline)
        << to_string(mode) << " cache off";
  }
}

TEST(RaceStress, RepeatedRunsAreFixedPoints) {
  // Same configuration twice in one process (warm global state, fresh
  // runner each time): bit-identical results.
  util::ThreadPool pool(8);
  const Fingerprint first = run_fingerprint(Mode::kSuccessiveHalving, &pool, true);
  const Fingerprint second = run_fingerprint(Mode::kSuccessiveHalving, &pool, true);
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace nowsched::race
