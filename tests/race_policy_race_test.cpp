// The racing engine and the PolicyRace layer, pinned by hand-traced and
// planted-ground-truth statistics:
//
//   * successive halving is hand-traced on planted arm means — elimination
//     order, per-round pull counts, and pull conservation are asserted
//     exactly (orderings and counts, never wall clocks);
//   * LUCB identification on planted Bernoulli arms with a known best arm
//     and gap: over NOWSCHED_FUZZ_CASES-tiered repetitions the
//     mis-identification rate must stay within δ AND the adaptive race must
//     spend at most half the fixed-allocation (kUniform) budget — the
//     acceptance bar of the racing layer;
//   * PolicyRace wiring: matched scenario draws across arms of one region,
//     verdict distillation, and the bit-exact "nowsched-verdict v1"
//     round-trip.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "fuzz_cases.h"
#include "race/policy_race.h"
#include "race/regret_hunt.h"
#include "race/race.h"
#include "util/hash.h"
#include "util/rng.h"

namespace nowsched::race {
namespace {

using nowsched::testing::fuzz_cases;

/// Deterministic constant-score sampler: arm a always scores means[a].
ArmSampler constant_sampler(std::vector<double> means) {
  return [means](std::size_t arm, std::uint64_t, std::size_t count) {
    return std::vector<double>(count, means[arm]);
  };
}

/// Planted Bernoulli arms: sample i of arm a is a deterministic coin with
/// P(1) = means[a], derived from (seed, a, i) — random-access pure, so the
/// race may draw in any batching.
ArmSampler bernoulli_sampler(std::vector<double> means, std::uint64_t seed) {
  return [means, seed](std::size_t arm, std::uint64_t start, std::size_t count) {
    std::vector<double> scores;
    scores.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      util::Rng rng(util::hash_combine(util::hash_combine(seed, arm), start + i));
      scores.push_back(rng.uniform01() < means[arm] ? 1.0 : 0.0);
    }
    return scores;
  };
}

// ---------------------------------------------------------------------------
// Successive halving, hand-traced
// ---------------------------------------------------------------------------

TEST(Race, SuccessiveHalvingHandTrace) {
  // 4 arms, planted means {0.9, 0.5, 0.3, 0.1}, budget 16.
  // rounds_total = ceil(log2 4) = 2.
  //   Round 1: |active| = 4 → 16/(4·2) = 2 pulls per arm (8 total).
  //            Keep ceil(4/2) = 2 → {0, 1}; eliminate 3 (mean .1) then 2.
  //   Round 2: |active| = 2 → 16/(2·2) = 4 pulls per arm (8 more).
  //            Keep ceil(2/2) = 1 → {0}; eliminate 1.
  RaceOptions options;
  options.mode = Mode::kSuccessiveHalving;
  options.budget = 16;
  options.delta = 0.1;
  const RaceResult r =
      run_race(4, options, constant_sampler({0.9, 0.5, 0.3, 0.1}));

  EXPECT_EQ(r.best, 0u);
  EXPECT_EQ(r.rounds, 2u);
  EXPECT_EQ(r.total_pulls, 16u);
  ASSERT_EQ(r.elimination_order, (std::vector<std::size_t>{3, 2, 1}));

  // Pull conservation, arm by arm.
  EXPECT_EQ(r.arms[0].stats.n, 6u);  // 2 + 4
  EXPECT_EQ(r.arms[1].stats.n, 6u);
  EXPECT_EQ(r.arms[2].stats.n, 2u);
  EXPECT_EQ(r.arms[3].stats.n, 2u);
  EXPECT_EQ(r.arms[0].batches, 2u);
  EXPECT_EQ(r.arms[3].batches, 1u);

  EXPECT_EQ(r.arms[0].round_eliminated, 0u);  // survived
  EXPECT_EQ(r.arms[1].round_eliminated, 2u);
  EXPECT_EQ(r.arms[2].round_eliminated, 1u);
  EXPECT_EQ(r.arms[3].round_eliminated, 1u);

  // Constant scores: means are exact, intervals bracket them.
  EXPECT_DOUBLE_EQ(r.arms[0].stats.mean, 0.9);
  EXPECT_DOUBLE_EQ(r.arms[1].stats.mean, 0.5);
  EXPECT_LE(r.arms[0].lower, 0.9);
  EXPECT_GE(r.arms[0].upper, 0.9);
}

TEST(Race, SuccessiveHalvingTieEliminatesHigherIndex) {
  // Arms 1 and 2 tie; the higher index must go first, and the survivor
  // ranking must keep the lower index.
  RaceOptions options;
  options.mode = Mode::kSuccessiveHalving;
  options.budget = 16;
  const RaceResult r =
      run_race(4, options, constant_sampler({0.9, 0.5, 0.5, 0.1}));
  EXPECT_EQ(r.best, 0u);
  ASSERT_EQ(r.elimination_order, (std::vector<std::size_t>{3, 2, 1}));
}

TEST(Race, SuccessiveHalvingTinyBudgetStillPullsEveryActiveArm) {
  // budget 1 << arms·rounds: the per-round allocation clamps to 1 pull per
  // active arm, so every arm still gets sampled before elimination.
  RaceOptions options;
  options.mode = Mode::kSuccessiveHalving;
  options.budget = 1;
  const RaceResult r =
      run_race(4, options, constant_sampler({0.9, 0.5, 0.3, 0.1}));
  EXPECT_EQ(r.best, 0u);
  EXPECT_EQ(r.total_pulls, 4u + 2u);  // round 1: 4 arms ×1, round 2: 2 arms ×1
  EXPECT_FALSE(r.confident);          // 1-2 pulls cannot separate at δ = 0.01
}

// ---------------------------------------------------------------------------
// LUCB / uniform stopping
// ---------------------------------------------------------------------------

TEST(Race, LucbStopsAndIdentifiesOnSeparatedConstantArms) {
  // Constant arms have zero variance: the empirical-Bernstein radius decays
  // as 1/n, so the (δ, ε) rule must trigger and declare arm 0.
  RaceOptions options;
  options.mode = Mode::kLucb;
  options.delta = 0.05;
  options.batch = 4;
  const RaceResult r = run_race(3, options, constant_sampler({0.8, 0.4, 0.2}));
  EXPECT_EQ(r.best, 0u);
  EXPECT_TRUE(r.confident);
  EXPECT_LT(r.total_pulls, options.max_total_pulls);
  // The leader's lower bound cleared every other upper bound (ε = 0).
  EXPECT_GE(r.arms[0].lower, r.arms[1].upper);
  EXPECT_GE(r.arms[0].lower, r.arms[2].upper);
}

TEST(Race, LucbConcentratesPullsOnContenders) {
  // Arms 0/1 are close; arm 2 is far behind. LUCB must spend most of its
  // budget on the contenders and starve the clear loser.
  RaceOptions options;
  options.mode = Mode::kLucb;
  options.delta = 0.1;
  options.epsilon = 0.02;
  options.batch = 8;
  const RaceResult r =
      run_race(3, options, bernoulli_sampler({0.7, 0.55, 0.1}, 0xFEED));
  EXPECT_EQ(r.best, 0u);
  EXPECT_TRUE(r.confident);
  EXPECT_GT(r.arms[0].stats.n, r.arms[2].stats.n);
  EXPECT_GT(r.arms[1].stats.n, r.arms[2].stats.n);
}

TEST(Race, BudgetCapEndsRaceUnconfident) {
  // Identical arms can never separate at ε = 0: the cap must end the race
  // with confident == false and total pulls within the cap.
  RaceOptions options;
  options.mode = Mode::kUniform;
  options.batch = 4;
  options.max_total_pulls = 64;
  const RaceResult r = run_race(4, options, constant_sampler({0.5, 0.5, 0.5, 0.5}));
  EXPECT_FALSE(r.confident);
  EXPECT_LE(r.total_pulls, 64u);
  EXPECT_EQ(r.best, 0u);  // tie → lowest index, deterministically
}

// ---------------------------------------------------------------------------
// Planted ground truth: identification error within δ, budget within half
// of fixed allocation.
// ---------------------------------------------------------------------------

TEST(Race, PlantedBestArmWithinDeltaAtHalfTheFixedBudget) {
  const int reps = fuzz_cases(200);
  // 8 arms, one planted best (gap 0.3 to the runner-up), the rest spread
  // out below — the regime racing is FOR. Fixed allocation keeps pulling
  // every arm until the hardest challenger separates; LUCB starves the
  // clearly-bad arms after a handful of batches and spends the budget on
  // the one contender, which is where the >= 2x budget-to-verdict win
  // comes from.
  const std::vector<double> means = {0.8, 0.5, 0.4, 0.35, 0.3, 0.25, 0.2, 0.15};
  RaceOptions lucb;
  lucb.mode = Mode::kLucb;
  lucb.delta = 0.1;
  lucb.epsilon = 0.1;  // well under the 0.3 gap: arm 0 is the only ε-best arm
  lucb.batch = 8;
  lucb.max_total_pulls = 1u << 18;
  RaceOptions uniform = lucb;
  uniform.mode = Mode::kUniform;

  int lucb_errors = 0;
  int uniform_errors = 0;
  std::uint64_t lucb_pulls = 0;
  std::uint64_t uniform_pulls = 0;
  for (int rep = 0; rep < reps; ++rep) {
    const auto planted = bernoulli_sampler(
        means, util::hash_combine(0xBE57A4, static_cast<std::uint64_t>(rep)));
    const RaceResult r = run_race(means.size(), lucb, planted);
    const RaceResult u = run_race(means.size(), uniform, planted);
    if (!(r.best == 0 && r.confident)) ++lucb_errors;
    if (!(u.best == 0 && u.confident)) ++uniform_errors;
    lucb_pulls += r.total_pulls;
    uniform_pulls += u.total_pulls;
  }

  // Mis-identification within δ (the bounds are conservative, so the real
  // rate is far below; δ·reps is the contract, not the expectation).
  EXPECT_LE(lucb_errors, static_cast<int>(lucb.delta * reps));
  EXPECT_LE(uniform_errors, static_cast<int>(uniform.delta * reps));

  // The adaptive race reaches its verdicts on at most HALF the fixed
  // allocation's simulations — the racing layer's acceptance bar.
  EXPECT_LE(2 * lucb_pulls, uniform_pulls)
      << "lucb=" << lucb_pulls << " uniform=" << uniform_pulls;
}

// ---------------------------------------------------------------------------
// Engine contract checks
// ---------------------------------------------------------------------------

TEST(Race, RejectsInvalidOptionsAndMalformedSamplers) {
  RaceOptions options;
  const auto ok = constant_sampler({0.5, 0.6});
  EXPECT_THROW(run_race(1, options, ok), std::invalid_argument);
  options.delta = 0.0;
  EXPECT_THROW(run_race(2, options, ok), std::invalid_argument);
  options.delta = 0.01;
  options.epsilon = -0.5;
  EXPECT_THROW(run_race(2, options, ok), std::invalid_argument);
  options.epsilon = 0.0;
  options.batch = 0;
  EXPECT_THROW(run_race(2, options, ok), std::invalid_argument);
  options.batch = 16;
  options.mode = Mode::kLucb;
  options.max_total_pulls = 8;  // below arms · batch warm-up
  EXPECT_THROW(run_race(2, options, ok), std::invalid_argument);

  RaceOptions sh;
  sh.budget = 8;
  // Wrong batch length.
  EXPECT_THROW(
      run_race(2, sh,
               [](std::size_t, std::uint64_t, std::size_t) {
                 return std::vector<double>{};
               }),
      std::logic_error);
  // Score outside [0, score_range].
  EXPECT_THROW(
      run_race(2, sh,
               [](std::size_t, std::uint64_t, std::size_t count) {
                 return std::vector<double>(count, 1.5);
               }),
      std::logic_error);
}

TEST(Race, ModeNamesRoundTrip) {
  EXPECT_STREQ(to_string(Mode::kSuccessiveHalving), "successive-halving");
  EXPECT_STREQ(to_string(Mode::kLucb), "lucb");
  EXPECT_STREQ(to_string(Mode::kUniform), "uniform");
}

// ---------------------------------------------------------------------------
// PolicyRace: matched draws, verdicts, serialization
// ---------------------------------------------------------------------------

Region small_region(const std::string& name) {
  Region region;
  region.name = name;
  region.domain.owners = {sim::OwnerKind::kPoisson, sim::OwnerKind::kUniform};
  region.domain.min_c = 2;
  region.domain.max_c = 16;
  region.domain.min_lifespan = 64;
  region.domain.max_lifespan = 512;
  region.domain.min_interrupts = 0;
  region.domain.max_interrupts = 3;
  return region;
}

PolicyRaceOptions small_race_options() {
  PolicyRaceOptions options;
  options.race.mode = Mode::kSuccessiveHalving;
  options.race.budget = 48;
  options.race.delta = 0.1;
  options.seed = 7;
  return options;
}

TEST(PolicyRace, ArmsSharingARegionFaceIdenticalScenarioDraws) {
  // The matched-design contract: same region → identical contract, owner,
  // and seed sequences; only the forced policy differs.
  const std::vector<Region> regions = {small_region("mixed")};
  const std::vector<PolicyArm> arms = {
      {sim::PolicyKind::kEqualized, 0},
      {sim::PolicyKind::kAdaptivePaper, 0},
  };
  const PolicyRace race(regions, arms, small_race_options());
  for (std::uint64_t i = 0; i < 32; ++i) {
    const sim::ScenarioSpec a = race.sample_spec(0, i);
    const sim::ScenarioSpec b = race.sample_spec(1, i);
    EXPECT_EQ(a.policy, sim::PolicyKind::kEqualized);
    EXPECT_EQ(b.policy, sim::PolicyKind::kAdaptivePaper);
    EXPECT_EQ(a.owner, b.owner) << i;
    EXPECT_EQ(a.params.c, b.params.c) << i;
    EXPECT_EQ(a.lifespan, b.lifespan) << i;
    EXPECT_EQ(a.max_interrupts, b.max_interrupts) << i;
    EXPECT_EQ(a.seed, b.seed) << i;
    EXPECT_DOUBLE_EQ(a.owner_a, b.owner_a) << i;
  }
}

TEST(PolicyRace, RunProducesVerdictPerLoserWithWinnerFirst) {
  const std::vector<Region> regions = {small_region("mixed")};
  const std::vector<PolicyArm> arms = {
      {sim::PolicyKind::kDpOptimal, 0},
      {sim::PolicyKind::kEqualized, 0},
      {sim::PolicyKind::kNonAdaptiveRestart, 0},
  };
  PolicyRace race(regions, arms, small_race_options());
  const PolicyRaceResult result = race.run();

  ASSERT_EQ(result.verdicts.size(), arms.size() - 1);
  const std::string winner_policy =
      sim::to_string(arms[result.race.best].policy);
  for (const VerdictRecord& v : result.verdicts) {
    EXPECT_EQ(v.kind, "race");
    EXPECT_EQ(v.policy_a, winner_policy);
    EXPECT_EQ(v.region_a, "mixed");
    EXPECT_DOUBLE_EQ(v.gap_mean, v.mean_a - v.mean_b);
    EXPECT_LE(v.gap_lower, v.gap_mean);
    EXPECT_GE(v.gap_upper, v.gap_mean);
    EXPECT_EQ(v.delta, 0.1);
  }
  // Note: the winner is whichever arm banks the most work against THIS
  // region's stochastic owners — dp-optimal maximizes the worst case, so it
  // need not win a mean-score race. The race's job is only to be right
  // about the sample means, which the conformance differential pins.
  EXPECT_LT(result.race.best, arms.size());
}

TEST(PolicyRace, VerdictSerializationRoundTripsBitExactly) {
  VerdictRecord v;
  v.kind = "race";
  v.policy_a = "dp-optimal";
  v.region_a = "mixed/lo";
  v.policy_b = "equalized";
  v.region_b = "mixed/hi";
  v.mean_a = 0.7231896349106623;
  v.mean_b = 1.0 / 3.0;
  v.gap_mean = v.mean_a - v.mean_b;
  v.gap_lower = -0.0123456789012345678;
  v.gap_upper = 0.987654321;
  v.delta = 0.01;
  v.epsilon = 1e-3;
  v.pulls_a = 12345678901234567ull;
  v.pulls_b = 42;
  v.confident = true;

  const std::string text = to_verdict_string(v);
  EXPECT_EQ(text.rfind("nowsched-verdict v1\n", 0), 0u);
  const VerdictRecord back = verdict_from_string(text);
  EXPECT_EQ(back.kind, v.kind);
  EXPECT_EQ(back.policy_a, v.policy_a);
  EXPECT_EQ(back.region_a, v.region_a);
  EXPECT_EQ(back.policy_b, v.policy_b);
  EXPECT_EQ(back.region_b, v.region_b);
  EXPECT_EQ(back.mean_a, v.mean_a);  // bit-exact, not NEAR
  EXPECT_EQ(back.mean_b, v.mean_b);
  EXPECT_EQ(back.gap_mean, v.gap_mean);
  EXPECT_EQ(back.gap_lower, v.gap_lower);
  EXPECT_EQ(back.gap_upper, v.gap_upper);
  EXPECT_EQ(back.delta, v.delta);
  EXPECT_EQ(back.epsilon, v.epsilon);
  EXPECT_EQ(back.pulls_a, v.pulls_a);
  EXPECT_EQ(back.pulls_b, v.pulls_b);
  EXPECT_EQ(back.confident, v.confident);
  // And the round-trip is textually a fixed point.
  EXPECT_EQ(to_verdict_string(back), text);
}

TEST(PolicyRace, VerdictEncoderOutputIsPinnedByteForByte) {
  VerdictRecord v;
  v.kind = "race";
  v.policy_a = "dp-optimal";
  v.region_a = "small";
  v.policy_b = "equalized";
  v.region_b = "large";
  v.mean_a = 0.75;
  v.mean_b = 0.1 + 0.2;
  v.gap_mean = 0.45;
  v.gap_lower = -0.015625;
  v.gap_upper = 1e-300;
  v.delta = 0.05;
  v.epsilon = 0.0;
  v.pulls_a = 128;
  v.pulls_b = 18446744073709551615ull;
  v.confident = true;
  EXPECT_EQ(to_verdict_string(v), R"(nowsched-verdict v1
kind=race
policy_a=dp-optimal
region_a=small
policy_b=equalized
region_b=large
mean_a=0.75
mean_b=0.30000000000000004
gap_mean=0.45000000000000001
gap_lower=-0.015625
gap_upper=1e-300
delta=0.050000000000000003
epsilon=0
pulls_a=128
pulls_b=18446744073709551615
confident=1
)");
}

TEST(PolicyRace, VerdictParserIsStrict) {
  EXPECT_THROW(verdict_from_string("nope\n"), std::invalid_argument);
  EXPECT_THROW(verdict_from_string("nowsched-verdict v1\nbogus_key=1\n"),
               std::invalid_argument);
  EXPECT_THROW(verdict_from_string("nowsched-verdict v1\nkind=race\n"),
               std::invalid_argument);  // incomplete
  EXPECT_THROW(
      verdict_from_string("nowsched-verdict v1\nkind=race\npolicy_a=x\n"
                          "policy_b=y\ngap_mean=zzz\ndelta=0.1\n"),
      std::invalid_argument);  // malformed number
  EXPECT_THROW(
      verdict_from_string("nowsched-verdict v1\nkind=race\npolicy_a=x\n"
                          "policy_b=y\ngap_mean=0.5\ndelta=0.1\nconfident=2\n"),
      std::invalid_argument);  // confident must be 0/1
  EXPECT_THROW(
      verdict_from_string("nowsched-verdict v1\nkind=race\npolicy_a=x\n"
                          "policy_b=y\ngap_mean=0.5\ndelta=0.1\ngap_mean=0.25\n"),
      std::invalid_argument);  // duplicate key
}

TEST(PolicyRace, ConstructorValidates) {
  const std::vector<Region> regions = {small_region("mixed")};
  const std::vector<PolicyArm> one_arm = {{sim::PolicyKind::kEqualized, 0}};
  const std::vector<PolicyArm> bad_region = {
      {sim::PolicyKind::kEqualized, 0}, {sim::PolicyKind::kDpOptimal, 3}};
  EXPECT_THROW(PolicyRace({}, one_arm, small_race_options()),
               std::invalid_argument);
  EXPECT_THROW(PolicyRace(regions, one_arm, small_race_options()),
               std::invalid_argument);
  EXPECT_THROW(PolicyRace(regions, bad_region, small_race_options()),
               std::invalid_argument);
  EXPECT_THROW(arm_label({sim::PolicyKind::kEqualized, 9}, regions),
               std::invalid_argument);
  EXPECT_EQ(arm_label({sim::PolicyKind::kAdaptivePaper, 0}, regions),
            "adaptive-paper@mixed");
}

// ---------------------------------------------------------------------------
// Regret hunt
// ---------------------------------------------------------------------------

TEST(RegretHunt, SplitRegionHalvesTheWidestAxisGeometrically) {
  Region region = small_region("root");
  region.domain.min_lifespan = 64;
  region.domain.max_lifespan = 1024;  // log-width ln(16) — the widest axis
  region.domain.min_c = 2;
  region.domain.max_c = 8;
  const std::vector<Region> children = split_region(region);
  ASSERT_EQ(children.size(), 2u);
  EXPECT_EQ(children[0].name, "root/lo");
  EXPECT_EQ(children[1].name, "root/hi");
  // Geometric midpoint of [64, 1024] is sqrt(65536) = 256.
  EXPECT_EQ(children[0].domain.max_lifespan, 256);
  EXPECT_EQ(children[1].domain.min_lifespan, 257);
  // Untouched axes survive verbatim, and both children validate.
  EXPECT_EQ(children[0].domain.max_c, 8);
  children[0].domain.validate();
  children[1].domain.validate();
}

TEST(RegretHunt, SplitFallsBackToNarrowerAxes) {
  Region region = small_region("pt");
  region.domain.min_lifespan = region.domain.max_lifespan = 256;
  region.domain.min_c = 2;
  region.domain.max_c = 32;  // now the widest axis
  const std::vector<Region> children = split_region(region);
  EXPECT_EQ(children[0].domain.max_c, 8);  // sqrt(64) = 8
  EXPECT_EQ(children[1].domain.min_c, 9);

  // Fully degenerate region: children are probe-able copies, not an error.
  region.domain.min_c = region.domain.max_c = 4;
  region.domain.min_interrupts = region.domain.max_interrupts = 2;
  const std::vector<Region> copies = split_region(region);
  EXPECT_EQ(copies[0].domain.min_c, copies[1].domain.min_c);
  copies[0].domain.validate();
}

TEST(RegretHunt, FindsRegretAndIsDeterministic) {
  Region root = small_region("root");
  root.domain.max_lifespan = 384;  // exact-regret probes stay cheap
  const std::vector<sim::PolicyKind> policies = {
      sim::PolicyKind::kEqualized, sim::PolicyKind::kNonAdaptiveRestart};
  RegretHuntOptions options;
  options.probes_per_region = 8;
  options.rounds = 3;
  options.beam = 2;
  options.seed = 11;

  solver::SolveCache cache;
  const RegretHuntResult a = hunt_regret(root, policies, options, cache);
  // round 1: 1 region × 2 policies; rounds 2..3: <= beam-split frontier.
  EXPECT_EQ(a.scenarios_evaluated, a.ranked.size() * options.probes_per_region);
  ASSERT_FALSE(a.ranked.empty());
  ASSERT_EQ(a.verdicts.size(), options.beam);

  // Ranked by mean regret, descending; regret is a normalized score.
  for (std::size_t i = 1; i < a.ranked.size(); ++i) {
    EXPECT_GE(a.ranked[i - 1].regret.mean, a.ranked[i].regret.mean);
  }
  for (const RegionRegret& rr : a.ranked) {
    EXPECT_GE(rr.worst_regret, 0.0);
    EXPECT_LE(rr.worst_regret, 1.0);
    EXPECT_GE(rr.worst_regret, rr.regret.mean - 1e-12);
    EXPECT_NEAR(rr.regret.mean, rr.mean_dp - rr.mean_guideline, 1e-12);
    // The banked worst spec replays to the same exact regret.
    const sim::ScenarioSpec replayed =
        sim::scenario_from_replay(sim::to_replay_string(rr.worst));
    EXPECT_DOUBLE_EQ(static_cast<double>(regret_ticks(replayed, cache)) /
                         static_cast<double>(replayed.lifespan),
                     rr.worst_regret);
  }
  for (const VerdictRecord& v : a.verdicts) {
    EXPECT_EQ(v.kind, "regret");
    EXPECT_EQ(v.policy_a, std::string("dp-optimal"));
    EXPECT_EQ(v.region_a, v.region_b);
    // Bit-exact serialization round-trip for artifact banking.
    EXPECT_EQ(to_verdict_string(verdict_from_string(to_verdict_string(v))),
              to_verdict_string(v));
  }

  // Deterministic: a second hunt (fresh cache) reproduces everything.
  solver::SolveCache cold;
  const RegretHuntResult b = hunt_regret(root, policies, options, cold);
  ASSERT_EQ(b.ranked.size(), a.ranked.size());
  for (std::size_t i = 0; i < a.ranked.size(); ++i) {
    EXPECT_EQ(b.ranked[i].region.name, a.ranked[i].region.name);
    EXPECT_EQ(b.ranked[i].policy, a.ranked[i].policy);
    EXPECT_EQ(b.ranked[i].regret.mean, a.ranked[i].regret.mean);  // bit-exact
    EXPECT_EQ(sim::to_replay_string(b.ranked[i].worst),
              sim::to_replay_string(a.ranked[i].worst));
  }
  ASSERT_EQ(b.verdicts.size(), a.verdicts.size());
  for (std::size_t i = 0; i < a.verdicts.size(); ++i) {
    EXPECT_EQ(to_verdict_string(b.verdicts[i]), to_verdict_string(a.verdicts[i]));
  }
}

TEST(RegretHunt, RejectsNonsense) {
  const Region root = small_region("root");
  solver::SolveCache cache;
  RegretHuntOptions options;
  EXPECT_THROW(hunt_regret(root, {}, options, cache), std::invalid_argument);
  EXPECT_THROW(hunt_regret(root, {sim::PolicyKind::kDpOptimal}, options, cache),
               std::invalid_argument);
  options.beam = 0;
  EXPECT_THROW(hunt_regret(root, {sim::PolicyKind::kEqualized}, options, cache),
               std::invalid_argument);
  options.beam = 2;
  options.delta = 1.5;
  EXPECT_THROW(hunt_regret(root, {sim::PolicyKind::kEqualized}, options, cache),
               std::invalid_argument);
}

}  // namespace
}  // namespace nowsched::race
