// Statistical policy racing over the generated scenario space (DESIGN.md §9).
//
// An arm is a (policy, scenario-region) pair: "run PolicyKind P on scenarios
// drawn from region R". Pull i of an arm simulates the i-th scenario of the
// region's generator stream with the arm's policy forced, and scores it
//
//     score = banked_work / lifespan  ∈ [0, 1]
//
// (banked_work <= lifespan by the model, so the racing bounds get a true
// range). Scoring goes through ONE persistent sim::BatchRunner over the
// caller's solve cache (PolicyRaceOptions::batch.shared_cache), so dp-optimal
// arms share solves across pulls, rounds, and arms.
//
// Matched design: every generator is seeded from (race seed, REGION) — not
// the arm — and the arm's policy is forced by narrowing the region's domain
// to a single-policy mix. Drawing from a one-element policy mix consumes
// exactly one RNG draw, the same as any other mix, so two arms racing
// different policies on the SAME region face bit-identical contract, owner,
// and seed sequences: score differences are pure policy effects, never luck
// of the scenario draw.
//
// Determinism: sample_spec(arm, i) is random-access pure (the generator
// contract), BatchRunner results are bit-identical across thread counts and
// with or without a cache, and the race engine breaks every tie by index — so
// the full PolicyRaceResult (verdicts included) is a deterministic function
// of (regions, arms, options). Pinned by tests/race_stress_test.cpp.
//
// Verdicts: the race is distilled into pairwise VerdictRecords — "policy A
// on region Ra beats policy B on region Rb with gap in [lo, hi] at
// confidence 1 − δ" — with a bit-exact text serialization
// ("nowsched-verdict v1", the scenario-replay format's sibling) so nightly
// regret hunts can bank verdicts as artifacts and tests can replay them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "race/race.h"
#include "sim/batch_runner.h"
#include "sim/scenario_gen.h"

namespace nowsched::race {

/// A named sub-region of scenario space. The domain's policy mix is ignored
/// (each arm forces its own policy); everything else — owners, contract
/// ranges, classes — carves out the region.
struct Region {
  std::string name;
  sim::ScenarioDomain domain;
};

/// One arm of the race: run `policy` on scenarios from regions[region].
struct PolicyArm {
  sim::PolicyKind policy = sim::PolicyKind::kEqualized;
  std::size_t region = 0;
};

/// "adaptive-paper@heavy-tail" — the stable display/serialization name of an
/// arm.
std::string arm_label(const PolicyArm& arm, const std::vector<Region>& regions);

struct PolicyRaceOptions {
  RaceOptions race;
  /// Root seed; generator seeds derive from (seed, region index).
  std::uint64_t seed = 0;
  /// Pool and solve cache of the scoring BatchRunner. The cache is the
  /// caller's (it must outlive the race, and its stats() are the race's
  /// solve counters); without one every dp-optimal pull solves its own
  /// table.
  sim::BatchOptions batch;
};

/// One pairwise conclusion of a race. gap_* bound mean(a) − mean(b): the
/// point estimate and the conservative interval [lower(a) − upper(b),
/// upper(a) − lower(b)] from the arms' anytime-δ intervals.
struct VerdictRecord {
  std::string kind;      ///< "race" (best vs challenger) or "regret" (hunt)
  std::string policy_a;  ///< winner's policy (to_string(PolicyKind))
  std::string region_a;  ///< winner's region name
  std::string policy_b;  ///< loser's policy
  std::string region_b;  ///< loser's region name
  double mean_a = 0.0;
  double mean_b = 0.0;
  double gap_mean = 0.0;
  double gap_lower = 0.0;
  double gap_upper = 0.0;
  double delta = 0.0;    ///< race δ the bounds were computed at
  double epsilon = 0.0;  ///< race ε of the stopping rule
  std::uint64_t pulls_a = 0;
  std::uint64_t pulls_b = 0;
  /// True when the race separated a from b: gap_lower >= −ε at stop.
  bool confident = false;
};

/// Bit-exact text serialization: a "nowsched-verdict v1" keyed record
/// (DESIGN §8). verdict_from_string(to_verdict_string(v)) rebuilds v
/// exactly; a breach of the keyed rule throws std::invalid_argument.
std::string to_verdict_string(const VerdictRecord& verdict);
VerdictRecord verdict_from_string(const std::string& text);

struct PolicyRaceResult {
  RaceResult race;
  /// Best arm vs every other arm, in ascending loser-arm order. The winner
  /// of each record is always the race's best arm (kind == "race").
  std::vector<VerdictRecord> verdicts;
};

class PolicyRace {
 public:
  /// Validates up front (throws std::invalid_argument): >= 2 arms, every
  /// arm's region index in range, every region domain valid, race options
  /// valid for the arm count.
  PolicyRace(std::vector<Region> regions, std::vector<PolicyArm> arms,
             PolicyRaceOptions options);

  /// The spec pull `index` of `arm` simulates — random-access pure, and
  /// identical across arms that share a region except for the forced
  /// policy. Exposed so the conformance suite can re-run any banked score
  /// directly through BatchRunner.
  sim::ScenarioSpec sample_spec(std::size_t arm, std::uint64_t index) const;

  /// Scores pulls [start, start+count) of `arm` through the persistent
  /// runner — exactly the sampler the race uses.
  std::vector<double> score_batch(std::size_t arm, std::uint64_t start,
                                  std::size_t count);

  /// Runs the race and distills verdicts. Deterministic given construction.
  PolicyRaceResult run();

  /// banked_work / lifespan of one session — THE score the race banks.
  static double score_of(const sim::SessionMetrics& metrics,
                         const sim::ScenarioSpec& spec);

 private:
  std::vector<Region> regions_;
  std::vector<PolicyArm> arms_;
  PolicyRaceOptions options_;
  /// Per-arm generators, seeded by REGION (matched design; see file header).
  std::vector<sim::ScenarioGenerator> generators_;
  sim::BatchRunner runner_;
};

}  // namespace nowsched::race
