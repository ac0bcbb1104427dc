#include "race/policy_race.h"

#include <stdexcept>

#include "util/hash.h"
#include "util/text_record.h"

namespace nowsched::race {

namespace {

/// Domain tag separating race generator streams from every other
/// hash_combine user (scenario index streams, store checksums, ...).
constexpr std::uint64_t kRaceTag = 0xBA1DACE5;

constexpr util::Field<VerdictRecord> kVerdictFields[] = {
    util::field<&VerdictRecord::kind>("kind"),
    util::field<&VerdictRecord::policy_a>("policy_a"),
    util::field<&VerdictRecord::region_a>("region_a", false),
    util::field<&VerdictRecord::policy_b>("policy_b"),
    util::field<&VerdictRecord::region_b>("region_b", false),
    util::field<&VerdictRecord::mean_a>("mean_a", false),
    util::field<&VerdictRecord::mean_b>("mean_b", false),
    util::field<&VerdictRecord::gap_mean>("gap_mean"),
    util::field<&VerdictRecord::gap_lower>("gap_lower", false),
    util::field<&VerdictRecord::gap_upper>("gap_upper", false),
    util::field<&VerdictRecord::delta>("delta"),
    util::field<&VerdictRecord::epsilon>("epsilon", false),
    util::field<&VerdictRecord::pulls_a>("pulls_a", false),
    util::field<&VerdictRecord::pulls_b>("pulls_b", false),
    util::field<&VerdictRecord::confident>("confident", false),
};

constexpr const char* kVerdictHeader = "nowsched-verdict v1";

}  // namespace

std::string arm_label(const PolicyArm& arm, const std::vector<Region>& regions) {
  if (arm.region >= regions.size()) {
    throw std::invalid_argument("arm_label: region index out of range");
  }
  return std::string(sim::to_string(arm.policy)) + "@" + regions[arm.region].name;
}

PolicyRace::PolicyRace(std::vector<Region> regions, std::vector<PolicyArm> arms,
                       PolicyRaceOptions options)
    : regions_(std::move(regions)),
      arms_(std::move(arms)),
      options_(std::move(options)),
      runner_(options_.batch) {
  if (regions_.empty()) {
    throw std::invalid_argument("PolicyRace: need at least one region");
  }
  options_.race.validate(arms_.size());
  generators_.reserve(arms_.size());
  for (const PolicyArm& arm : arms_) {
    if (arm.region >= regions_.size()) {
      throw std::invalid_argument("PolicyRace: arm region index out of range");
    }
    // Matched design: the generator seed depends on the REGION only, and the
    // policy is forced through a one-element mix (which consumes exactly one
    // RNG draw, like any mix) — arms sharing a region therefore face
    // bit-identical contract/owner/seed sequences.
    sim::ScenarioDomain domain = regions_[arm.region].domain;
    domain.policies = {arm.policy};
    const std::uint64_t seed = util::hash_combine(
        util::hash_combine(kRaceTag, options_.seed),
        static_cast<std::uint64_t>(arm.region));
    generators_.emplace_back(std::move(domain), seed);  // validates the domain
  }
}

sim::ScenarioSpec PolicyRace::sample_spec(std::size_t arm,
                                          std::uint64_t index) const {
  if (arm >= arms_.size()) {
    throw std::invalid_argument("PolicyRace: arm index out of range");
  }
  return generators_[arm].at(index);
}

double PolicyRace::score_of(const sim::SessionMetrics& metrics,
                            const sim::ScenarioSpec& spec) {
  return static_cast<double>(metrics.banked_work) /
         static_cast<double>(spec.lifespan);
}

std::vector<double> PolicyRace::score_batch(std::size_t arm, std::uint64_t start,
                                            std::size_t count) {
  std::vector<sim::ScenarioSpec> specs;
  specs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    specs.push_back(sample_spec(arm, start + static_cast<std::uint64_t>(i)));
  }
  const sim::BatchResult batch = runner_.run(specs);
  std::vector<double> scores;
  scores.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    scores.push_back(score_of(batch.per_scenario[i], specs[i]));
  }
  return scores;
}

PolicyRaceResult PolicyRace::run() {
  PolicyRaceResult result;
  result.race = run_race(
      arms_.size(), options_.race,
      [this](std::size_t arm, std::uint64_t start, std::size_t count) {
        return score_batch(arm, start, count);
      });

  const std::size_t best = result.race.best;
  const ArmOutcome& winner = result.race.arms[best];
  for (std::size_t b = 0; b < arms_.size(); ++b) {
    if (b == best) continue;
    const ArmOutcome& loser = result.race.arms[b];
    VerdictRecord v;
    v.kind = "race";
    v.policy_a = sim::to_string(arms_[best].policy);
    v.region_a = regions_[arms_[best].region].name;
    v.policy_b = sim::to_string(arms_[b].policy);
    v.region_b = regions_[arms_[b].region].name;
    v.mean_a = winner.stats.mean;
    v.mean_b = loser.stats.mean;
    v.gap_mean = winner.stats.mean - loser.stats.mean;
    v.gap_lower = winner.lower - loser.upper;
    v.gap_upper = winner.upper - loser.lower;
    v.delta = options_.race.delta;
    v.epsilon = options_.race.epsilon;
    v.pulls_a = static_cast<std::uint64_t>(winner.stats.n);
    v.pulls_b = static_cast<std::uint64_t>(loser.stats.n);
    v.confident = v.gap_lower >= -options_.race.epsilon;
    result.verdicts.push_back(std::move(v));
  }
  return result;
}

// ---------------------------------------------------------------------------
// Verdict serialization — sibling of the scenario replay format.
// ---------------------------------------------------------------------------

std::string to_verdict_string(const VerdictRecord& v) {
  return util::write_record(kVerdictHeader, kVerdictFields, v);
}

VerdictRecord verdict_from_string(const std::string& text) {
  util::RecordReader in("verdict", text, kVerdictHeader);
  VerdictRecord v;
  in.section("", util::bind(kVerdictFields, v));
  return v;
}

}  // namespace nowsched::race
