#include "sim/scenario_gen.h"

#include <cmath>
#include <stdexcept>

#include "util/hash.h"
#include "util/rng.h"
#include "util/text_record.h"

namespace nowsched::sim {

namespace {

// Domain tags keeping the independent derived streams (per-index, contract
// classes, farm groups) from colliding in hash space.
constexpr std::uint64_t kIndexTag = 0x5CE4A810;
constexpr std::uint64_t kClassTag = 0xC1A55E5;
constexpr std::uint64_t kGroupTag = 0xFA43A11;

const std::vector<PolicyKind>& all_policies() {
  static const std::vector<PolicyKind> kAll = {
      PolicyKind::kEqualized, PolicyKind::kAdaptivePaper,
      PolicyKind::kNonAdaptiveRestart, PolicyKind::kDpOptimal};
  return kAll;
}

const std::vector<OwnerKind>& all_owners() {
  static const std::vector<OwnerKind> kAll = {
      OwnerKind::kPoisson,       OwnerKind::kPareto,
      OwnerKind::kUniform,       OwnerKind::kMarkovModulated,
      OwnerKind::kInhomogeneous, OwnerKind::kBursty,
      OwnerKind::kCorrelatedShock};
  return kAll;
}

/// Log-uniform integer in [lo, hi] — contracts span orders of magnitude, so
/// uniform sampling would almost never produce small instances.
Ticks log_uniform(util::Rng& rng, Ticks lo, Ticks hi) {
  if (lo >= hi) return lo;
  const double x = rng.uniform(std::log(static_cast<double>(lo)),
                               std::log(static_cast<double>(hi)));
  const Ticks t = static_cast<Ticks>(std::llround(std::exp(x)));
  return std::max(lo, std::min(hi, t));
}

double positive(double x) { return x > 1.0 ? x : 1.0; }

}  // namespace

void ScenarioDomain::validate() const {
  if (min_c < 1 || max_c < min_c) {
    throw std::invalid_argument("ScenarioDomain: need 1 <= min_c <= max_c");
  }
  if (min_lifespan < 1 || max_lifespan < min_lifespan) {
    throw std::invalid_argument(
        "ScenarioDomain: need 1 <= min_lifespan <= max_lifespan");
  }
  if (min_interrupts < 0 || max_interrupts < min_interrupts) {
    throw std::invalid_argument(
        "ScenarioDomain: need 0 <= min_interrupts <= max_interrupts");
  }
  if (class_fraction < 0.0 || class_fraction > 1.0) {
    throw std::invalid_argument("ScenarioDomain: class_fraction in [0, 1]");
  }
  if (farm_size < 1) {
    throw std::invalid_argument("ScenarioDomain: farm_size >= 1");
  }
}

ScenarioGenerator::ScenarioGenerator(ScenarioDomain domain, std::uint64_t seed)
    : domain_(std::move(domain)), seed_(seed) {
  domain_.validate();
}

ScenarioSpec ScenarioGenerator::at(std::uint64_t index) const {
  // The whole scenario folds out of one per-index stream; nothing here
  // reads the cursor or any other mutable state.
  util::Rng rng(util::hash_combine(util::hash_combine(kIndexTag, seed_), index));
  ScenarioSpec spec;

  const auto& policies = domain_.policies.empty() ? all_policies() : domain_.policies;
  const auto& owners = domain_.owners.empty() ? all_owners() : domain_.owners;
  spec.policy = policies[static_cast<std::size_t>(rng.next_below(policies.size()))];
  spec.owner = owners[static_cast<std::size_t>(rng.next_below(owners.size()))];

  // Contract: fresh log-uniform draw, or one of the canonical classes.
  // Class contracts derive from (seed, class id) alone so every scenario of
  // a class shares the exact (c, U, p) — the canonical solver input folds.
  const bool from_class = domain_.contract_classes > 0 &&
                          rng.uniform01() < domain_.class_fraction;
  util::Rng class_rng(util::hash_combine(
      util::hash_combine(kClassTag, seed_),
      domain_.contract_classes > 0 ? rng.next_below(domain_.contract_classes) : 0));
  util::Rng& contract_rng = from_class ? class_rng : rng;
  spec.params = Params{log_uniform(contract_rng, domain_.min_c, domain_.max_c)};
  spec.lifespan =
      log_uniform(contract_rng, domain_.min_lifespan, domain_.max_lifespan);
  spec.max_interrupts = static_cast<int>(contract_rng.uniform_int(
      domain_.min_interrupts, domain_.max_interrupts));

  // Owner-process parameters, scaled to the contract so interrupts land
  // inside the lifespan often enough to matter.
  const double u = static_cast<double>(spec.lifespan);
  const double c = static_cast<double>(spec.params.c);
  switch (spec.owner) {
    case OwnerKind::kPoisson:
      spec.owner_a = positive(rng.uniform(u / 16.0, u));
      spec.owner_b = 0.0;
      break;
    case OwnerKind::kPareto:
      spec.owner_a = positive(rng.uniform(c, u / 2.0));
      spec.owner_b = rng.uniform(0.8, 2.5);
      break;
    case OwnerKind::kUniform:
      spec.owner_a = rng.uniform01();
      spec.owner_b = 0.0;
      break;
    case OwnerKind::kMarkovModulated:
      spec.owner_a = positive(rng.uniform(u / 4.0, u));         // calm gap
      spec.owner_b = positive(rng.uniform(c, c + u / 16.0));    // busy gap
      spec.owner_c = positive(rng.uniform(u / 8.0, u / 2.0));   // calm dwell
      spec.owner_d = positive(rng.uniform(u / 16.0, u / 4.0));  // busy dwell
      break;
    case OwnerKind::kInhomogeneous:
      spec.owner_a = positive(rng.uniform(u / 8.0, u / 2.0));  // mean gap
      spec.owner_b = rng.uniform01();                          // depth
      spec.owner_c = positive(rng.uniform(u / 4.0, u));        // period
      spec.owner_d = rng.uniform(0.0, 6.283185307179586);      // phase
      break;
    case OwnerKind::kBursty:
      spec.owner_a = positive(rng.uniform(u / 8.0, u / 2.0));  // absence scale
      spec.owner_b = rng.uniform(0.8, 2.0);                    // tail shape
      spec.owner_c = rng.uniform(1.0, 6.0);                    // mean burst
      spec.owner_d = positive(rng.uniform(1.0, 4.0 * c));      // intra gap
      break;
    case OwnerKind::kCorrelatedShock: {
      // The shock gap is a GROUP parameter (stations consume the shared
      // stream in lockstep only when their gaps agree), so it derives from
      // the group id, not this index; the response coin stays per-station.
      const std::uint64_t group = index / domain_.farm_size;
      spec.group_seed =
          util::hash_combine(util::hash_combine(kGroupTag, seed_), group);
      util::Rng group_rng(util::hash_combine(spec.group_seed, 1));
      spec.owner_a = positive(group_rng.uniform(
          static_cast<double>(domain_.min_lifespan) / 8.0,
          static_cast<double>(domain_.max_lifespan) / 2.0));
      spec.owner_b = rng.uniform(0.25, 1.0);
      break;
    }
  }

  spec.seed = rng.next();
  return spec;
}

ScenarioSpec ScenarioGenerator::next() { return at(cursor_++); }

std::vector<ScenarioSpec> ScenarioGenerator::batch(std::size_t n) {
  std::vector<ScenarioSpec> specs;
  specs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) specs.push_back(next());
  return specs;
}

std::vector<ScenarioSpec> ScenarioGenerator::farm_group(std::size_t stations) {
  // One shared shock process, per-station everything else: force every
  // member onto kCorrelatedShock with the group of the FIRST index so the
  // whole call lands in one group even when it straddles a farm_size
  // boundary.
  const std::uint64_t group = cursor_ / domain_.farm_size;
  const std::uint64_t group_seed =
      util::hash_combine(util::hash_combine(kGroupTag, seed_), group);
  util::Rng group_rng(util::hash_combine(group_seed, 1));
  const double shock_gap = positive(group_rng.uniform(
      static_cast<double>(domain_.min_lifespan) / 8.0,
      static_cast<double>(domain_.max_lifespan) / 2.0));

  std::vector<ScenarioSpec> specs;
  specs.reserve(stations);
  for (std::size_t i = 0; i < stations; ++i) {
    ScenarioSpec spec = next();
    util::Rng station_rng(util::hash_combine(group_seed, 2 + i));
    spec.owner = OwnerKind::kCorrelatedShock;
    spec.owner_a = shock_gap;
    spec.owner_b = station_rng.uniform(0.25, 1.0);
    spec.owner_c = 0.0;
    spec.owner_d = 0.0;
    spec.group_seed = group_seed;
    specs.push_back(spec);
  }
  return specs;
}

// ---------------------------------------------------------------------------
// Replay serialization
// ---------------------------------------------------------------------------

namespace {

constexpr const char* kReplayHeader = "nowsched-scenario v1";

constexpr util::Field<ScenarioSpec> kScenarioFields[] = {
    {"policy",
     [](std::string& out, const ScenarioSpec& s) { out += to_string(s.policy); },
     [](ScenarioSpec& s, const std::string& v) { s.policy = policy_kind_from_string(v); }},
    {"owner",
     [](std::string& out, const ScenarioSpec& s) { out += to_string(s.owner); },
     [](ScenarioSpec& s, const std::string& v) { s.owner = owner_kind_from_string(v); }},
    util::field<&ScenarioSpec::owner_a>("owner_a", false),
    util::field<&ScenarioSpec::owner_b>("owner_b", false),
    util::field<&ScenarioSpec::owner_c>("owner_c", false),
    util::field<&ScenarioSpec::owner_d>("owner_d", false),
    {"c", [](std::string& out, const ScenarioSpec& s) { util::append_value(out, s.params.c); },
     [](ScenarioSpec& s, const std::string& v) { s.params.c = util::parse_value<Ticks>(v); }},
    util::field<&ScenarioSpec::lifespan>("lifespan"),
    util::field<&ScenarioSpec::max_interrupts>("max_interrupts"),
    util::field<&ScenarioSpec::seed>("seed"),
    util::field<&ScenarioSpec::group_seed>("group_seed", false),
};

}  // namespace

std::string to_replay_string(const ScenarioSpec& spec) {
  std::string out;
  append_replay(out, spec);
  return out;
}

void append_replay(std::string& out, const ScenarioSpec& spec) {
  util::append_record(out, kReplayHeader, kScenarioFields, spec);
}

PolicyKind policy_kind_from_string(const std::string& name) {
  for (PolicyKind kind : all_policies()) {
    if (name == to_string(kind)) return kind;
  }
  throw std::invalid_argument("unknown policy kind: '" + name + "'");
}

OwnerKind owner_kind_from_string(const std::string& name) {
  for (OwnerKind kind : all_owners()) {
    if (name == to_string(kind)) return kind;
  }
  throw std::invalid_argument("unknown owner kind: '" + name + "'");
}

ScenarioSpec scenario_from_replay(std::string_view text) {
  util::RecordReader in("scenario replay", text, kReplayHeader);
  ScenarioSpec spec;
  in.section("", util::bind(kScenarioFields, spec));
  return spec;
}

}  // namespace nowsched::sim
