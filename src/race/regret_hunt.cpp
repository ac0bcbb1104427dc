#include "race/regret_hunt.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "race/bounds.h"
#include "solver/policy_eval.h"
#include "util/hash.h"

namespace nowsched::race {

namespace {

constexpr std::uint64_t kHuntTag = 0x4E64E77;

struct ExactValues {
  Ticks dp = 0;         ///< W(p)[U]
  Ticks guideline = 0;  ///< R_π(p, U)
};

ExactValues exact_values(const sim::ScenarioSpec& spec, solver::SolveCache& cache) {
  const auto table = cache.get_or_solve(
      solver::SolveRequest{spec.max_interrupts, spec.lifespan, spec.params});
  ExactValues values;
  values.dp = table->value(spec.max_interrupts, spec.lifespan);
  if (spec.policy == sim::PolicyKind::kDpOptimal) {
    // R_opt == W is a conformance-pinned identity; skip the evaluation.
    values.guideline = values.dp;
    return values;
  }
  const auto policy = sim::make_policy(spec);
  values.guideline =
      solver::evaluate_policy(*policy, spec.lifespan, spec.max_interrupts, spec.params);
  return values;
}

double log_width(Ticks lo, Ticks hi) {
  return std::log(static_cast<double>(hi) / static_cast<double>(lo));
}

/// Geometric midpoint — both split axes are sampled log-uniformly, so this
/// halves the sampling mass, not the linear range.
Ticks geometric_mid(Ticks lo, Ticks hi) {
  const auto mid = static_cast<Ticks>(
      std::floor(std::sqrt(static_cast<double>(lo) * static_cast<double>(hi))));
  return std::min(std::max(mid, lo), hi - 1);
}

}  // namespace

Ticks regret_ticks(const sim::ScenarioSpec& spec, solver::SolveCache& cache) {
  const ExactValues values = exact_values(spec, cache);
  return values.dp - values.guideline;
}

std::vector<Region> split_region(const Region& region) {
  region.domain.validate();
  Region lo = region;
  Region hi = region;
  lo.name += "/lo";
  hi.name += "/hi";

  const double wl = log_width(region.domain.min_lifespan, region.domain.max_lifespan);
  const double wc = log_width(region.domain.min_c, region.domain.max_c);
  const double wp = log_width(region.domain.min_interrupts + 1,
                              region.domain.max_interrupts + 1);

  // Widest axis wins; ties prefer lifespan, then c, then interrupts — the
  // order regret is most sensitive in.
  if (wl >= wc && wl >= wp && region.domain.min_lifespan < region.domain.max_lifespan) {
    const Ticks mid =
        geometric_mid(region.domain.min_lifespan, region.domain.max_lifespan);
    lo.domain.max_lifespan = mid;
    hi.domain.min_lifespan = mid + 1;
  } else if (wc >= wp && region.domain.min_c < region.domain.max_c) {
    const Ticks mid = geometric_mid(region.domain.min_c, region.domain.max_c);
    lo.domain.max_c = mid;
    hi.domain.min_c = mid + 1;
  } else if (region.domain.min_interrupts < region.domain.max_interrupts) {
    const int mid = (region.domain.min_interrupts + region.domain.max_interrupts) / 2;
    lo.domain.max_interrupts = mid;
    hi.domain.min_interrupts = mid + 1;
  }
  // Point region: both children are copies — the hunt keeps probing it with
  // fresh scenario indices rather than dying.
  return {std::move(lo), std::move(hi)};
}

void RegretHuntOptions::validate() const {
  if (probes_per_region == 0) {
    throw std::invalid_argument("regret hunt: probes_per_region must be >= 1");
  }
  if (rounds == 0) {
    throw std::invalid_argument("regret hunt: rounds must be >= 1");
  }
  if (beam == 0) {
    throw std::invalid_argument("regret hunt: beam must be >= 1");
  }
  if (!(delta > 0.0) || !(delta < 1.0)) {
    throw std::invalid_argument("regret hunt: delta must lie in (0, 1)");
  }
}

RegretHuntResult hunt_regret(const Region& root,
                             const std::vector<sim::PolicyKind>& policies,
                             const RegretHuntOptions& options,
                             solver::SolveCache& cache) {
  options.validate();
  root.domain.validate();
  if (policies.empty()) {
    throw std::invalid_argument("regret hunt: need at least one policy");
  }
  for (sim::PolicyKind policy : policies) {
    if (policy == sim::PolicyKind::kDpOptimal) {
      throw std::invalid_argument(
          "regret hunt: dp-optimal has regret 0 by definition; hunt guideline "
          "policies");
    }
  }

  RegretHuntResult result;
  struct FrontierRegion {
    Region region;
    std::uint64_t id = 0;  ///< creation-order id: the probe-stream seed root
  };
  std::uint64_t next_id = 0;
  std::vector<FrontierRegion> frontier;
  frontier.push_back({root, next_id++});

  for (std::size_t round = 1; round <= options.rounds; ++round) {
    std::vector<RegionRegret> probed;
    for (const FrontierRegion& fr : frontier) {
      // Matched design (see policy_race.h): one probe stream per REGION, the
      // policy forced via a one-element mix — every policy faces the same
      // contracts, so mean-regret differences are policy effects.
      const std::uint64_t region_seed = util::hash_combine(
          util::hash_combine(kHuntTag, options.seed), fr.id);
      for (sim::PolicyKind policy : policies) {
        sim::ScenarioDomain domain = fr.region.domain;
        domain.policies = {policy};
        const sim::ScenarioGenerator gen(std::move(domain), region_seed);

        RegionRegret rr;
        rr.region = fr.region;
        rr.policy = policy;
        rr.round = round;
        util::Welford dp_score, guideline_score;
        double worst = -1.0;
        for (std::size_t i = 0; i < options.probes_per_region; ++i) {
          const sim::ScenarioSpec spec = gen.at(i);
          const ExactValues values = exact_values(spec, cache);
          const double u = static_cast<double>(spec.lifespan);
          const double regret =
              static_cast<double>(values.dp - values.guideline) / u;
          rr.regret.add(regret);
          dp_score.add(static_cast<double>(values.dp) / u);
          guideline_score.add(static_cast<double>(values.guideline) / u);
          if (regret > worst) {
            worst = regret;
            rr.worst = spec;
          }
        }
        rr.worst_regret = worst;
        rr.mean_dp = dp_score.mean;
        rr.mean_guideline = guideline_score.mean;
        result.scenarios_evaluated += options.probes_per_region;
        probed.push_back(std::move(rr));
      }
    }

    // Rank this round's pairs: mean regret descending, deterministic ties.
    std::sort(probed.begin(), probed.end(),
              [](const RegionRegret& x, const RegionRegret& y) {
                if (x.regret.mean != y.regret.mean) {
                  return x.regret.mean > y.regret.mean;
                }
                if (x.region.name != y.region.name) {
                  return x.region.name < y.region.name;
                }
                return static_cast<int>(x.policy) < static_cast<int>(y.policy);
              });

    // Descend: split the distinct regions of the top-`beam` pairs.
    if (round < options.rounds) {
      std::vector<FrontierRegion> next;
      for (std::size_t i = 0; i < probed.size() && i < options.beam; ++i) {
        const std::string& name = probed[i].region.name;
        const bool seen =
            std::any_of(next.begin(), next.end(), [&](const FrontierRegion& fr) {
              // Children carry the parent name as a prefix "<name>/".
              return fr.region.name.compare(0, name.size() + 1, name + "/") == 0;
            });
        if (seen) continue;
        for (Region& child : split_region(probed[i].region)) {
          next.push_back({std::move(child), next_id++});
        }
      }
      frontier = std::move(next);
    }

    for (RegionRegret& rr : probed) result.ranked.push_back(std::move(rr));
  }

  // Global ranking and the worst-region verdicts.
  std::sort(result.ranked.begin(), result.ranked.end(),
            [](const RegionRegret& x, const RegionRegret& y) {
              if (x.regret.mean != y.regret.mean) {
                return x.regret.mean > y.regret.mean;
              }
              if (x.round != y.round) return x.round < y.round;
              if (x.region.name != y.region.name) {
                return x.region.name < y.region.name;
              }
              return static_cast<int>(x.policy) < static_cast<int>(y.policy);
            });
  for (std::size_t i = 0; i < result.ranked.size() && i < options.beam; ++i) {
    const RegionRegret& rr = result.ranked[i];
    const double radius = confidence_radius(rr.regret, 1.0, options.delta);
    VerdictRecord v;
    v.kind = "regret";
    v.policy_a = sim::to_string(sim::PolicyKind::kDpOptimal);
    v.region_a = rr.region.name;
    v.policy_b = sim::to_string(rr.policy);
    v.region_b = rr.region.name;
    v.mean_a = rr.mean_dp;
    v.mean_b = rr.mean_guideline;
    v.gap_mean = rr.regret.mean;
    v.gap_lower = std::max(0.0, rr.regret.mean - radius);
    v.gap_upper = std::min(1.0, rr.regret.mean + radius);
    v.delta = options.delta;
    v.epsilon = 0.0;
    v.pulls_a = static_cast<std::uint64_t>(rr.regret.n);
    v.pulls_b = static_cast<std::uint64_t>(rr.regret.n);
    v.confident = rr.regret.mean - radius > 0.0;
    result.verdicts.push_back(std::move(v));
  }
  return result;
}

}  // namespace nowsched::race
