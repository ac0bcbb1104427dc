#include "sim/batch_runner.h"

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "adversary/processes.h"
#include "adversary/stochastic.h"
#include "core/equalized.h"
#include "core/guidelines.h"
#include "sim/session.h"
#include "solver/extract.h"
#include "util/hash.h"

namespace nowsched::sim {

namespace {

void validate_spec(const ScenarioSpec& spec, std::size_t index) {
  try {
    require_valid(spec.params);
    require_valid(Opportunity{spec.lifespan, spec.max_interrupts});
    // The owner constructors are the single source of parameter-validation
    // truth (adversary/processes.cpp, adversary/stochastic.cpp); building
    // one and throwing it away re-uses their checks verbatim.
    (void)make_owner(spec);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument("BatchRunner: scenario #" + std::to_string(index) +
                                " invalid: " + e.what());
  }
}

/// Answers a session's opening (U, p) with the cache's memoized episode and
/// delegates every later episode, whole or prefix, to the policy. Episodes
/// are a pure function of (residual, interrupts left, c), so the session
/// runs exactly what the policy would have built.
class MemoizedOpening final : public SchedulingPolicy {
 public:
  MemoizedOpening(const SchedulingPolicy& policy, Opportunity opening,
                  solver::SolveCache::EpisodePtr episode)
      : policy_(policy), opening_(opening), episode_(std::move(episode)) {}

  std::string name() const override { return policy_.name(); }

  EpisodeSchedule episode(Ticks residual, int interrupts_left,
                          const Params& params) const override {
    if (is_opening(residual, interrupts_left)) return *episode_;
    return policy_.episode(residual, interrupts_left, params);
  }

  EpisodeSchedule episode_prefix(Ticks residual, int interrupts_left,
                                 const Params& params, Ticks until) const override {
    if (is_opening(residual, interrupts_left)) return *episode_;
    return policy_.episode_prefix(residual, interrupts_left, params, until);
  }

 private:
  bool is_opening(Ticks residual, int interrupts_left) const noexcept {
    return residual == opening_.lifespan && interrupts_left == opening_.max_interrupts;
  }

  const SchedulingPolicy& policy_;
  Opportunity opening_;
  solver::SolveCache::EpisodePtr episode_;
};

/// The spec's memoized opening episode, or nullptr when its key misses for
/// the first time: the memo stores an episode only once its key repeats.
solver::SolveCache::EpisodePtr opening_episode(solver::SolveCache& cache,
                                               const ScenarioSpec& spec,
                                               const SchedulingPolicy& policy) {
  const solver::EpisodeKey key{static_cast<int>(spec.policy), spec.max_interrupts,
                               spec.lifespan, spec.params.c};
  const auto lookup = cache.find_episode(key);
  if (!lookup.admit) return lookup.episode;
  return cache.insert_episode(
      key, std::make_shared<const EpisodeSchedule>(
               policy.episode(spec.lifespan, spec.max_interrupts, spec.params)));
}

}  // namespace

void validate_batch_specs(const std::vector<ScenarioSpec>& specs) {
  for (std::size_t i = 0; i < specs.size(); ++i) validate_spec(specs[i], i);
}

std::unique_ptr<adversary::Adversary> make_owner(const ScenarioSpec& spec) {
  const std::uint64_t seed = scenario_stream_seed(spec);
  switch (spec.owner) {
    case OwnerKind::kPoisson:
      return std::make_unique<adversary::PoissonAdversary>(spec.owner_a, seed);
    case OwnerKind::kPareto:
      return std::make_unique<adversary::ParetoSessionAdversary>(spec.owner_a,
                                                                 spec.owner_b, seed);
    case OwnerKind::kUniform:
      return std::make_unique<adversary::UniformEpisodeAdversary>(spec.owner_a, seed);
    case OwnerKind::kMarkovModulated:
      return std::make_unique<adversary::MarkovModulatedAdversary>(
          spec.owner_a, spec.owner_b, spec.owner_c, spec.owner_d, seed);
    case OwnerKind::kInhomogeneous:
      return std::make_unique<adversary::InhomogeneousPoissonAdversary>(
          spec.owner_a, spec.owner_b, spec.owner_c, spec.owner_d, seed);
    case OwnerKind::kBursty:
      return std::make_unique<adversary::BurstyAdversary>(
          spec.owner_a, spec.owner_b, spec.owner_c, spec.owner_d, seed);
    case OwnerKind::kCorrelatedShock:
      // The shock stream seeds from group_seed ALONE (not the contract mix):
      // heterogeneous stations of one group must replay identical shocks.
      return std::make_unique<adversary::CorrelatedShockAdversary>(
          spec.owner_a, spec.owner_b, spec.group_seed, seed);
  }
  throw std::logic_error("BatchRunner: unknown owner kind");
}

std::shared_ptr<const SchedulingPolicy> make_policy(const ScenarioSpec& spec,
                                                    solver::SolveCache* cache) {
  switch (spec.policy) {
    case PolicyKind::kEqualized:
      return std::make_shared<EqualizedGuidelinePolicy>();
    case PolicyKind::kAdaptivePaper:
      return std::make_shared<AdaptiveGuidelinePolicy>();
    case PolicyKind::kNonAdaptiveRestart:
      return std::make_shared<NonAdaptiveGuidelinePolicy>();
    case PolicyKind::kDpOptimal: {
      const solver::SolveRequest req{spec.max_interrupts, spec.lifespan, spec.params};
      return std::make_shared<solver::OptimalPolicy>(
          cache != nullptr ? cache->get_or_solve(req) : solver::solve_shared(req));
    }
  }
  throw std::logic_error("BatchRunner: unknown policy kind");
}

const char* to_string(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kEqualized: return "equalized";
    case PolicyKind::kAdaptivePaper: return "adaptive-paper";
    case PolicyKind::kNonAdaptiveRestart: return "nonadaptive-restart";
    case PolicyKind::kDpOptimal: return "dp-optimal";
  }
  return "?";
}

const char* to_string(OwnerKind kind) {
  switch (kind) {
    case OwnerKind::kPoisson: return "poisson";
    case OwnerKind::kPareto: return "pareto";
    case OwnerKind::kUniform: return "uniform";
    case OwnerKind::kMarkovModulated: return "markov";
    case OwnerKind::kInhomogeneous: return "inhomogeneous";
    case OwnerKind::kBursty: return "bursty";
    case OwnerKind::kCorrelatedShock: return "correlated-shock";
  }
  return "?";
}

std::uint64_t scenario_stream_seed(const ScenarioSpec& spec) {
  // Mix the seed with the contract so two specs differing only in (U, p, c)
  // do not replay the same owner arrival stream against both contracts.
  std::uint64_t h = util::hash_combine(0, spec.seed);
  h = util::hash_combine(h, static_cast<std::uint64_t>(spec.lifespan));
  h = util::hash_combine(h, static_cast<std::uint64_t>(spec.max_interrupts));
  return util::hash_combine(h, static_cast<std::uint64_t>(spec.params.c));
}

BatchResult BatchRunner::run(const std::vector<ScenarioSpec>& specs) {
  validate_batch_specs(specs);

  BatchResult result;
  result.scenarios = specs.size();
  result.per_scenario.resize(specs.size());

  // Each task writes only its own slot; parallel_for's return is the
  // barrier that publishes every slot to this thread. grain = 1 because
  // every index is an entire session simulation (tens of microseconds, and
  // a whole solve in naive mode): dispatch overhead is small against the
  // body, and fine chunks are what let a small batch use the whole pool and
  // heavy naive-mode sessions balance.
  solver::SolveCache* const cache = options_.shared_cache;
  auto body = [&](std::size_t i) {
    const ScenarioSpec& spec = specs[i];
    const auto policy = make_policy(spec, cache);
    const auto owner = make_owner(spec);
    const Opportunity opportunity{spec.lifespan, spec.max_interrupts};
    auto opening = cache != nullptr && spec.lifespan > 0
                       ? opening_episode(*cache, spec, *policy)
                       : nullptr;
    if (opening == nullptr) {
      result.per_scenario[i] = run_session(*policy, *owner, opportunity, spec.params);
      return;
    }
    const MemoizedOpening memoized(*policy, opportunity, std::move(opening));
    result.per_scenario[i] = run_session(memoized, *owner, opportunity, spec.params);
  };
  if (options_.pool != nullptr && specs.size() > 1) {
    options_.pool->parallel_for(0, specs.size(), body, /*grain=*/1);
  } else {
    for (std::size_t i = 0; i < specs.size(); ++i) body(i);
  }

  for (const SessionMetrics& m : result.per_scenario) result.aggregate.merge(m);
  if (cache != nullptr) result.cache = cache->stats();
  return result;
}

}  // namespace nowsched::sim
