#include "sim/batch_runner.h"

#include <memory>
#include <stdexcept>

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

std::shared_ptr<const SchedulingPolicy> make_policy(const ScenarioSpec& spec) {
  switch (spec.policy) {
    case PolicyKind::kEqualized:
      return std::make_shared<EqualizedGuidelinePolicy>();
    case PolicyKind::kAdaptivePaper:
      return std::make_shared<AdaptiveGuidelinePolicy>();
    case PolicyKind::kNonAdaptiveRestart:
      return std::make_shared<NonAdaptiveGuidelinePolicy>();
    case PolicyKind::kDpOptimal: {
      const solver::SolveRequest req{spec.max_interrupts, spec.lifespan, spec.params};
      return std::make_shared<solver::OptimalPolicy>(solver::solve_shared(req));
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

BatchRunner::BatchRunner(BatchOptions options)
    // With an external shared cache the private one is never consulted, so
    // build it minimal (one stripe, zero budget) instead of at full width.
    : options_(options),
      cache_(options.shared_cache != nullptr
                 ? solver::SolveCache::Options{1, 0, nullptr}
                 : options.cache) {}

SessionMetrics BatchRunner::run_one(const ScenarioSpec& spec) {
  std::shared_ptr<const SchedulingPolicy> policy;
  if (spec.policy == PolicyKind::kDpOptimal && options_.cache_enabled) {
    const solver::SolveRequest req{spec.max_interrupts, spec.lifespan, spec.params};
    policy = std::make_shared<solver::OptimalPolicy>(
        active_cache().get_or_solve(req));
  } else {
    policy = make_policy(spec);
  }

  auto owner = make_owner(spec);
  return run_session(*policy, *owner, Opportunity{spec.lifespan, spec.max_interrupts},
                     spec.params);
}

BatchResult BatchRunner::run(const std::vector<ScenarioSpec>& specs) {
  validate_batch_specs(specs);

  BatchResult result;
  result.scenarios = specs.size();
  result.per_scenario.resize(specs.size());

  // Each task writes only its own slot; parallel_for's return is the
  // barrier that publishes every slot to this thread. grain = 1 because
  // every index is an entire session simulation (ms-scale): dispatch
  // overhead is negligible against the body, and fine chunks are what let
  // a small batch use the whole pool and heavy naive-mode sessions balance.
  auto body = [&](std::size_t i) { result.per_scenario[i] = run_one(specs[i]); };
  if (options_.pool != nullptr && specs.size() > 1) {
    options_.pool->parallel_for(0, specs.size(), body, /*grain=*/1);
  } else {
    for (std::size_t i = 0; i < specs.size(); ++i) body(i);
  }

  for (const SessionMetrics& m : result.per_scenario) result.aggregate.merge(m);
  result.cache = active_cache().stats();
  return result;
}

}  // namespace nowsched::sim
