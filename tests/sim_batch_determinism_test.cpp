// The BatchRunner determinism contract, tested end to end: one scenario
// list, same seeds ⇒ byte-identical per-scenario and aggregated metrics at
// 1, 2, and 8 pool threads, serial (no pool), and with or without a cache,
// whose memoized opening episodes must replay exactly what every policy
// builds. This is the property that makes batched results citable —
// EXPERIMENTS.md numbers cannot depend on the machine's core count. (Run
// under TSan in CI.)
#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "fuzz_cases.h"
#include "sim/batch_runner.h"
#include "sim/scenario_gen.h"
#include "util/thread_pool.h"

namespace nowsched::sim {
namespace {

/// A heterogeneous 60-scenario mix: every policy kind, every owner kind,
/// several contracts, dp-optimal scenarios spread over 3 solver keys.
std::vector<ScenarioSpec> mixed_specs() {
  std::vector<ScenarioSpec> specs;
  const PolicyKind policies[] = {PolicyKind::kEqualized, PolicyKind::kAdaptivePaper,
                                 PolicyKind::kNonAdaptiveRestart,
                                 PolicyKind::kDpOptimal};
  const OwnerKind owners[] = {OwnerKind::kPoisson, OwnerKind::kPareto,
                              OwnerKind::kUniform};
  for (int i = 0; i < 60; ++i) {
    ScenarioSpec spec;
    spec.policy = policies[i % 4];
    spec.owner = owners[i % 3];
    spec.owner_a = spec.owner == OwnerKind::kUniform ? 0.4 : 400.0 + 100.0 * (i % 5);
    spec.owner_b = 1.25;
    spec.params = Params{16};
    spec.lifespan = 768 + 256 * (i % 3);
    spec.max_interrupts = 1 + (i % 3);
    spec.seed = 0xABC0 + static_cast<std::uint64_t>(i);
    specs.push_back(spec);
  }
  return specs;
}

/// Every field of every metric, serialized — "byte-identical" made literal.
std::string fingerprint(const BatchResult& result) {
  std::ostringstream os;
  os << result.scenarios << '\n' << result.aggregate.to_string() << '\n';
  for (const SessionMetrics& m : result.per_scenario) os << m.to_string() << '\n';
  return os.str();
}

BatchResult run_with(const std::vector<ScenarioSpec>& specs, util::ThreadPool* pool,
                     bool cached) {
  solver::SolveCache cache;
  BatchOptions options;
  options.pool = pool;
  options.shared_cache = cached ? &cache : nullptr;
  BatchRunner runner(options);
  return runner.run(specs);
}

TEST(BatchDeterminism, IdenticalAcrossThreadCountsAndCacheModes) {
  const auto specs = mixed_specs();
  const std::string reference = fingerprint(run_with(specs, nullptr, true));
  ASSERT_FALSE(reference.empty());

  // No cache, serial.
  EXPECT_EQ(fingerprint(run_with(specs, nullptr, false)), reference);

  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    util::ThreadPool pool(threads);
    EXPECT_EQ(fingerprint(run_with(specs, &pool, true)), reference)
        << threads << " threads, cached";
    EXPECT_EQ(fingerprint(run_with(specs, &pool, false)), reference)
        << threads << " threads, naive";
  }
}

TEST(BatchDeterminism, RepeatedRunsOnOneRunnerAreIdentical) {
  // A warm cache (second run) must not change results, only counters.
  const auto specs = mixed_specs();
  util::ThreadPool pool(4);
  solver::SolveCache cache;
  BatchOptions options;
  options.pool = &pool;
  options.shared_cache = &cache;
  BatchRunner runner(options);
  const BatchResult cold = runner.run(specs);
  const BatchResult warm = runner.run(specs);
  EXPECT_EQ(fingerprint(cold), fingerprint(warm));
  EXPECT_GT(warm.cache.hits, cold.cache.hits);
}

TEST(BatchDeterminism, SubmissionOrderOnlyPermutesSlots) {
  // Reversing the scenario list permutes per_scenario accordingly and
  // leaves every individual result unchanged — scheduling leaks nothing.
  const auto specs = mixed_specs();
  std::vector<ScenarioSpec> reversed(specs.rbegin(), specs.rend());

  util::ThreadPool pool(4);
  const BatchResult forward = run_with(specs, &pool, true);
  const BatchResult backward = run_with(reversed, &pool, true);
  ASSERT_EQ(forward.per_scenario.size(), backward.per_scenario.size());
  const std::size_t n = forward.per_scenario.size();
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(forward.per_scenario[i].to_string(),
              backward.per_scenario[n - 1 - i].to_string())
        << i;
  }
  // Aggregate merge is commutative over these fields.
  EXPECT_EQ(forward.aggregate.to_string(), backward.aggregate.to_string());
}

TEST(BatchDeterminism, MemoWarmCacheMatchesTheUncachedRunnerForEveryPolicyAndOwner) {
  // Every policy x owner kind, contracts folded into a few classes so
  // opening episodes repeat within the batch. A pool of 4 runs every pass,
  // so concurrent first use of one key is exercised. The first pass notes
  // each key and memoizes the repeated ones, the second memoizes the rest,
  // and the third answers every opening episode from the memo. Each pass
  // must equal the uncached runner scenario by scenario, bit for bit.
  const PolicyKind policies[] = {PolicyKind::kEqualized, PolicyKind::kAdaptivePaper,
                                 PolicyKind::kNonAdaptiveRestart,
                                 PolicyKind::kDpOptimal};
  const OwnerKind owners[] = {OwnerKind::kPoisson,         OwnerKind::kPareto,
                              OwnerKind::kUniform,         OwnerKind::kMarkovModulated,
                              OwnerKind::kInhomogeneous,   OwnerKind::kBursty,
                              OwnerKind::kCorrelatedShock};
  const int per_pair = std::max(2, testing::fuzz_cases(200) / 28);
  std::vector<ScenarioSpec> specs;
  std::uint64_t seed = 0xE915;
  for (const PolicyKind policy : policies) {
    for (const OwnerKind owner : owners) {
      ScenarioDomain domain;
      domain.policies = {policy};
      domain.owners = {owner};
      domain.max_lifespan = 2048;
      domain.contract_classes = 3;
      const ScenarioGenerator generator(domain, seed++);
      for (int i = 0; i < per_pair; ++i) {
        specs.push_back(generator.at(static_cast<std::uint64_t>(i)));
      }
    }
  }

  const BatchResult want = BatchRunner().run(specs);
  util::ThreadPool pool(4);
  solver::SolveCache cache;
  BatchOptions options;
  options.pool = &pool;
  options.shared_cache = &cache;
  BatchRunner runner(options);
  const BatchResult passes[] = {runner.run(specs), runner.run(specs), runner.run(specs)};
  for (int pass = 0; pass < 3; ++pass) {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      ASSERT_EQ(passes[pass].per_scenario[i].to_string(), want.per_scenario[i].to_string())
          << "pass " << pass << ", scenario " << i << ": " << to_replay_string(specs[i]);
    }
  }
  const BatchResult& warm = passes[2];
  EXPECT_EQ(fingerprint(warm), fingerprint(want));

  // The memo holds, for every spec, exactly the opening episode its policy
  // builds.
  for (const ScenarioSpec& spec : specs) {
    if (spec.lifespan == 0) continue;
    const auto memo = cache.find_episode({static_cast<int>(spec.policy), spec.max_interrupts,
                                          spec.lifespan, spec.params.c});
    ASSERT_NE(memo.episode, nullptr) << to_replay_string(spec);
    EXPECT_EQ(*memo.episode,
              make_policy(spec)->episode(spec.lifespan, spec.max_interrupts, spec.params))
        << to_replay_string(spec);
  }

  // The roomy cache evicted nothing, so it holds exactly one table per
  // dp-optimal canonical key and one episode per (policy, c, U, p) with
  // U >= 1.
  std::set<std::tuple<int, Ticks, Ticks>> tables;
  std::set<std::tuple<PolicyKind, int, Ticks, Ticks>> episodes;
  for (const ScenarioSpec& spec : specs) {
    if (spec.policy == PolicyKind::kDpOptimal) {
      const solver::SolveKey key = solver::canonical_key(
          {spec.max_interrupts, spec.lifespan, spec.params});
      tables.emplace(key.max_p, key.max_lifespan, key.c);
    }
    if (spec.lifespan > 0) {
      episodes.emplace(spec.policy, spec.max_interrupts, spec.lifespan, spec.params.c);
    }
  }
  EXPECT_EQ(warm.cache.evictions, 0u);
  EXPECT_EQ(warm.cache.entries, tables.size() + episodes.size());
  EXPECT_LT(episodes.size(), specs.size());  // some opening episodes repeated
  EXPECT_EQ(warm.cache.misses, tables.size());
}

}  // namespace
}  // namespace nowsched::sim
