// sim::BatchRunner — spec validation, per-scenario fidelity against
// run_session, cache wiring, and aggregation (run under TSan in CI).
#include "sim/batch_runner.h"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>

#include "adversary/stochastic.h"
#include "core/equalized.h"
#include "sim/session.h"
#include "solver/extract.h"
#include "solver/solve_cache.h"
#include "util/thread_pool.h"

namespace nowsched::sim {
namespace {

ScenarioSpec basic_spec(std::uint64_t seed) {
  ScenarioSpec spec;
  spec.policy = PolicyKind::kEqualized;
  spec.owner = OwnerKind::kPoisson;
  spec.owner_a = 500.0;
  spec.params = Params{16};
  spec.lifespan = 2000;
  spec.max_interrupts = 2;
  spec.seed = seed;
  return spec;
}

TEST(BatchRunner, EmptyBatchIsEmptyResult) {
  BatchRunner runner;
  const BatchResult result = runner.run({});
  EXPECT_EQ(result.scenarios, 0u);
  EXPECT_TRUE(result.per_scenario.empty());
  EXPECT_EQ(result.aggregate.banked_work, 0);
}

TEST(BatchRunner, MatchesStandaloneRunSessionPerScenario) {
  // A batch entry must be exactly run_session with the same policy and the
  // scenario_stream_seed-derived adversary — slot by slot.
  std::vector<ScenarioSpec> specs = {basic_spec(1), basic_spec(2), basic_spec(99)};
  BatchRunner runner;
  const BatchResult result = runner.run(specs);
  ASSERT_EQ(result.per_scenario.size(), 3u);

  for (std::size_t i = 0; i < specs.size(); ++i) {
    EqualizedGuidelinePolicy policy;
    adversary::PoissonAdversary owner(specs[i].owner_a,
                                      scenario_stream_seed(specs[i]));
    const SessionMetrics expected =
        run_session(policy, owner,
                    Opportunity{specs[i].lifespan, specs[i].max_interrupts},
                    specs[i].params);
    EXPECT_EQ(result.per_scenario[i].banked_work, expected.banked_work) << i;
    EXPECT_EQ(result.per_scenario[i].interrupts, expected.interrupts) << i;
    EXPECT_EQ(result.per_scenario[i].episodes, expected.episodes) << i;
  }

  // Aggregate is the index-order merge of the slots.
  SessionMetrics merged;
  for (const auto& m : result.per_scenario) merged.merge(m);
  EXPECT_EQ(result.aggregate.banked_work, merged.banked_work);
  EXPECT_EQ(result.aggregate.episodes, merged.episodes);
}

TEST(BatchRunner, DistinctSeedsGetDistinctAdversaryStreams) {
  std::vector<ScenarioSpec> specs = {basic_spec(1), basic_spec(2)};
  const BatchResult result = BatchRunner().run(specs);
  // Streams differ, so (with interrupts likely at U=2000, gap=500) the two
  // sessions should not be tick-identical. Compare full metric tuples.
  EXPECT_NE(result.per_scenario[0].to_string(), result.per_scenario[1].to_string());
}

TEST(BatchRunner, StreamSeedMixesContractNotJustSeed) {
  ScenarioSpec a = basic_spec(7);
  ScenarioSpec b = basic_spec(7);
  b.lifespan = 3000;
  EXPECT_NE(scenario_stream_seed(a), scenario_stream_seed(b));
}

TEST(BatchRunner, AllPolicyAndOwnerKindsRun) {
  std::vector<ScenarioSpec> specs;
  for (PolicyKind policy : {PolicyKind::kEqualized, PolicyKind::kAdaptivePaper,
                            PolicyKind::kNonAdaptiveRestart, PolicyKind::kDpOptimal}) {
    for (OwnerKind owner :
         {OwnerKind::kPoisson, OwnerKind::kPareto, OwnerKind::kUniform}) {
      ScenarioSpec spec = basic_spec(specs.size());
      spec.policy = policy;
      spec.owner = owner;
      if (owner == OwnerKind::kPareto) {
        spec.owner_a = 200.0;
        spec.owner_b = 1.5;
      } else if (owner == OwnerKind::kUniform) {
        spec.owner_a = 0.5;
      }
      specs.push_back(spec);
    }
  }
  const BatchResult result = BatchRunner().run(specs);
  ASSERT_EQ(result.per_scenario.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    // Every session consumed its whole lifespan and banked something
    // (U = 2000 >> c with at most 2 interrupts cannot strand everything).
    EXPECT_EQ(result.per_scenario[i].lifespan_used, 2000) << i;
    EXPECT_GT(result.per_scenario[i].banked_work, 0) << i;
  }
}

TEST(BatchRunner, DpOptimalScenariosDedupeThroughTheCache) {
  std::vector<ScenarioSpec> specs;
  for (int i = 0; i < 12; ++i) {
    ScenarioSpec spec = basic_spec(100 + i);
    spec.policy = PolicyKind::kDpOptimal;
    spec.lifespan = 512 + 128 * (i % 2);  // two canonical keys
    specs.push_back(spec);
  }
  BatchRunner runner;
  const BatchResult result = runner.run(specs);
  EXPECT_EQ(result.cache.misses, 2u);
  EXPECT_EQ(result.cache.hits, 10u);
  EXPECT_DOUBLE_EQ(result.cache.hit_rate(), 10.0 / 12.0);

  // The cache persists across run() calls on one runner: re-running the
  // same batch is all hits.
  const BatchResult again = runner.run(specs);
  EXPECT_EQ(again.cache.misses, 2u);
  EXPECT_EQ(again.cache.hits, 22u);
  EXPECT_EQ(again.aggregate.banked_work, result.aggregate.banked_work);
}

TEST(BatchRunner, CacheDisabledStillRunsAndCountsNothing) {
  std::vector<ScenarioSpec> specs;
  for (int i = 0; i < 4; ++i) {
    ScenarioSpec spec = basic_spec(7 + i);
    spec.policy = PolicyKind::kDpOptimal;
    spec.lifespan = 512;
    specs.push_back(spec);
  }
  BatchOptions options;
  options.cache_enabled = false;
  const BatchResult result = BatchRunner(options).run(specs);
  EXPECT_EQ(result.cache.hits, 0u);
  EXPECT_EQ(result.cache.misses, 0u);
  EXPECT_GT(result.aggregate.banked_work, 0);
}

TEST(BatchRunner, InvalidSpecThrowsNamingTheIndexBeforeAnySessionRuns) {
  std::vector<ScenarioSpec> specs = {basic_spec(1), basic_spec(2)};
  specs[1].params = Params{0};
  try {
    BatchRunner().run(specs);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("#1"), std::string::npos) << e.what();
  }

  ScenarioSpec bad_owner = basic_spec(3);
  bad_owner.owner = OwnerKind::kUniform;
  bad_owner.owner_a = 1.5;  // probability > 1
  EXPECT_THROW(BatchRunner().run({bad_owner}), std::invalid_argument);

  ScenarioSpec bad_pareto = basic_spec(4);
  bad_pareto.owner = OwnerKind::kPareto;
  bad_pareto.owner_b = 0.0;  // shape must be > 0
  EXPECT_THROW(BatchRunner().run({bad_pareto}), std::invalid_argument);
}

TEST(BatchRunner, RunsOnAPoolWithTaskErrorPropagation) {
  // Pooled execution returns the same data as serial; exceptions inside
  // run_one (thrown by a policy on an oversized lifespan) surface.
  std::vector<ScenarioSpec> specs;
  for (int i = 0; i < 16; ++i) specs.push_back(basic_spec(i));

  const BatchResult serial = BatchRunner().run(specs);

  util::ThreadPool pool(4);
  BatchOptions options;
  options.pool = &pool;
  const BatchResult pooled = BatchRunner(options).run(specs);
  ASSERT_EQ(pooled.per_scenario.size(), serial.per_scenario.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(pooled.per_scenario[i].to_string(), serial.per_scenario[i].to_string())
        << i;
  }
}

TEST(BatchRunner, PooledDpOptimalBatchMatchesSerialAndSolvesOncePerKey) {
  // dp-optimal sessions on pool workers resolve their tables through the
  // runner's cache from inside the tasks: the results equal a serial run's
  // and each canonical key is solved once however the tasks interleave.
  std::vector<ScenarioSpec> specs;
  for (int i = 0; i < 24; ++i) {
    ScenarioSpec spec = basic_spec(300 + i);
    spec.policy = PolicyKind::kDpOptimal;
    spec.lifespan = 512 + 128 * (i % 3);  // three canonical keys
    specs.push_back(spec);
  }
  const BatchResult serial = BatchRunner().run(specs);

  util::ThreadPool pool(4);
  BatchOptions options;
  options.pool = &pool;
  const BatchResult pooled = BatchRunner(options).run(specs);
  ASSERT_EQ(pooled.per_scenario.size(), serial.per_scenario.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(pooled.per_scenario[i].to_string(), serial.per_scenario[i].to_string())
        << i;
  }
  EXPECT_EQ(pooled.cache.misses, 3u);
  EXPECT_EQ(pooled.cache.hits, 21u);
}

TEST(BatchRunner, ToStringNamesAreStable) {
  EXPECT_STREQ(to_string(PolicyKind::kDpOptimal), "dp-optimal");
  EXPECT_STREQ(to_string(PolicyKind::kEqualized), "equalized");
  EXPECT_STREQ(to_string(OwnerKind::kPareto), "pareto");
}

}  // namespace
}  // namespace nowsched::sim
