#include "sim/farm.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "adversary/heuristics.h"
#include "adversary/processes.h"
#include "adversary/stochastic.h"
#include "adversary/trace.h"
#include "core/baselines.h"
#include "core/equalized.h"
#include "core/guidelines.h"

namespace nowsched::sim {
namespace {

constexpr Params kParams{16};

WorkstationConfig station(const std::string& name, Ticks u, int p,
                          PolicyPtr policy, std::shared_ptr<adversary::Adversary> owner,
                          Ticks start = 0) {
  WorkstationConfig cfg;
  cfg.name = name;
  cfg.opportunity = Opportunity{u, p};
  cfg.params = kParams;
  cfg.policy = std::move(policy);
  cfg.owner = std::move(owner);
  cfg.start_time = start;
  return cfg;
}

TEST(Farm, SingleStationMatchesStandaloneSession) {
  auto policy = std::make_shared<AdaptiveGuidelinePolicy>();
  auto bag = TaskBag::uniform(200, 5);
  auto owner = std::make_shared<adversary::NoOpAdversary>();
  const auto farm = run_farm({station("b1", 1000, 2, policy, owner)}, bag);

  adversary::NoOpAdversary owner2;
  auto bag2 = TaskBag::uniform(200, 5);
  const auto solo = run_session(*policy, owner2, Opportunity{1000, 2}, kParams, &bag2);
  EXPECT_EQ(farm.aggregate.banked_work, solo.banked_work);
  EXPECT_EQ(farm.aggregate.tasks_completed, solo.tasks_completed);
}

TEST(Farm, MultipleStationsShareOneBag) {
  auto policy = std::make_shared<AdaptiveGuidelinePolicy>();
  auto owner = std::make_shared<adversary::NoOpAdversary>();
  auto bag = TaskBag::uniform(10000, 5);
  const auto farm = run_farm({station("b1", 2000, 1, policy, owner),
                              station("b2", 2000, 1, policy, owner),
                              station("b3", 2000, 1, policy, owner)},
                             bag);
  ASSERT_EQ(farm.per_workstation.size(), 3u);
  // Conservation across the shared bag.
  EXPECT_EQ(farm.aggregate.tasks_completed + farm.tasks_left, 10000u);
  EXPECT_EQ(farm.aggregate.task_work, bag.completed_work());
  // All three consumed their full lifespans.
  for (const auto& m : farm.per_workstation) EXPECT_EQ(m.lifespan_used, 2000);
}

TEST(Farm, ParallelStationsOutproduceOne) {
  auto policy = std::make_shared<AdaptiveGuidelinePolicy>();
  auto owner = std::make_shared<adversary::NoOpAdversary>();
  auto bag1 = TaskBag::uniform(100000, 5);
  const auto one = run_farm({station("b1", 3000, 1, policy, owner)}, bag1);
  auto bag4 = TaskBag::uniform(100000, 5);
  const auto four = run_farm({station("b1", 3000, 1, policy, owner),
                              station("b2", 3000, 1, policy, owner),
                              station("b3", 3000, 1, policy, owner),
                              station("b4", 3000, 1, policy, owner)},
                             bag4);
  EXPECT_GT(four.aggregate.task_work, 3 * one.aggregate.task_work);
}

TEST(Farm, StaggeredStartsExtendMakespan) {
  auto policy = std::make_shared<AdaptiveGuidelinePolicy>();
  auto owner = std::make_shared<adversary::NoOpAdversary>();
  auto bag = TaskBag::uniform(10000, 5);
  const auto farm = run_farm({station("early", 1000, 0, policy, owner, 0),
                              station("late", 1000, 0, policy, owner, 5000)},
                             bag);
  EXPECT_EQ(farm.makespan, 6000);
}

TEST(Farm, HeterogeneousPoliciesAndOwners) {
  auto adaptive = std::make_shared<AdaptiveGuidelinePolicy>();
  auto chunky = std::make_shared<FixedChunkPolicy>(4.0);
  auto noop = std::make_shared<adversary::NoOpAdversary>();
  auto poisson = std::make_shared<adversary::PoissonAdversary>(200.0, 17);
  auto bag = TaskBag::uniform(5000, 3);
  const auto farm = run_farm({station("a", 2500, 2, adaptive, noop),
                              station("b", 2500, 2, chunky, poisson)},
                             bag);
  ASSERT_EQ(farm.per_workstation.size(), 2u);
  EXPECT_EQ(farm.aggregate.episodes,
            farm.per_workstation[0].episodes + farm.per_workstation[1].episodes);
  EXPECT_EQ(farm.aggregate.tasks_completed + farm.tasks_left, 5000u);
}

TEST(Farm, RejectsMisconfiguration) {
  auto bag = TaskBag::uniform(10, 1);
  EXPECT_THROW(run_farm({}, bag), std::invalid_argument);

  WorkstationConfig missing;
  missing.name = "x";
  missing.opportunity = Opportunity{10, 0};
  missing.params = kParams;
  EXPECT_THROW(run_farm({missing}, bag), std::invalid_argument);

  auto cfg = station("neg", 10, 0, std::make_shared<SingleBlockPolicy>(),
                     std::make_shared<adversary::NoOpAdversary>());
  cfg.start_time = -5;
  EXPECT_THROW(run_farm({cfg}, bag), std::invalid_argument);
}

TEST(Farm, EventCountIsPositiveAndBounded) {
  auto policy = std::make_shared<AdaptiveGuidelinePolicy>();
  auto owner = std::make_shared<adversary::NoOpAdversary>();
  auto bag = TaskBag::uniform(100, 5);
  const auto farm = run_farm({station("b1", 1000, 1, policy, owner)}, bag);
  EXPECT_GT(farm.events, 0u);
  // At most one start + one event per period boundary + slack.
  EXPECT_LT(farm.events, 4000u);
}

TEST(Farm, EqualTimeEventsRunInSchedulingOrder) {
  // Two stations start together and one task is on offer: the station
  // listed first starts first and packs it. Same-time events never reorder.
  auto policy = std::make_shared<AdaptiveGuidelinePolicy>();
  auto owner = std::make_shared<adversary::NoOpAdversary>();
  for (int first = 0; first < 2; ++first) {
    auto bag = TaskBag::uniform(1, 5);
    const auto farm = run_farm({station(first == 0 ? "a" : "b", 500, 1, policy, owner),
                                station(first == 0 ? "b" : "a", 500, 1, policy, owner)},
                               bag);
    EXPECT_EQ(farm.per_workstation[0].tasks_completed, 1u);
    EXPECT_EQ(farm.per_workstation[1].tasks_completed, 0u);
  }
}

/// FNV-1a over every field of every station's metrics, in station order.
std::uint64_t station_digest(const FarmResult& farm) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const SessionMetrics& m : farm.per_workstation) {
    std::string text;
    util::write_fields(text, kSessionMetricsFields, m);
    for (const unsigned char ch : text) {
      h ^= ch;
      h *= 0x100000001B3ull;
    }
  }
  return h;
}

struct FarmPin {
  std::uint64_t digest;
  Ticks makespan;
  std::size_t events;
  std::size_t tasks_left;
  Ticks task_work_left;
};

void expect_pinned(const FarmResult& farm, const FarmPin& pin) {
  EXPECT_EQ(station_digest(farm), pin.digest) << std::hex << station_digest(farm);
  EXPECT_EQ(farm.makespan, pin.makespan);
  EXPECT_EQ(farm.events, pin.events);
  EXPECT_EQ(farm.tasks_left, pin.tasks_left);
  EXPECT_EQ(farm.task_work_left, pin.task_work_left);
}

TEST(Farm, GoldenEqualTimeTies) {
  // Identical stations started together hit every period boundary at the
  // same tick, so the shared bag is packed purely in scheduling order.
  auto policy = std::make_shared<EqualizedGuidelinePolicy>();
  auto noop = std::make_shared<adversary::NoOpAdversary>();
  auto first = std::make_shared<adversary::FirstPeriodAdversary>();
  util::Rng rng(0xF4A1);
  auto bag = TaskBag::random(3000, 1, 60, rng);
  const auto farm = run_farm({station("t1", 4000, 2, policy, noop),
                              station("t2", 4000, 2, policy, first),
                              station("t3", 4000, 2, policy, noop),
                              station("t4", 4000, 2, policy, first)},
                             bag);
  expect_pinned(farm, {0xa1a8dd543111c9d9ull, 4000, 76, 2600, 79291});
}

TEST(Farm, GoldenStaggeredMixedOwners) {
  // Random-duration bag, staggered and coinciding starts, every arrival
  // owner family, a zero-lifespan station and a correlated-shock pair.
  auto adaptive = std::make_shared<AdaptiveGuidelinePolicy>();
  auto equalized = std::make_shared<EqualizedGuidelinePolicy>();
  auto chunky = std::make_shared<FixedChunkPolicy>(4.0);
  util::Rng rng(0xBA6);
  auto bag = TaskBag::random(20000, 2, 90, rng);
  const auto farm = run_farm(
      {station("poisson", 9000, 4, adaptive,
               std::make_shared<adversary::PoissonAdversary>(700.0, 3)),
       station("pareto", 7000, 3, equalized,
               std::make_shared<adversary::ParetoSessionAdversary>(900.0, 1.3, 5), 250),
       station("markov", 8000, 5, chunky,
               std::make_shared<adversary::MarkovModulatedAdversary>(2000.0, 150.0,
                                                                     900.0, 400.0, 7),
               250),
       station("diurnal", 6000, 4, adaptive,
               std::make_shared<adversary::InhomogeneousPoissonAdversary>(
                   600.0, 0.8, 2500.0, 0.3, 11),
               1000),
       station("bursty", 9000, 6, equalized,
               std::make_shared<adversary::BurstyAdversary>(1500.0, 1.2, 3.0, 40.0, 13),
               1000),
       station("shock-a", 5000, 3, chunky,
               std::make_shared<adversary::CorrelatedShockAdversary>(800.0, 0.9, 0x60,
                                                                     17),
               3000),
       station("shock-b", 5000, 3, adaptive,
               std::make_shared<adversary::CorrelatedShockAdversary>(800.0, 0.9, 0x60,
                                                                     19),
               3000),
       station("trace", 4000, 3, equalized,
               std::make_shared<adversary::TraceAdversary>(
                   adversary::InterruptTrace({300, 1200, 2900})),
               4500),
       station("idle", 0, 0, adaptive, std::make_shared<adversary::NoOpAdversary>(),
               4500)},
      bag);
  expect_pinned(farm, {0x2cf01c2c38e6a8b5ull, 10000, 357, 19261, 886266});
}

TEST(Farm, GoldenDrainedBag) {
  // A small bag that runs dry mid-farm: later batches pack nothing.
  auto policy = std::make_shared<AdaptiveGuidelinePolicy>();
  util::Rng rng(0xD2);
  auto bag = TaskBag::random(150, 5, 50, rng);
  const auto farm = run_farm(
      {station("a", 3000, 2, policy, std::make_shared<adversary::PoissonAdversary>(400.0, 1)),
       station("b", 3000, 2, policy, std::make_shared<adversary::PoissonAdversary>(400.0, 2)),
       station("c", 2000, 1, policy, std::make_shared<adversary::LargestPeriodAdversary>(),
               1500)},
      bag);
  expect_pinned(farm, {0x3555235096543581ull, 3500, 15, 0, 0});
}

}  // namespace
}  // namespace nowsched::sim
