#include "core/closed_form.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/bounds.h"

namespace nowsched {
namespace {

TEST(OptP1Count, MatchesEquationFiveOne) {
  // U/c = 512: sqrt(2*512 - 1.75) - 0.5 = sqrt(1022.25) - 0.5 ≈ 31.47 → ⌈⌉ = 32.
  EXPECT_EQ(std::ceil(bounds::optimal_p1_period_count(16.0 * 512.0, 16.0)), 32.0);
  EXPECT_EQ(optimal_p1_schedule(16 * 512, Params{16}).m, 32u);
}

TEST(OptP1Count, TinyLifespanGivesOnePeriod) {
  EXPECT_EQ(bounds::optimal_p1_period_count(50.0, 100.0), 1.0);
  EXPECT_EQ(optimal_p1_schedule(50, Params{100}).m, 1u);
}

struct P1Case {
  Ticks u;
  Ticks c;
};

class OptP1Property : public ::testing::TestWithParam<P1Case> {};

TEST_P(OptP1Property, AlphaLandsInHalfOpenUnitInterval) {
  const auto [u, c] = GetParam();
  const auto opt = optimal_p1_schedule(u, Params{c});
  if (opt.m < 2) return;  // degenerate short lifespans carry no α
  EXPECT_GT(opt.alpha, 0.0);
  EXPECT_LE(opt.alpha, 1.0);
}

TEST_P(OptP1Property, ScheduleSpansLifespan) {
  const auto [u, c] = GetParam();
  const auto opt = optimal_p1_schedule(u, Params{c});
  EXPECT_EQ(opt.schedule.total(), u);
}

TEST_P(OptP1Property, TwinTailAndUnitStepsStructure) {
  const auto [u, c] = GetParam();
  const auto opt = optimal_p1_schedule(u, Params{c});
  if (opt.m < 3) return;
  const auto& s = opt.schedule;
  const std::size_t m = s.size();
  // t_m == t_{m-1} == (1+α)c up to rounding.
  EXPECT_LE(std::llabs(s.period(m - 1) - s.period(m - 2)), 1);
  // Early periods descend by exactly c (up to ±1 rounding).
  for (std::size_t k = 0; k + 3 < m; ++k) {
    const Ticks diff = s.period(k) - s.period(k + 1);
    EXPECT_GE(diff, c - 1) << "k=" << k;
    EXPECT_LE(diff, c + 1) << "k=" << k;
  }
}

TEST_P(OptP1Property, GuaranteedWorkMatchesTableTwoApproximation) {
  const auto [u, c] = GetParam();
  if (u < 16 * c) return;  // approximation regime
  const auto opt = optimal_p1_schedule(u, Params{c});
  const Ticks exact = guaranteed_work_p1(opt.schedule, u, Params{c});
  const double approx =
      bounds::optimal_p1_work(static_cast<double>(u), static_cast<double>(c));
  // Table 2 is accurate to O(U^{1/4} + c).
  const double slack =
      2.0 * std::pow(static_cast<double>(u), 0.25) + 2.0 * static_cast<double>(c);
  EXPECT_NEAR(static_cast<double>(exact), approx, slack);
}

TEST_P(OptP1Property, EqualizedImpacts) {
  // Thm 4.3 equalization: for the optimal schedule, every adversary option
  // (kill period k, then run the residual as one long period) should cost us
  // nearly the same — the minimum over options is within ~2c of every early
  // option's value.
  const auto [u, c] = GetParam();
  if (u < 32 * c) return;
  const auto opt = optimal_p1_schedule(u, Params{c});
  const auto& s = opt.schedule;
  const Params params{c};
  const Ticks value = guaranteed_work_p1(s, u, params);
  for (std::size_t k = 0; k + 2 < s.size(); ++k) {
    const Ticks option = s.banked_work(k, params) +
                         positive_sub(positive_sub(u, s.end(k)), c);
    EXPECT_GE(option, value);
    EXPECT_LE(option - value, 2 * c + 2) << "option k=" << k << " unbalanced";
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, OptP1Property,
                         ::testing::Values(P1Case{16 * 64, 16}, P1Case{16 * 256, 16},
                                           P1Case{16 * 1024, 16}, P1Case{16 * 4096, 16},
                                           P1Case{64 * 333, 64}, P1Case{1000, 10},
                                           P1Case{12345, 17}, P1Case{100, 16},
                                           P1Case{40, 16}));

TEST(GuaranteedWorkP1, KnownTinyInstanceByHand) {
  // U=30, c=10, schedule {15, 15}: no-interrupt work = 10;
  // kill period 0 -> residual 15 run long: (15-10)=5; kill period 1 -> 5 + 0.
  const Params params{10};
  EpisodeSchedule s({15, 15});
  EXPECT_EQ(guaranteed_work_p1(s, 30, params), 5);
}

TEST(GuaranteedWorkP1, SinglePeriodIsWorthless) {
  // One period: the adversary kills it at the last instant; residual 0.
  const Params params{10};
  EpisodeSchedule s({100});
  EXPECT_EQ(guaranteed_work_p1(s, 100, params), 0);
}

TEST(GuaranteedWorkP1, RequiresSpanningSchedule) {
  const Params params{10};
  EpisodeSchedule s({50});
  EXPECT_THROW(guaranteed_work_p1(s, 100, params), std::invalid_argument);
}

TEST(GuaranteedWorkP1, BeatsEqualSplitBaseline) {
  // The closed-form schedule should (weakly) beat naive equal splits of the
  // same lifespan for nearly all m.
  const Params params{16};
  const Ticks u = 16 * 1024;
  const auto opt = optimal_p1_schedule(u, params);
  const Ticks opt_work = guaranteed_work_p1(opt.schedule, u, params);
  for (std::size_t m : {2u, 4u, 8u, 16u, 32u, 64u, 128u}) {
    const auto equal = EpisodeSchedule::equal_split(u, m);
    EXPECT_GE(opt_work + 1, guaranteed_work_p1(equal, u, params)) << "m=" << m;
  }
}

}  // namespace
}  // namespace nowsched
