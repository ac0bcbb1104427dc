#include "core/schedule.h"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

namespace nowsched {
namespace {

constexpr Params kParams{10};

TEST(EpisodeSchedule, ConstructionAndAccessors) {
  EpisodeSchedule s({30, 20, 10});
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.total(), 60);
  EXPECT_EQ(s.period(0), 30);
  EXPECT_EQ(s.period(2), 10);
  EXPECT_EQ(s.start(0), 0);
  EXPECT_EQ(s.start(1), 30);
  EXPECT_EQ(s.start(3), 60);
  EXPECT_EQ(s.end(0), 30);
  EXPECT_EQ(s.end(2), 60);
}

TEST(EpisodeSchedule, EmptySchedule) {
  EpisodeSchedule s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.total(), 0);
  EXPECT_EQ(s.work_if_uninterrupted(kParams), 0);
}

TEST(EpisodeSchedule, RejectsNonPositivePeriods) {
  EXPECT_THROW(EpisodeSchedule({10, 0, 5}), std::invalid_argument);
  EXPECT_THROW(EpisodeSchedule({-1}), std::invalid_argument);
}

TEST(EpisodeSchedule, WorkAccountingUsesPositiveSubtraction) {
  // Periods 30, 8, 12 with c=10 yield 20 + 0 + 2 work.
  EpisodeSchedule s({30, 8, 12});
  EXPECT_EQ(s.work_if_uninterrupted(kParams), 22);
  EXPECT_EQ(s.banked_work(0, kParams), 0);
  EXPECT_EQ(s.banked_work(1, kParams), 20);
  EXPECT_EQ(s.banked_work(2, kParams), 20);
  EXPECT_EQ(s.banked_work(3, kParams), 22);
  EXPECT_THROW(s.banked_work(4, kParams), std::out_of_range);
}

TEST(EpisodeSchedule, ProductivePredicates) {
  EXPECT_TRUE(EpisodeSchedule({11, 12, 5}).is_productive(kParams));   // last may be short
  EXPECT_FALSE(EpisodeSchedule({10, 12, 11}).is_productive(kParams));  // 10 == c
  EXPECT_TRUE(EpisodeSchedule{}.is_productive(kParams));
}

// --- equal_split ------------------------------------------------------------

class EqualSplitProperty
    : public ::testing::TestWithParam<std::pair<Ticks, std::size_t>> {};

TEST_P(EqualSplitProperty, SumsExactlyAndBalanced) {
  const auto [total, m] = GetParam();
  const auto s = EpisodeSchedule::equal_split(total, m);
  ASSERT_EQ(s.size(), m);
  EXPECT_EQ(s.total(), total);
  Ticks lo = s.period(0), hi = s.period(0);
  for (std::size_t i = 0; i < s.size(); ++i) {
    lo = std::min(lo, s.period(i));
    hi = std::max(hi, s.period(i));
  }
  EXPECT_LE(hi - lo, 1);  // balanced within one tick
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EqualSplitProperty,
    ::testing::Values(std::pair<Ticks, std::size_t>{1, 1},
                      std::pair<Ticks, std::size_t>{10, 3},
                      std::pair<Ticks, std::size_t>{100, 7},
                      std::pair<Ticks, std::size_t>{1000, 999},
                      std::pair<Ticks, std::size_t>{1024, 32},
                      std::pair<Ticks, std::size_t>{65537, 255}));

TEST(EqualSplit, RejectsInfeasible) {
  EXPECT_THROW(EpisodeSchedule::equal_split(5, 6), std::invalid_argument);
  EXPECT_THROW(EpisodeSchedule::equal_split(5, 0), std::invalid_argument);
}

// --- from_real --------------------------------------------------------------

TEST(FromReal, ExactIntegersPreserved) {
  const auto s = EpisodeSchedule::from_real({30.0, 20.0, 10.0}, 60);
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s.period(0), 30);
  EXPECT_EQ(s.period(1), 20);
  EXPECT_EQ(s.period(2), 10);
}

TEST(FromReal, ScalesToRequestedTotal) {
  const auto s = EpisodeSchedule::from_real({1.0, 1.0, 2.0}, 100);
  EXPECT_EQ(s.total(), 100);
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s.period(0), 25);
  EXPECT_EQ(s.period(1), 25);
  EXPECT_EQ(s.period(2), 50);
}

TEST(FromReal, DropsNonPositiveLengths) {
  const auto s = EpisodeSchedule::from_real({-5.0, 10.0, 0.0, 10.0}, 40);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s.period(0), 20);
}

TEST(FromReal, AllNonPositiveFallsBackToSinglePeriod) {
  const auto s = EpisodeSchedule::from_real({-1.0, 0.0}, 17);
  ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(s.total(), 17);
}

TEST(FromReal, MorePeriodsThanTicksCollapses) {
  const auto s = EpisodeSchedule::from_real({1.0, 1.0, 1.0, 1.0, 1.0}, 3);
  EXPECT_EQ(s.total(), 3);
  EXPECT_LE(s.size(), 3u);
}

class FromRealProperty : public ::testing::TestWithParam<Ticks> {};

TEST_P(FromRealProperty, AlwaysSumsToTotalWithPositivePeriods) {
  const Ticks total = GetParam();
  const std::vector<double> shapes = {3.7, 2.9, 2.1, 1.6, 1.5, 1.5};
  const auto s = EpisodeSchedule::from_real(shapes, total);
  EXPECT_EQ(s.total(), total);
  for (std::size_t i = 0; i < s.size(); ++i) EXPECT_GE(s.period(i), 1);
}

INSTANTIATE_TEST_SUITE_P(Totals, FromRealProperty,
                         ::testing::Values(6, 7, 13, 100, 101, 9999, 65536));

TEST(EpisodeSchedule, ToStringShowsCountAndSum) {
  EpisodeSchedule s({30, 20, 10});
  const std::string str = s.to_string();
  EXPECT_NE(str.find("m=3"), std::string::npos);
  EXPECT_NE(str.find("sum=60"), std::string::npos);
}

TEST(EpisodeSchedule, EqualityComparesPeriods) {
  EXPECT_EQ(EpisodeSchedule({5, 5}), EpisodeSchedule({5, 5}));
  EXPECT_FALSE(EpisodeSchedule({5, 5}) == EpisodeSchedule({5, 6}));
}

}  // namespace
}  // namespace nowsched
