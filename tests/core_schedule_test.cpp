#include "core/schedule.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "fuzz_cases.h"
#include "util/rng.h"

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

std::vector<Ticks> periods_of(const EpisodeSchedule& s) {
  return {s.periods().begin(), s.periods().end()};
}

TEST(FromReal, EqualRemaindersStraddlingTheCutoffGoToTheLowerIndex) {
  // 1.5 each scales to 5/3: floors 1, 1, 1 leave 2 ticks for three equal
  // remainders, so the first two periods take them.
  EXPECT_EQ(periods_of(EpisodeSchedule::from_real({1.5, 1.5, 1.5}, 5)),
            (std::vector<Ticks>{2, 2, 1}));
  // Four remainders of exactly 0.5 and 2 ticks left.
  EXPECT_EQ(periods_of(EpisodeSchedule::from_real({1.0, 1.0, 1.0, 1.0}, 6)),
            (std::vector<Ticks>{2, 2, 1, 1}));
  // Remainders 0.2, 0.5, 0.5, 0.8 and 2 ticks left: the largest takes one,
  // and of the tied pair straddling the cutoff the lower index takes the other.
  EXPECT_EQ(periods_of(EpisodeSchedule::from_real({1.2, 1.5, 1.5, 1.8}, 6)),
            (std::vector<Ticks>{1, 2, 1, 2}));
  // Forty remainders of 0.5 and 20 ticks left: the first twenty take them,
  // also past the sizes an insertion sort would have kept stable.
  std::vector<Ticks> want(40, 1);
  std::fill(want.begin(), want.begin() + 20, 2);
  EXPECT_EQ(periods_of(EpisodeSchedule::from_real(std::vector<double>(40, 1.0), 60)), want);
}

TEST(FromReal, LeftoverOfMGivesEveryPeriodARound) {
  // Both scaled lengths land just below an integer (325.99999999999994 and
  // 598.9999999999999), so the floors leave m = 2 ticks: one each.
  EXPECT_EQ(periods_of(EpisodeSchedule::from_real({0.7277011452951581, 1.3370950491772997},
                                                  925)),
            (std::vector<Ticks>{326, 599}));
}

TEST(FromReal, RejectsNonFiniteLengthsAndSums) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double big = std::numeric_limits<double>::max();
  EXPECT_THROW(EpisodeSchedule::from_real({inf, inf, 1.0}, 10), std::invalid_argument);
  EXPECT_THROW(EpisodeSchedule::from_real({1.0, nan}, 10), std::invalid_argument);
  EXPECT_THROW(EpisodeSchedule::from_real({-inf, 1.0}, 10), std::invalid_argument);
  EXPECT_THROW(EpisodeSchedule::from_real({big, big}, 10), std::invalid_argument);
  EXPECT_THROW(EpisodeSchedule::from_real({1.0}, 0), std::invalid_argument);
}

/// from_real with the leftover ticks handed out in a stable sort of the
/// remainders (descending) and wrapped round, the rule the O(m) selection
/// must reproduce.
std::vector<Ticks> reference_from_real(const std::vector<double>& lengths, Ticks total) {
  std::vector<double> pos;
  for (double x : lengths) {
    if (x > 0.0) pos.push_back(x);
  }
  if (pos.empty()) return {total};
  const double scale = static_cast<double>(total) / std::accumulate(pos.begin(), pos.end(), 0.0);
  const std::size_t m = pos.size();
  if (static_cast<Ticks>(m) > total) return std::vector<Ticks>(static_cast<std::size_t>(total), 1);
  std::vector<Ticks> periods(m);
  std::vector<std::pair<double, std::size_t>> remainders(m);
  Ticks leftover = total;
  for (std::size_t i = 0; i < m; ++i) {
    const double scaled = pos[i] * scale;
    const double fl = std::floor(scaled);
    periods[i] = static_cast<Ticks>(fl);
    remainders[i] = {scaled - fl, i};
    leftover -= periods[i];
  }
  std::stable_sort(remainders.begin(), remainders.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  for (std::size_t j = 0; leftover > 0; j = (j + 1) % m, --leftover) {
    periods[remainders[j].second] += 1;
  }
  for (std::size_t i = 0; i < m; ++i) {
    while (periods[i] < 1) {
      auto biggest = std::max_element(periods.begin(), periods.end());
      *biggest -= 1;
      periods[i] += 1;
    }
  }
  return periods;
}

TEST(FromReal, MatchesStableSortReferenceWithForcedTies) {
  // Lengths drawn from a coarse grid so equal remainders are common, with
  // some non-positive entries to drop and totals from tight to loose.
  util::Rng rng(0xF0F0);
  const int cases = testing::fuzz_cases(400);
  for (int trial = 0; trial < cases; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 60));
    std::vector<double> lengths(n);
    for (double& x : lengths) x = 0.25 * static_cast<double>(rng.uniform_int(-2, 12));
    const Ticks total = rng.uniform_int(static_cast<Ticks>(n), 40 * static_cast<Ticks>(n));
    const auto got = EpisodeSchedule::from_real(lengths, total);
    const auto want = reference_from_real(lengths, total);
    ASSERT_EQ(periods_of(got), want) << "trial " << trial << " total " << total;
  }
}

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
