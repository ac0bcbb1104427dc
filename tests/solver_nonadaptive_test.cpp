#include "solver/nonadaptive_eval.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <type_traits>
#include <vector>

#include "core/bounds.h"
#include "core/guidelines.h"

namespace nowsched::solver {
namespace {

constexpr Ticks kC = 10;
constexpr Params kParams{kC};

/// Brute force over every interrupt subset (with the §2.2 tail-merge rule)
/// for small schedules — the oracle for the O(m·p) DP.
Ticks brute_force_value(const EpisodeSchedule& s, Ticks u, int p, const Params& params) {
  const std::size_t m = s.size();
  Ticks best = s.work_if_uninterrupted(params);
  // Enumerate subsets of killed periods of size 1..p.
  std::vector<std::size_t> killed;
  const std::uint64_t limit = 1ull << m;
  for (std::uint64_t mask = 1; mask < limit; ++mask) {
    if (std::popcount(mask) > p) continue;
    killed.clear();
    for (std::size_t k = 0; k < m; ++k) {
      if (mask & (1ull << k)) killed.push_back(k);
    }
    Ticks work = 0;
    if (static_cast<int>(killed.size()) == p) {
      // Long-period rule: everything after the last killed period collapses.
      const std::size_t last = killed.back();
      for (std::size_t k = 0; k < last; ++k) {
        if (!(mask & (1ull << k))) work += positive_sub(s.period(k), params.c);
      }
      work += positive_sub(positive_sub(u, s.end(last)), params.c);
    } else {
      for (std::size_t k = 0; k < m; ++k) {
        if (!(mask & (1ull << k))) work += positive_sub(s.period(k), params.c);
      }
    }
    best = std::min(best, work);
  }
  return best;
}

TEST(NonAdaptiveEval, MatchesBruteForceOnSmallSchedules) {
  const std::vector<std::vector<Ticks>> cases = {
      {25, 25, 25, 25},       {40, 30, 20, 10}, {12, 12, 12, 12, 12, 12, 12, 16},
      {100},                  {55, 45},         {30, 11, 29, 10, 20},
      {13, 14, 15, 16, 17, 25},
  };
  for (const auto& periods : cases) {
    const EpisodeSchedule s{std::vector<Ticks>(periods)};
    const Ticks u = s.total();
    for (int p = 0; p <= 4; ++p) {
      EXPECT_EQ(nonadaptive_guaranteed_work(s, u, p, kParams),
                brute_force_value(s, u, p, kParams))
          << s.to_string() << " p=" << p;
    }
  }
}

TEST(NonAdaptiveEval, ZeroInterruptsIsFullWork) {
  const EpisodeSchedule s({25, 25, 25, 25});
  EXPECT_EQ(nonadaptive_guaranteed_work(s, 100, 0, kParams), 4 * 15);
}

TEST(NonAdaptiveEval, KillingLastPeriodsIsOptimalForEqualSchedules) {
  // §3.1 analysis: against equal periods, killing the LAST p periods is an
  // optimal adversary strategy (the final long period degenerates to zero
  // length), so the best-response value equals (m − p) completed periods.
  // Ties with other interrupt sets are possible on the grid, so assert the
  // value, not the specific argmin.
  const auto s = EpisodeSchedule::equal_split(1000, 10);
  for (int p = 1; p <= 3; ++p) {
    const auto br = nonadaptive_best_response(s, 1000, p, kParams);
    EXPECT_EQ(br.value, static_cast<Ticks>(10 - p) * (100 - kC)) << "p=" << p;
    EXPECT_LE(static_cast<int>(br.killed_periods.size()), p);
    // Killing the last p periods attains the same value: recompute directly.
    Ticks direct = 0;
    for (int k = 0; k < 10 - p; ++k) direct += 100 - kParams.c;
    EXPECT_EQ(br.value, direct);
  }
}

TEST(NonAdaptiveEval, BestResponseNeverWorseThanAnyHeuristic) {
  const auto s = nonadaptive_guideline(2000, 2, kParams);
  const Ticks dp = nonadaptive_guaranteed_work(s, 2000, 2, kParams);
  EXPECT_LE(dp, brute_force_value(s, 2000, 2, kParams));
}

TEST(NonAdaptiveEval, RequiresSpanningSchedule) {
  EXPECT_THROW(nonadaptive_guaranteed_work(EpisodeSchedule({10}), 20, 1, kParams),
               std::invalid_argument);
  EXPECT_THROW(nonadaptive_guaranteed_work(EpisodeSchedule({10}), 10, -1, kParams),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Equal-period search: §3.1's "cannot be improved" claim on the grid
// ---------------------------------------------------------------------------

// Every field is a Ticks so the struct has no padding bytes: gtest names each
// case after the bytes of its parameter, and padding bytes are indeterminate.
struct SearchCase {
  Ticks u;
  Ticks p;
};
static_assert(std::has_unique_object_representations_v<SearchCase>);

class EqualPeriodSearchProperty : public ::testing::TestWithParam<SearchCase> {};

TEST_P(EqualPeriodSearchProperty, GuidelineCountNearExhaustiveOptimum) {
  const auto [u, p] = GetParam();
  const auto search = best_equal_period_count(u, p, kParams);
  const std::size_t guideline_m = nonadaptive_period_count(u, p, kParams);
  // The guideline's m is within one period of the exhaustive argmax, OR its
  // value is within one tick-of-c of the optimum (plateaus are wide).
  const auto sched = EpisodeSchedule::equal_split(u, guideline_m);
  const Ticks guideline_value = nonadaptive_guaranteed_work(sched, u, p, kParams);
  EXPECT_GE(guideline_value, search.best_value - 2 * kC)
      << "guideline m=" << guideline_m << " best m=" << search.best_m;
}

TEST_P(EqualPeriodSearchProperty, MeasuredValueTracksClosedFormFormula) {
  const auto [u, p] = GetParam();
  const auto search = best_equal_period_count(u, p, kParams);
  const double formula = bounds::nonadaptive_work(static_cast<double>(u), p,
                                                  static_cast<double>(kC));
  // Grid effects and the floor in m cost at most ~m ticks + O(c).
  EXPECT_NEAR(static_cast<double>(search.best_value), formula,
              0.05 * static_cast<double>(u) + 3.0 * kC);
  // The OCR reading U − √(2pcU) + pc over-promises; measured work must stay
  // BELOW it by roughly (2−√2)√(pcU) — confirming the corrected constant.
  const double ocr = bounds::nonadaptive_work_ocr(static_cast<double>(u), p,
                                                  static_cast<double>(kC));
  EXPECT_LT(static_cast<double>(search.best_value), ocr);
}

INSTANTIATE_TEST_SUITE_P(Sweep, EqualPeriodSearchProperty,
                         ::testing::Values(SearchCase{4000, 1}, SearchCase{4000, 2},
                                           SearchCase{8000, 3}, SearchCase{16000, 4},
                                           SearchCase{2500, 1}, SearchCase{12000, 2}));

TEST(EqualPeriodSearch, ValueByMHasSingleRoughPeak) {
  // The §3.1 calculus optimum implies a unimodal-ish value curve in m;
  // verify the exhaustive curve rises then falls (allowing plateau noise of
  // one tick from integer splits).
  const auto search = best_equal_period_count(10000, 2, kParams);
  const auto& v = search.value_by_m;
  ASSERT_GT(v.size(), 10u);
  const std::size_t peak = search.best_m - 1;
  // Strictly before the peak, no dip below (value - 2); after, no rise above.
  for (std::size_t i = 0; i + 1 < peak; ++i) EXPECT_LE(v[i], v[peak]);
  for (std::size_t i = peak; i + 1 < v.size(); ++i) EXPECT_GE(v[peak], v[i]);
}

TEST(EqualPeriodSearch, CapsAtLifespan) {
  // The bound 4·⌈√(pU/c)⌉ + 8 = 12 exceeds U = 5.
  const auto search = best_equal_period_count(5, 1, kParams);
  EXPECT_EQ(search.value_by_m.size(), 5u);
}

}  // namespace
}  // namespace nowsched::solver
