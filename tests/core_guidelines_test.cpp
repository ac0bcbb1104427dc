#include "core/guidelines.h"

#include <gtest/gtest.h>

#include <cmath>
#include <type_traits>

namespace nowsched {
namespace {

// ---------------------------------------------------------------------------
// §3.1 non-adaptive guideline
// ---------------------------------------------------------------------------

TEST(NonAdaptive, PeriodCountMatchesFormula) {
  const Params params{16};
  // m = floor(sqrt(p*U/c)).
  EXPECT_EQ(nonadaptive_period_count(16 * 100, 1, params), 10u);
  EXPECT_EQ(nonadaptive_period_count(16 * 100, 4, params), 20u);
  EXPECT_EQ(nonadaptive_period_count(16 * 99, 1, params), 9u);  // floor
}

TEST(NonAdaptive, ZeroInterruptsIsSinglePeriod) {
  const Params params{16};
  EXPECT_EQ(nonadaptive_period_count(10000, 0, params), 1u);
  const auto s = nonadaptive_guideline(10000, 0, params);
  EXPECT_EQ(s.size(), 1u);
  EXPECT_EQ(s.total(), 10000);
}

TEST(NonAdaptive, ClampsToAtLeastOnePeriod) {
  const Params params{100};
  // sqrt(1*5/100) < 1 -> clamp to 1.
  EXPECT_EQ(nonadaptive_period_count(5, 1, params), 1u);
}

TEST(NonAdaptive, RejectsBadInputs) {
  EXPECT_THROW(nonadaptive_period_count(0, 1, Params{16}), std::invalid_argument);
  EXPECT_THROW(nonadaptive_period_count(10, -1, Params{16}), std::invalid_argument);
  EXPECT_THROW(nonadaptive_period_count(10, 1, Params{0}), std::invalid_argument);
}

// Every field is a Ticks so the struct has no padding bytes: gtest names each
// case after the bytes of its parameter, and padding bytes are indeterminate.
struct NaCase {
  Ticks u;
  Ticks p;
  Ticks c;
};
static_assert(std::has_unique_object_representations_v<NaCase>);

class NonAdaptiveProperty : public ::testing::TestWithParam<NaCase> {};

TEST_P(NonAdaptiveProperty, SchedulesSpanLifespanWithEqualPeriods) {
  const auto [u, p, c] = GetParam();
  const Params params{c};
  const auto s = nonadaptive_guideline(u, p, params);
  EXPECT_EQ(s.total(), u);
  EXPECT_EQ(s.size(), nonadaptive_period_count(u, p, params));
  Ticks lo = s.period(0), hi = s.period(0);
  for (std::size_t i = 0; i < s.size(); ++i) {
    lo = std::min(lo, s.period(i));
    hi = std::max(hi, s.period(i));
  }
  EXPECT_LE(hi - lo, 1);
}

TEST_P(NonAdaptiveProperty, PeriodLengthTracksSqrtCUOverP) {
  const auto [u, p, c] = GetParam();
  if (p == 0) return;
  const Params params{c};
  const auto s = nonadaptive_guideline(u, p, params);
  const double expected = std::sqrt(static_cast<double>(c) * static_cast<double>(u) /
                                    static_cast<double>(p));
  // Floor effects in m shift the realized length; stay within 30%.
  EXPECT_NEAR(static_cast<double>(s.period(0)), expected, 0.3 * expected + 2.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NonAdaptiveProperty,
    ::testing::Values(NaCase{1024, 1, 16}, NaCase{1024, 3, 16}, NaCase{4096, 2, 16},
                      NaCase{65536, 1, 16}, NaCase{65536, 8, 16}, NaCase{100000, 5, 64},
                      NaCase{333, 2, 7}, NaCase{50, 4, 3}));

// ---------------------------------------------------------------------------
// §3.2 adaptive guideline
// ---------------------------------------------------------------------------

TEST(AdaptiveTail, MatchesCeilTwoThirds) {
  EXPECT_EQ(adaptive_tail_count(0), 0u);
  EXPECT_EQ(adaptive_tail_count(1), 1u);  // ⌈2/3⌉
  EXPECT_EQ(adaptive_tail_count(2), 2u);  // ⌈4/3⌉
  EXPECT_EQ(adaptive_tail_count(3), 2u);  // ⌈6/3⌉
  EXPECT_EQ(adaptive_tail_count(4), 3u);  // ⌈8/3⌉
  EXPECT_EQ(adaptive_tail_count(6), 4u);
}

TEST(AdaptivePivot, PinnedByTableTwoAtPEqualsOne) {
  // (1 − 0·√2 + ½) = 3/2 — this is what pins the OCR parse (DESIGN.md).
  EXPECT_NEAR(adaptive_pivot_factor(1), 1.5, 1e-12);
}

TEST(AdaptivePivot, PrintedFormulaDipsNegative) {
  // Documented OCR anomaly: the literal formula is negative for p in 3..6.
  EXPECT_LT(adaptive_pivot_factor(3), 0.0);
  EXPECT_LT(adaptive_pivot_factor(4), 0.0);
  EXPECT_GT(adaptive_pivot_factor(2), 0.0);
}

TEST(AdaptivePaperCount, MatchesTableTwoAtPEqualsOne) {
  const Params params{16};
  const Ticks u = 16 * 512;  // U/c = 512
  // ⌊2^{1/2}·√512⌋ + 2 = ⌊32⌋ + 2.
  EXPECT_EQ(adaptive_period_count_paper(u, 1, params), 34u);
}

TEST(AdaptiveEpisode, ZeroInterruptsIsSingleLongPeriod) {
  const auto s = adaptive_episode_guideline(5000, 0, Params{16});
  ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(s.total(), 5000);
}

// Every field is a Ticks so the struct has no padding bytes: gtest names each
// case after the bytes of its parameter, and padding bytes are indeterminate.
struct AdCase {
  Ticks u;
  Ticks p;
  Ticks c;
};
static_assert(std::has_unique_object_representations_v<AdCase>);

class AdaptiveEpisodeProperty : public ::testing::TestWithParam<AdCase> {};

TEST_P(AdaptiveEpisodeProperty, SpansLifespanExactly) {
  const auto [u, p, c] = GetParam();
  const auto s = adaptive_episode_guideline(u, p, Params{c});
  EXPECT_EQ(s.total(), u);
}

TEST_P(AdaptiveEpisodeProperty, TailPeriodsAreShortAndInImmuneBand) {
  const auto [u, p, c] = GetParam();
  AdaptiveLayout layout;
  const auto s = adaptive_episode_guideline(u, p, Params{c}, PivotRule::kAsPrinted,
                                            &layout);
  if (p == 0 || layout.degenerate) return;
  ASSERT_GE(s.size(), adaptive_tail_count(p));
  for (std::size_t i = s.size() - adaptive_tail_count(p); i < s.size(); ++i) {
    // 3c/2 up to rounding: the Thm 4.2 band (c, 2c].
    EXPECT_GE(s.period(i), c);
    EXPECT_LE(s.period(i), 2 * c);
  }
}

TEST_P(AdaptiveEpisodeProperty, RampIsNonIncreasingDownToPivot) {
  const auto [u, p, c] = GetParam();
  AdaptiveLayout layout;
  const auto s = adaptive_episode_guideline(u, p, Params{c}, PivotRule::kAsPrinted,
                                            &layout);
  if (layout.degenerate) {
    EXPECT_EQ(s, EpisodeSchedule::equal_split(u, s.size()));
    return;
  }
  if (p == 0) return;
  // The ramp (periods 0..ramp_count-1) descends by ~4^{1-p}c into the pivot
  // at index ramp_count; rounding allows 1-tick jitter. (The tail after the
  // pivot jumps back up to 3c/2 when the printed pivot is below c — that is
  // the documented OCR anomaly, not a monotonicity bug.)
  ASSERT_EQ(layout.ramp_count + 1 + adaptive_tail_count(p), s.size());
  for (std::size_t i = 0; i < layout.ramp_count; ++i) {
    EXPECT_GE(s.period(i) + 1, s.period(i + 1)) << "i=" << i;
  }
}

TEST_P(AdaptiveEpisodeProperty, PeriodCountWithinFactorOfPaperFormulaSqrtPart) {
  const auto [u, p, c] = GetParam();
  if (p == 0) return;
  AdaptiveLayout layout;
  const auto s = adaptive_episode_guideline(u, p, Params{c}, PivotRule::kAsPrinted,
                                            &layout);
  if (layout.degenerate) return;
  // Our constructive m must scale like 2^{p−1/2}√(U/c) (the sqrt part of the
  // printed formula; the printed additive term over-fills L — DESIGN.md).
  const double sqrt_part = std::pow(2.0, static_cast<double>(p) - 0.5) *
                           std::sqrt(static_cast<double>(u) / static_cast<double>(c));
  const double m = static_cast<double>(s.size());
  EXPECT_GT(m, 0.4 * sqrt_part);
  EXPECT_LT(m, 2.5 * sqrt_part + 16.0);
}

TEST_P(AdaptiveEpisodeProperty, RationalizedVariantIsFullyProductive) {
  const auto [u, p, c] = GetParam();
  AdaptiveLayout layout;
  const auto s = adaptive_episode_guideline(u, p, Params{c}, PivotRule::kRationalized,
                                            &layout);
  if (p == 0 || layout.degenerate) return;
  // With the pivot clamped to 3c/2 every period should exceed c (up to
  // 1-tick rounding on the tail).
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_GE(s.period(i), c) << "period " << i;
  }
}

// c = 1, p = 3, L = 7..12: the ramp, pivot and tail the builder lays out
// number one more than L, so only one-tick periods fit.
INSTANTIATE_TEST_SUITE_P(
    Sweep, AdaptiveEpisodeProperty,
    ::testing::Values(AdCase{16 * 256, 1, 16}, AdCase{16 * 1024, 1, 16},
                      AdCase{16 * 1024, 2, 16}, AdCase{16 * 4096, 3, 16},
                      AdCase{16 * 4096, 4, 16}, AdCase{64 * 512, 2, 64},
                      AdCase{10000, 5, 8}, AdCase{7777, 3, 13}, AdCase{100000, 0, 16},
                      AdCase{7, 3, 1}, AdCase{8, 3, 1}, AdCase{9, 3, 1},
                      AdCase{10, 3, 1}, AdCase{11, 3, 1}, AdCase{12, 3, 1}));

TEST(AdaptiveEpisode, DegeneratesGracefullyOnTinyLifespans) {
  const Params params{16};
  for (Ticks u : {1, 5, 16, 24, 40, 64}) {
    for (int p : {1, 2, 3}) {
      AdaptiveLayout layout;
      const auto s =
          adaptive_episode_guideline(u, p, params, PivotRule::kAsPrinted, &layout);
      EXPECT_EQ(s.total(), u);
      EXPECT_GE(s.size(), 1u);
    }
  }
}

// ---------------------------------------------------------------------------
// Policies
// ---------------------------------------------------------------------------

TEST(GuidelinePolicies, EpisodesSpanResidualForAllStates) {
  const Params params{16};
  const AdaptiveGuidelinePolicy adaptive;
  const NonAdaptiveGuidelinePolicy nonadaptive;
  for (Ticks l : {1, 17, 100, 1000, 5000}) {
    for (int q : {0, 1, 2, 4}) {
      EXPECT_EQ(adaptive.episode(l, q, params).total(), l);
      EXPECT_EQ(nonadaptive.episode(l, q, params).total(), l);
    }
  }
}

TEST(GuidelinePolicies, NamesDistinguishVariants) {
  EXPECT_EQ(AdaptiveGuidelinePolicy{}.name(), "adaptive-guideline");
  EXPECT_EQ(AdaptiveGuidelinePolicy{PivotRule::kRationalized}.name(),
            "adaptive-guideline-rationalized");
  EXPECT_EQ(NonAdaptiveGuidelinePolicy{}.name(), "nonadaptive-restart");
}

}  // namespace
}  // namespace nowsched
