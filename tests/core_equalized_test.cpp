#include "core/equalized.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <vector>

#include "core/bounds.h"
#include "core/closed_form.h"
#include "fuzz_cases.h"
#include "util/rng.h"

namespace nowsched {
namespace {

constexpr Params kParams{16};

TEST(AnalyticW, ExactBaseCase) {
  EXPECT_DOUBLE_EQ(analytic_guaranteed_work(0, 100.0, 16.0), 84.0);
  EXPECT_DOUBLE_EQ(analytic_guaranteed_work(0, 10.0, 16.0), 0.0);
  EXPECT_DOUBLE_EQ(analytic_guaranteed_work(0, -5.0, 16.0), 0.0);
}

TEST(AnalyticW, MatchesTableTwoAtPEqualsOne) {
  // W(1)[U] ≈ U − √(2cU) − c/2.
  const double u = 16384.0, c = 16.0;
  EXPECT_NEAR(analytic_guaranteed_work(1, u, c), u - std::sqrt(2 * c * u) - c / 2,
              1e-9);
}

TEST(AnalyticW, DeficitCoefficientGrowsWithQ) {
  const double u = 1e6, c = 16.0;
  for (int q = 1; q < 6; ++q) {
    EXPECT_GT(analytic_guaranteed_work(q, u, c), 0.0);
    EXPECT_GT(analytic_guaranteed_work(q, u, c), analytic_guaranteed_work(q + 1, u, c));
  }
}

TEST(AnalyticW, ClampedAtZeroForTinyLifespans) {
  EXPECT_DOUBLE_EQ(analytic_guaranteed_work(2, 10.0, 16.0), 0.0);
}

class InverseRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(InverseRoundTrip, InverseIsRightInverseOnPositiveBranch) {
  const int q = GetParam();
  const double c = 16.0;
  for (double v : {0.0, 1.0, 10.0, 100.0, 5000.0, 1e6}) {
    const double x = analytic_guaranteed_work_inverse(q, v, c);
    EXPECT_NEAR(analytic_guaranteed_work(q, x, c), v, 1e-6 * (1.0 + v)) << "v=" << v;
  }
}

TEST_P(InverseRoundTrip, InverseIsMonotone) {
  const int q = GetParam();
  const double c = 16.0;
  double prev = analytic_guaranteed_work_inverse(q, 0.0, c);
  for (double v = 10.0; v < 1e5; v *= 3.0) {
    const double x = analytic_guaranteed_work_inverse(q, v, c);
    EXPECT_GT(x, prev);
    prev = x;
  }
}

INSTANTIATE_TEST_SUITE_P(Qs, InverseRoundTrip, ::testing::Values(0, 1, 2, 3, 4, 5));

TEST(EqualizedEpisode, ZeroInterruptsIsSinglePeriod) {
  const auto s = equalized_episode(1000, 0, kParams);
  ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(s.total(), 1000);
}

// Every field is a Ticks so the struct has no padding bytes: gtest names each
// case after the bytes of its parameter, and padding bytes are indeterminate.
struct EqCase {
  Ticks u;
  Ticks p;
};
static_assert(std::has_unique_object_representations_v<EqCase>);

class EqualizedProperty : public ::testing::TestWithParam<EqCase> {};

TEST_P(EqualizedProperty, SpansLifespan) {
  const auto [u, p] = GetParam();
  EXPECT_EQ(equalized_episode(u, p, kParams).total(), u);
}

TEST_P(EqualizedProperty, ForcedPeriodsAreProductive) {
  const auto [u, p] = GetParam();
  if (p == 0) return;
  const auto s = equalized_episode(u, p, kParams);
  if (s.size() < 3) return;
  // Prefix periods (before the immune tail of ~3c/2 pieces) must exceed c —
  // the Thm 4.1 "fully productive" discipline. Monotone descent is a p=1
  // structural fact only (for larger p the √-curvature of W(p−1) lets
  // lengths wobble a few ticks mid-episode) and is asserted below.
  std::size_t k = 0;
  while (k + 1 < s.size() && s.period(k) > 2 * kParams.c) {
    EXPECT_GT(s.period(k), kParams.c) << "k=" << k;
    if (p <= 2) {
      EXPECT_GE(s.period(k) + 1, s.period(k + 1)) << "k=" << k;
    }
    ++k;
  }
}

TEST_P(EqualizedProperty, RealizedValueMatchesP1Evaluator) {
  const auto [u, p] = GetParam();
  if (p != 1) return;
  double v = 0.0;
  const auto s = equalized_episode(u, p, kParams, &v);
  const Ticks exact = guaranteed_work_p1(s, u, kParams);
  // The bisected analytic V and the exact game value agree to low order.
  EXPECT_NEAR(static_cast<double>(exact), v, 2.0 * kParams.c + 4.0);
}

TEST_P(EqualizedProperty, InterruptOptionsAreEqualizedAtP1) {
  // The defining property: for p=1, every kill-period-k option costs the
  // adversary nearly the same.
  const auto [u, p] = GetParam();
  if (p != 1 || u < 64 * kParams.c) return;
  const auto s = equalized_episode(u, p, kParams);
  const Ticks value = guaranteed_work_p1(s, u, kParams);
  for (std::size_t k = 0; k + 2 < s.size(); ++k) {
    const Ticks option =
        s.banked_work(k, kParams) + positive_sub(positive_sub(u, s.end(k)), kParams.c);
    EXPECT_GE(option + 1, value);
    EXPECT_LE(option - value, 3 * kParams.c) << "k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, EqualizedProperty,
                         ::testing::Values(EqCase{512, 1}, EqCase{4096, 1},
                                           EqCase{16384, 1}, EqCase{4096, 2},
                                           EqCase{16384, 3}, EqCase{16384, 5},
                                           EqCase{100, 2}, EqCase{33, 1},
                                           EqCase{65536, 4}, EqCase{9999, 0}));

TEST(EqualizedEpisode, TinyLifespanDegradesToSinglePeriod) {
  for (Ticks u : {1, 8, 16, 32, 48}) {
    const auto s = equalized_episode(u, 2, kParams);
    EXPECT_EQ(s.total(), u);
  }
}

TEST(EqualizedEpisode, RejectsBadInputs) {
  EXPECT_THROW(equalized_episode(0, 1, kParams), std::invalid_argument);
  EXPECT_THROW(equalized_episode(10, -1, kParams), std::invalid_argument);
  EXPECT_THROW(analytic_guaranteed_work(-1, 10.0, 16.0), std::invalid_argument);
  EXPECT_THROW(analytic_guaranteed_work_inverse(1, -1.0, 16.0), std::invalid_argument);
}

TEST(EqualizedPolicy, NameAndSpanning) {
  EqualizedGuidelinePolicy policy;
  EXPECT_EQ(policy.name(), "equalized-guideline");
  for (Ticks l : {1, 100, 10000}) {
    for (int q : {0, 1, 3}) {
      EXPECT_EQ(policy.episode(l, q, kParams).total(), l);
    }
  }
}

// --- Oracle: the vector-building bisection that equalized_episode replaced.
// Every probe built the full period vector; the first one to pass decided
// the schedule. Kept verbatim (including its own W(q)⁻¹, which recomputed
// the deficit coefficient per call) so the allocation-free probes are held
// to bit-identical periods and realized value.

double oracle_inverse(int q, double value, double c) {
  if (q == 0) return value + c;
  const double a = 2.0 - std::pow(2.0, 1.0 - static_cast<double>(q));
  const double b = a * std::sqrt(2.0 * c);
  const double s = (b + std::sqrt(b * b + 4.0 * (value + c / 2.0))) / 2.0;
  return s * s;
}

std::optional<std::vector<double>> oracle_try_build(double lifespan, int p, double c,
                                                    double v) {
  std::vector<double> lengths;
  double t_begin = 0.0;
  double banked = 0.0;
  while (true) {
    const double need = v - banked;
    if (need <= 0.0) break;
    const double x = oracle_inverse(p - 1, need, c);
    const double t_end = lifespan - x;
    const double t = t_end - t_begin;
    if (t <= c) return std::nullopt;
    lengths.push_back(t);
    banked += t - c;
    t_begin = t_end;
    if (lengths.size() > 4096u) return std::nullopt;
  }
  double rest = lifespan - t_begin;
  double total_work = banked;
  while (rest > 3.0 * c) {
    lengths.push_back(1.5 * c);
    total_work += 0.5 * c;
    rest -= 1.5 * c;
  }
  if (rest > 0.0) {
    lengths.push_back(rest);
    total_work += std::max(0.0, rest - c);
  }
  if (lengths.empty()) return std::nullopt;
  if (total_work < v) return std::nullopt;
  return lengths;
}

EpisodeSchedule oracle_episode(Ticks lifespan, int p, const Params& params,
                               double* value_out) {
  *value_out = 0.0;
  if (p == 0) {
    *value_out = static_cast<double>(positive_sub(lifespan, params.c));
    return EpisodeSchedule({lifespan});
  }
  const double l = static_cast<double>(lifespan);
  const double c = static_cast<double>(params.c);
  double lo = 0.0, hi = std::max(0.0, l - c);
  std::optional<std::vector<double>> best = oracle_try_build(l, p, c, 0.0);
  double best_v = 0.0;
  for (int iter = 0; iter < 64 && hi - lo > 0.25; ++iter) {
    const double mid = (lo + hi) / 2.0;
    auto attempt = oracle_try_build(l, p, c, mid);
    if (attempt) {
      best = std::move(attempt);
      best_v = mid;
      lo = mid;
    } else {
      hi = mid;
    }
  }
  if (!best || best->empty()) return EpisodeSchedule({lifespan});
  *value_out = best_v;
  return EpisodeSchedule::from_real(*best, lifespan);
}

/// Asserts equalized_episode(u, p, c) matches the oracle in periods and,
/// bit for bit, in the realized value.
void expect_matches_oracle(Ticks u, int p, Ticks c) {
  const Params params{c};
  double want_v = -1.0, got_v = -2.0;
  const EpisodeSchedule want = oracle_episode(u, p, params, &want_v);
  const EpisodeSchedule got = equalized_episode(u, p, params, &got_v);
  ASSERT_TRUE(std::ranges::equal(got.periods(), want.periods()))
      << "c=" << c << " U=" << u << " p=" << p << "\n got  " << got.to_string()
      << "\n want " << want.to_string();
  ASSERT_EQ(std::bit_cast<std::uint64_t>(got_v), std::bit_cast<std::uint64_t>(want_v))
      << "c=" << c << " U=" << u << " p=" << p << " got V=" << got_v
      << " want V=" << want_v;
}

TEST(EqualizedEpisode, BitIdenticalToVectorBuildingBisection) {
  std::size_t cases = 0;
  for (Ticks c : {Ticks{1}, Ticks{2}, Ticks{16}, Ticks{64}, Ticks{1000}}) {
    // U <= c, around the 3c immune threshold, a geometric sweep, and a few
    // odd large lifespans, all within [1, 65536].
    std::vector<Ticks> lifespans = {1,         2,         c - 1,     c,         c + 1,
                                    2 * c,     3 * c - 1, 3 * c,     3 * c + 1, 3 * c + 2,
                                    3 * c + 7, 4 * c,     6 * c + 1, 10 * c,    65536,
                                    65535,     40961,     12345,     54321};
    for (Ticks u = 3; u <= 65536; u = u * 5 / 2 + 1) lifespans.push_back(u);
    for (Ticks u : lifespans) {
      if (u < 1 || u > 65536) continue;
      for (int p = 0; p <= 6; ++p) {
        ASSERT_NO_FATAL_FAILURE(expect_matches_oracle(u, p, c));
        ++cases;
      }
    }
  }
  EXPECT_GT(cases, 900u);

  // Random contracts over the service's range: U <= 131072, c <= 64, p <= 6.
  util::Rng rng(0xE9A1);
  const int draws = testing::fuzz_cases(200);
  for (int i = 0; i < draws; ++i) {
    const Ticks u = rng.uniform_int(1, 131072);
    const Ticks c = rng.uniform_int(1, 64);
    const int p = static_cast<int>(rng.uniform_int(0, 6));
    ASSERT_NO_FATAL_FAILURE(expect_matches_oracle(u, p, c)) << "draw " << i;
  }
}

}  // namespace
}  // namespace nowsched
