#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

namespace nowsched::util {
namespace {

TEST(Rng, SplitMix64ReferenceStream) {
  // Reference outputs of SplitMix64 seeded with 0 (published test vector;
  // e.g. the values used by the xoshiro project's seeding docs).
  Rng rng(0);
  EXPECT_EQ(rng.next(), 0xE220A8397B1DCDAFull);
  EXPECT_EQ(rng.next(), 0x6E789E6AA1B965F4ull);
  EXPECT_EQ(rng.next(), 0x06C45D188009454Full);
}

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DistinctSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowZeroIsZero) {
  Rng rng(7);
  EXPECT_EQ(rng.next_below(0), 0u);
}

TEST(Rng, NextBelowCoversSmallRangeUniformly) {
  Rng rng(123);
  std::vector<int> counts(8, 0);
  const int n = 80000;
  for (int i = 0; i < n; ++i) counts[rng.next_below(8)]++;
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), n / 8.0, 5.0 * std::sqrt(n / 8.0));
  }
}

TEST(Rng, UniformIntInclusiveEndpointsReached) {
  Rng rng(9);
  bool lo_seen = false, hi_seen = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(3, 6);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 6);
    lo_seen |= (v == 3);
    hi_seen |= (v == 6);
  }
  EXPECT_TRUE(lo_seen);
  EXPECT_TRUE(hi_seen);
}

TEST(Rng, Uniform01InUnitInterval) {
  Rng rng(11);
  double mean = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    mean += u;
  }
  EXPECT_NEAR(mean / n, 0.5, 0.01);
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng(13);
  const double lambda = 0.25;
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(lambda);
  EXPECT_NEAR(sum / n, 1.0 / lambda, 0.15);
}

TEST(Rng, ParetoRespectsScaleFloor) {
  Rng rng(17);
  for (int i = 0; i < 5000; ++i) EXPECT_GE(rng.pareto(3.0, 1.5), 3.0);
}

TEST(Rng, ParetoMedianMatchesTheory) {
  // Median of Pareto(x_m, alpha) is x_m * 2^(1/alpha).
  Rng rng(19);
  std::vector<double> xs;
  const int n = 40001;
  xs.reserve(n);
  for (int i = 0; i < n; ++i) xs.push_back(rng.pareto(1.0, 2.0));
  std::nth_element(xs.begin(), xs.begin() + n / 2, xs.end());
  EXPECT_NEAR(xs[n / 2], std::pow(2.0, 0.5), 0.03);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(23);
  int hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(hits / static_cast<double>(n), 0.3, 0.01);
}

}  // namespace
}  // namespace nowsched::util
