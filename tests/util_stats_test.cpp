#include "util/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace nowsched::util {
namespace {

TEST(Accumulator, EmptyIsZero) {
  Accumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_EQ(acc.mean(), 0.0);
  EXPECT_EQ(acc.variance(), 0.0);
}

TEST(Accumulator, SingleValue) {
  Accumulator acc;
  acc.add(4.5);
  EXPECT_EQ(acc.count(), 1u);
  EXPECT_DOUBLE_EQ(acc.mean(), 4.5);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
  EXPECT_DOUBLE_EQ(acc.min(), 4.5);
  EXPECT_DOUBLE_EQ(acc.max(), 4.5);
}

TEST(Accumulator, KnownMeanAndVariance) {
  Accumulator acc;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(v);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  // Sample variance of this classic data set is 32/7.
  EXPECT_NEAR(acc.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
}

TEST(Summary, QuantilesOfKnownData) {
  Summary s({1.0, 2.0, 3.0, 4.0, 5.0});
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 3.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.25), 2.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.75), 4.0);
}

TEST(Summary, InterpolatesBetweenOrderStatistics) {
  Summary s({0.0, 10.0});
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.1), 1.0);
}

TEST(Summary, UnsortedInputHandled) {
  Summary s({5.0, 1.0, 3.0, 2.0, 4.0});
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 3.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
}

TEST(Summary, EmptyAndSingle) {
  Summary empty({});
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
  Summary one({7.0});
  EXPECT_DOUBLE_EQ(one.quantile(0.0), 7.0);
  EXPECT_DOUBLE_EQ(one.quantile(1.0), 7.0);
}

TEST(LinearFit, RecoversExactLine) {
  std::vector<double> x, y;
  for (int i = 0; i < 20; ++i) {
    x.push_back(i);
    y.push_back(3.0 + 2.5 * i);
  }
  const auto fit = fit_linear(x, y);
  EXPECT_NEAR(fit.intercept, 3.0, 1e-9);
  EXPECT_NEAR(fit.slope, 2.5, 1e-9);
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(LinearFit, DegenerateInputs) {
  EXPECT_DOUBLE_EQ(fit_linear({}, {}).slope, 0.0);
  EXPECT_DOUBLE_EQ(fit_linear({1.0}, {2.0}).slope, 0.0);
  // Vertical data (all x equal) cannot be fit.
  EXPECT_DOUBLE_EQ(fit_linear({2.0, 2.0}, {1.0, 5.0}).slope, 0.0);
}

TEST(LinearFit, SqrtLawDetectedOnTransformedAxis) {
  // The experiments fit work deficits against sqrt(U); check the recipe:
  // y = 4*sqrt(u) fit against x = sqrt(u) must give slope ~4.
  std::vector<double> x, y;
  for (double u = 100.0; u <= 10000.0; u += 100.0) {
    x.push_back(std::sqrt(u));
    y.push_back(4.0 * std::sqrt(u) + 1.0);
  }
  const auto fit = fit_linear(x, y);
  EXPECT_NEAR(fit.slope, 4.0, 1e-9);
  EXPECT_GT(fit.r2, 0.999);
}

}  // namespace
}  // namespace nowsched::util
