#include "core/baselines.h"

#include <gtest/gtest.h>

namespace nowsched {
namespace {

constexpr Params kParams{16};

TEST(SingleBlock, OnePeriodAlways) {
  SingleBlockPolicy policy;
  for (Ticks l : {1, 100, 99999}) {
    const auto s = policy.episode(l, 3, kParams);
    ASSERT_EQ(s.size(), 1u);
    EXPECT_EQ(s.total(), l);
  }
  EXPECT_EQ(policy.name(), "single-block");
}

TEST(FixedChunk, ChunksOfRequestedSizePlusRemainder) {
  FixedChunkPolicy policy(4.0);  // 64-tick chunks
  const auto s = policy.episode(1000, 2, kParams);
  EXPECT_EQ(s.total(), 1000);
  for (std::size_t i = 0; i + 1 < s.size(); ++i) EXPECT_EQ(s.period(i), 64);
  // Final remainder period in [chunk, 2*chunk).
  EXPECT_GE(s.period(s.size() - 1), 64);
  EXPECT_LT(s.period(s.size() - 1), 128);
}

TEST(FixedChunk, ResidualSmallerThanChunkIsOnePeriod) {
  FixedChunkPolicy policy(4.0);
  const auto s = policy.episode(50, 1, kParams);
  ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(s.total(), 50);
}

TEST(FixedChunk, RejectsNonPositiveChunk) {
  EXPECT_THROW(FixedChunkPolicy{0.0}, std::invalid_argument);
  EXPECT_THROW(FixedChunkPolicy{-1.0}, std::invalid_argument);
}

TEST(FixedChunk, SubTickChunkClampsToOneTick) {
  FixedChunkPolicy policy(0.001);
  const auto s = policy.episode(10, 1, Params{1});
  EXPECT_EQ(s.total(), 10);
  EXPECT_EQ(s.period(0), 1);
}

TEST(Geometric, PeriodsShrinkByDivisor) {
  GeometricPolicy policy(2.0, 2.0);
  const auto s = policy.episode(10000, 3, kParams);
  EXPECT_EQ(s.total(), 10000);
  ASSERT_GE(s.size(), 3u);
  EXPECT_EQ(s.period(0), 5000);
  EXPECT_EQ(s.period(1), 2500);
  // Non-increasing until the merged tail.
  for (std::size_t i = 0; i + 2 < s.size(); ++i) {
    EXPECT_GE(s.period(i), s.period(i + 1));
  }
}

TEST(Geometric, FloorsAtRequestedMinimum) {
  GeometricPolicy policy(2.0, 2.0);  // floor 32 ticks
  const auto s = policy.episode(10000, 3, kParams);
  for (std::size_t i = 0; i + 1 < s.size(); ++i) {
    EXPECT_GE(s.period(i), 32);
  }
}

TEST(Geometric, RejectsBadParameters) {
  EXPECT_THROW(GeometricPolicy(1.0, 2.0), std::invalid_argument);
  EXPECT_THROW(GeometricPolicy(2.0, 0.0), std::invalid_argument);
}

TEST(Geometric, TinyResidualSinglePeriod) {
  GeometricPolicy policy(2.0, 2.0);
  const auto s = policy.episode(10, 1, kParams);
  EXPECT_EQ(s.total(), 10);
  EXPECT_EQ(s.size(), 1u);
}

TEST(BaselineNames, AreDescriptive) {
  EXPECT_EQ(FixedChunkPolicy{4.0}.name().substr(0, 11), "fixed-chunk");
  EXPECT_EQ(GeometricPolicy(2.0, 2.0).name().substr(0, 9), "geometric");
}

}  // namespace
}  // namespace nowsched
