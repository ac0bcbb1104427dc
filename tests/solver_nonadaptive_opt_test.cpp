#include "solver/nonadaptive_opt.h"

#include <gtest/gtest.h>

#include "core/bounds.h"
#include "core/guidelines.h"
#include "solver/fast_solver.h"

namespace nowsched::solver {
namespace {

constexpr Params kParams{16};

TEST(CommittedSearch, NeverWorseThanSeed) {
  for (Ticks u : {Ticks{512}, Ticks{2048}, Ticks{8192}}) {
    for (int p : {1, 2, 3}) {
      const auto result = optimize_committed(u, p, kParams);
      EXPECT_GE(result.value, result.start_value) << "u=" << u << " p=" << p;
      EXPECT_EQ(result.schedule.total(), u);
    }
  }
}

TEST(CommittedSearch, ResultValueMatchesReEvaluation) {
  const auto result = optimize_committed(4096, 2, kParams);
  EXPECT_EQ(result.value,
            nonadaptive_guaranteed_work(result.schedule, 4096, 2, kParams));
}

TEST(CommittedSearch, EqualPeriodFamilyIsNearGloballyOptimal) {
  // §3.1's optimality claim, probed beyond the equal family: free-form local
  // search must not beat the best equal-period schedule by more than a
  // low-order sliver (a couple of c).
  for (Ticks u : {Ticks{1024}, Ticks{4096}}) {
    for (int p : {1, 2, 3}) {
      const auto search = best_equal_period_count(u, p, kParams);
      const auto freeform = optimize_committed(u, p, kParams);
      EXPECT_LE(freeform.value, search.best_value + 3 * kParams.c)
          << "u=" << u << " p=" << p << " (free-form found a big improvement)";
    }
  }
}

TEST(CommittedSearch, NeverExceedsAdaptiveOptimum) {
  const Ticks u = 4096;
  const auto table = solve_fast(3, u, kParams);
  for (int p : {1, 2, 3}) {
    const auto result = optimize_committed(u, p, kParams);
    EXPECT_LE(result.value, table.value(p, u)) << "p=" << p;
  }
}

TEST(CommittedSearch, DeterministicUnderSeed) {
  // The pair sampling draws from a fixed seed: two calls agree exactly.
  const auto a = optimize_committed(2048, 2, kParams);
  const auto b = optimize_committed(2048, 2, kParams);
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.schedule, b.schedule);
}

TEST(CommittedSearch, ImprovesClearlySuboptimalSeedsViaMoves) {
  // With p=0 the guideline is already the optimum (single period); the
  // search must simply keep it.
  const auto result = optimize_committed(1000, 0, kParams);
  EXPECT_EQ(result.value, 1000 - kParams.c);
}

TEST(CommittedSearch, TracksCorrectedClosedForm) {
  const Ticks u = 8192;
  const int p = 2;
  const auto result = optimize_committed(u, p, kParams);
  const double formula = bounds::nonadaptive_work(static_cast<double>(u), p, 16.0);
  // The committed optimum sits within ~2c + grid slack of the formula.
  EXPECT_NEAR(static_cast<double>(result.value), formula, 3.0 * 16.0 + 8.0);
}

}  // namespace
}  // namespace nowsched::solver
