// The fast crossover solver must agree bit-for-bit with the O(N²) oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "solver/fast_solver.h"
#include "solver/reference_solver.h"
#include "util/thread_pool.h"

namespace nowsched::solver {
namespace {

// Every field is a Ticks so the struct has no padding bytes: gtest names each
// case after the bytes of its parameter, and padding bytes are indeterminate.
struct GridCase {
  Ticks max_p;
  Ticks max_l;
  Ticks c;
};
static_assert(std::has_unique_object_representations_v<GridCase>);

class CrossCheck : public ::testing::TestWithParam<GridCase> {};

TEST_P(CrossCheck, FastMatchesReferenceExactly) {
  const auto [max_p, max_l, c] = GetParam();
  const auto ref = solve_reference(max_p, max_l, Params{c});
  const auto fast = solve_fast(max_p, max_l, Params{c});
  for (int p = 0; p <= max_p; ++p) {
    for (Ticks l = 0; l <= max_l; ++l) {
      ASSERT_EQ(fast.value(p, l), ref.value(p, l)) << "p=" << p << " l=" << l;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Grids, CrossCheck,
                         ::testing::Values(GridCase{1, 400, 8}, GridCase{2, 400, 16},
                                           GridCase{3, 300, 4}, GridCase{4, 250, 2},
                                           GridCase{2, 600, 1}, GridCase{1, 1000, 64},
                                           GridCase{5, 200, 8}, GridCase{0, 100, 8},
                                           GridCase{3, 512, 100},
                                           // Many blocks of c lifespans per
                                           // level, a tall narrow grid, and a
                                           // one-lifespan final block.
                                           GridCase{3, 7200, 300}, GridCase{3, 2304, 256},
                                           GridCase{2, 500, 8}, GridCase{2, 1025, 256},
                                           GridCase{3, 640, 32}));

TEST(FastSolver, LargeGridSelfConsistency) {
  // On a grid too big for the oracle, check internal invariants instead:
  // monotone, 1-Lipschitz, level ordering, and spot equalities at
  // lifespans where the recurrence can be verified against level p−1.
  const Params params{16};
  const Ticks max_l = 1 << 16;
  const auto table = solve_fast(3, max_l, params);
  for (int p = 1; p <= 3; ++p) {
    for (Ticks l = 1; l <= max_l; ++l) {
      const Ticks v = table.value(p, l);
      ASSERT_GE(v, table.value(p, l - 1));
      ASSERT_LE(v - table.value(p, l - 1), 1);
      ASSERT_LE(v, table.value(p - 1, l));
    }
  }
  // Spot check the recurrence at a few lifespans via a full scan.
  for (Ticks l : {Ticks{1000}, Ticks{4096}, Ticks{30000}, max_l}) {
    for (int p : {1, 2, 3}) {
      Ticks best = 0;
      for (Ticks t = 1; t <= l; ++t) {
        const Ticks a = positive_sub(t, params.c) + table.value(p, l - t);
        const Ticks b = table.value(p - 1, l - t);
        best = std::max(best, std::min(a, b));
      }
      EXPECT_EQ(table.value(p, l), best) << "p=" << p << " l=" << l;
    }
  }
}

TEST(FastSolver, RepeatedSolvesAreBitIdentical) {
  // No solve depends on state a previous solve left behind.
  const Params params{32};
  const auto first = solve_fast(3, 640, params);
  for (int round = 0; round < 2; ++round) {
    const auto again = solve_fast(3, 640, params);
    ASSERT_EQ(again.slab(), first.slab()) << "round " << round;
  }
}

TEST(FastSolver, SmallerGridsArePrefixesOfLargerOnes) {
  // W(p)[L] does not depend on the table's extent: every smaller grid is
  // the corresponding corner of a larger one (what lets the solve cache
  // answer a request from a rounded-up canonical table).
  const Params params{16};
  const auto big = solve_fast(4, 1000, params);
  for (const auto& [max_p, max_l] :
       std::vector<std::pair<int, Ticks>>{{0, 0}, {1, 15}, {2, 16}, {4, 999}, {3, 517}}) {
    const auto small = solve_fast(max_p, max_l, params);
    for (int p = 0; p <= max_p; ++p) {
      for (Ticks l = 0; l <= max_l; ++l) {
        ASSERT_EQ(small.value(p, l), big.value(p, l))
            << "grid (" << max_p << ", " << max_l << ") p=" << p << " l=" << l;
      }
    }
  }
}

TEST(FastSolver, ConcurrentSolvesFromPoolTasksMatchReference) {
  // The solve is a pure function of its arguments, so pool tasks may run
  // solves side by side (BatchRunner does); each must still be exact.
  const std::vector<GridCase> grids = {{3, 400, 13}, {2, 500, 8},  {4, 300, 1},
                                       {1, 1000, 64}, {3, 640, 32}, {2, 257, 2},
                                       {5, 200, 8},  {3, 90, 100}};
  std::vector<ValueTable> refs;
  for (const auto& [max_p, max_l, c] : grids) {
    refs.push_back(solve_reference(max_p, max_l, Params{c}));
  }
  util::ThreadPool pool(4);
  std::vector<int> exact(grids.size() * 3, 0);
  pool.parallel_for(
      0, exact.size(),
      [&](std::size_t i) {
        const auto& [max_p, max_l, c] = grids[i % grids.size()];
        const auto fast = solve_fast(max_p, max_l, Params{c});
        exact[i] = fast.slab() == refs[i % grids.size()].slab() ? 1 : 0;
      },
      /*grain=*/1);
  for (std::size_t i = 0; i < exact.size(); ++i) {
    EXPECT_EQ(exact[i], 1) << "grid " << i % grids.size() << " task " << i;
  }
}

TEST(FastSolver, RejectsInvalidDimensions) {
  EXPECT_THROW((void)solve_fast(-1, 100, Params{8}), std::invalid_argument);
  EXPECT_THROW((void)solve_fast(2, -1, Params{8}), std::invalid_argument);
  EXPECT_THROW((void)solve_fast(2, 100, Params{0}), std::invalid_argument);
}

}  // namespace
}  // namespace nowsched::solver
