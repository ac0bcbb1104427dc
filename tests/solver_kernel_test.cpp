// Solver kernel differential: the production loss-set solve and the dense
// inverse scan must be bit-identical to the legacy binary search and to the
// O(P·N²) reference on generated scenarios, synthetic monotone tables,
// levels of every length, c = 1, lifespans below c, degenerate grids and
// forced-kernel whole solves — plus the write contract of run_fill_kernel
// (every cell of the level but cur[0] written before it is read, nothing
// outside [1, cur.size()) written) and the loss-set level 1 against the
// §5.2 closed form at paper scale.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/closed_form.h"
#include "fuzz_cases.h"
#include "sim/scenario_gen.h"
#include "solver/fast_solver.h"
#include "solver/reference_solver.h"
#include "util/rng.h"

namespace nowsched::solver {
namespace {

/// The dense level-fill kernels (run_fill_kernel's domain).
constexpr SolverKernel kKernels[] = {SolverKernel::kLegacy,
                                     SolverKernel::kInverseScan};
/// Every kernel solve_fast can be forced to.
constexpr SolverKernel kSolveKernels[] = {
    SolverKernel::kLegacy, SolverKernel::kInverseScan, SolverKernel::kLossSet};

/// Restores the un-forced dispatch state however a test exits.
struct KernelForceGuard {
  ~KernelForceGuard() { clear_forced_solver_kernel(); }
};

using nowsched::testing::fuzz_cases;

std::vector<Ticks> level_zero(Ticks n, Ticks c) {
  std::vector<Ticks> level(static_cast<std::size_t>(n) + 1);
  for (Ticks l = 0; l <= n; ++l) {
    level[static_cast<std::size_t>(l)] = positive_sub(l, c);
  }
  return level;
}

/// Fills one whole level with `kernel` on a fresh copy of `cur0`, returning
/// the filled level.
std::vector<Ticks> fill_with(SolverKernel kernel, const std::vector<Ticks>& cur0,
                             const std::vector<Ticks>& prev, Ticks c) {
  std::vector<Ticks> cur = cur0;
  run_fill_kernel(kernel, cur, prev, c);
  return cur;
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

TEST(KernelDispatch, NamesAreStable) {
  EXPECT_STREQ(solver_kernel_name(SolverKernel::kLegacy), "legacy");
  EXPECT_STREQ(solver_kernel_name(SolverKernel::kInverseScan), "inverse-scan");
  EXPECT_STREQ(solver_kernel_name(SolverKernel::kLossSet), "loss-set");
}

TEST(KernelDispatch, AutoNeverPicksLegacy) {
  KernelForceGuard guard;
  clear_forced_solver_kernel();
  EXPECT_EQ(active_solver_kernel(), SolverKernel::kLossSet);
}

TEST(KernelDispatch, ForceAndClear) {
  KernelForceGuard guard;
  for (SolverKernel k : kSolveKernels) {
    force_solver_kernel(k);
    EXPECT_EQ(active_solver_kernel(), k);
  }
  clear_forced_solver_kernel();
  EXPECT_EQ(active_solver_kernel(), SolverKernel::kLossSet);
}

// ---------------------------------------------------------------------------
// Differential battery
// ---------------------------------------------------------------------------

TEST(KernelDifferential, GeneratedScenariosBitIdenticalAcrossKernels) {
  // NOWSCHED_FUZZ_CASES generated scenarios. Per scenario, every level is
  // built by the legacy kernel and by the inverse scan, and both must match
  // the O(P·N²) reference entry-for-entry; so must the loss-set solve.
  sim::ScenarioDomain domain;
  domain.min_c = 1;
  domain.max_c = 49;
  domain.min_lifespan = 3;
  domain.max_lifespan = 301;
  domain.max_interrupts = 3;
  sim::ScenarioGenerator gen(domain, 0x51D3);

  const int cases = fuzz_cases(200);
  for (int i = 0; i < cases; ++i) {
    const sim::ScenarioSpec spec = gen.next();
    const Ticks n = spec.lifespan;
    const Ticks c = spec.params.c;
    const int max_q = std::max(1, spec.max_interrupts);
    const std::vector<Ticks> ref = solve_reference(max_q, n, spec.params).slab();
    ASSERT_EQ(solve_fast(max_q, n, spec.params).slab(), ref)
        << "loss set, case " << i << " c=" << c;
    std::vector<Ticks> prev = level_zero(n, c);
    const std::vector<Ticks> zero(static_cast<std::size_t>(n) + 1, 0);
    for (int q = 1; q <= max_q; ++q) {
      const auto want = std::span<const Ticks>(ref).subspan(
          static_cast<std::size_t>(q) * prev.size(), prev.size());
      const auto legacy = fill_with(SolverKernel::kLegacy, zero, prev, c);
      ASSERT_TRUE(std::equal(legacy.begin(), legacy.end(), want.begin()))
          << "legacy, case " << i << " q=" << q << " c=" << c;
      ASSERT_EQ(legacy, fill_with(SolverKernel::kInverseScan, zero, prev, c))
          << "inverse scan, case " << i << " q=" << q << " c=" << c;
      prev = legacy;
    }
  }
}

TEST(KernelDifferential, SyntheticMonotoneTablesMatchAcrossKernels) {
  // Random prev levels that satisfy the kernel's documented invariants
  // (prev[0] = 0, non-decreasing, 1-Lipschitz) but are not V_{p−1} of any
  // contract, with c below and above the level's length.
  util::Rng rng(0xB10C);
  for (int iter = 0; iter < 200; ++iter) {
    const Ticks n = rng.uniform_int(2, 400);
    const Ticks c = rng.uniform_int(1, 60);
    std::vector<Ticks> prev(static_cast<std::size_t>(n) + 1, 0);
    for (Ticks l = 1; l <= n; ++l) {
      prev[static_cast<std::size_t>(l)] =
          prev[static_cast<std::size_t>(l - 1)] + rng.uniform_int(0, 1);
    }
    const std::vector<Ticks> zero(static_cast<std::size_t>(n) + 1, 0);
    ASSERT_EQ(fill_with(SolverKernel::kLegacy, zero, prev, c),
              fill_with(SolverKernel::kInverseScan, zero, prev, c))
        << "iter " << iter << " c=" << c << " n=" << n;
  }
}

TEST(KernelDifferential, ForcedDispatchSolvesMatchReference) {
  // Whole-solve path: force each kernel through the public dispatcher and
  // demand bit-identity with the O(P·N²) oracle.
  KernelForceGuard guard;
  for (const auto& [max_p, n, c] : std::vector<std::tuple<int, Ticks, Ticks>>{
           {3, 400, 13}, {4, 300, 1}, {2, 257, 2}, {5, 200, 64}, {3, 90, 100}}) {
    const Params params{c};
    const std::vector<Ticks> ref = solve_reference(max_p, n, params).slab();
    for (SolverKernel k : kSolveKernels) {
      force_solver_kernel(k);
      ASSERT_EQ(solve_fast(max_p, n, params).slab(), ref)
          << "kernel " << solver_kernel_name(k) << " c=" << c;
    }
  }
}

TEST(KernelDifferential, DegenerateGrids) {
  // c = 1, c >= n, n <= 1 — the boundary geometries of the scan's first
  // stores — as single levels and as whole solves (including max_p = 0 and
  // the empty lifespan range).
  for (const auto& [n, c] : std::vector<std::pair<Ticks, Ticks>>{
           {0, 1}, {0, 5}, {1, 1}, {1, 5}, {2, 1}, {3, 7}, {7, 7}, {8, 7},
           {9, 2}, {257, 1}, {300, 299}, {300, 300}, {300, 301}}) {
    const std::vector<Ticks> prev = level_zero(n, c);
    const std::vector<Ticks> zero(static_cast<std::size_t>(n) + 1, 0);
    ASSERT_EQ(fill_with(SolverKernel::kLegacy, zero, prev, c),
              fill_with(SolverKernel::kInverseScan, zero, prev, c))
        << "n=" << n << " c=" << c;
  }
  for (const auto& [max_p, n, c] : std::vector<std::tuple<int, Ticks, Ticks>>{
           {0, 0, 1}, {0, 10, 3}, {3, 0, 4}, {2, 1, 1}, {4, 5, 9}, {1, 64, 1}}) {
    ASSERT_EQ(solve_fast(max_p, n, Params{c}).slab(),
              solve_reference(max_p, n, Params{c}).slab())
        << "p=" << max_p << " n=" << n << " c=" << c;
  }
}

// ---------------------------------------------------------------------------
// Write contract of run_fill_kernel
// ---------------------------------------------------------------------------

TEST(KernelContract, GarbageInRangeGivesTheZeroedRangeResult) {
  // Every cell of [1, n] is written before anything reads it: pre-filling
  // the level with garbage must not change the filled level. solve_fast
  // relies on this to skip the slab's zero pass.
  util::Rng rng(0x6A5B);
  for (int iter = 0; iter < 120; ++iter) {
    const Ticks n = rng.uniform_int(1, 300);
    const Ticks c = rng.uniform_int(1, 40);
    const std::vector<Ticks> zero(static_cast<std::size_t>(n) + 1, 0);
    const std::vector<Ticks> prev =
        fill_with(SolverKernel::kLegacy, zero, level_zero(n, c), c);
    const std::vector<Ticks> want = fill_with(SolverKernel::kLegacy, zero, prev, c);
    for (SolverKernel k : kKernels) {
      std::vector<Ticks> cur = zero;
      for (Ticks l = 1; l <= n; ++l) {
        cur[static_cast<std::size_t>(l)] = rng.uniform_int(-1000, 1000);
      }
      run_fill_kernel(k, cur, prev, c);
      ASSERT_EQ(cur, want) << "kernel " << solver_kernel_name(k) << " n=" << n
                           << " c=" << c;
    }
  }
}

/// A level of `values.size()` cells placed between two runs of kPad
/// sentinels, so a stray write just outside the level is visible without a
/// sanitizer.
struct PaddedLevel {
  static constexpr Ticks kSentinel = std::numeric_limits<Ticks>::min();
  static constexpr std::size_t kPad = 64;

  explicit PaddedLevel(const std::vector<Ticks>& values)
      : buffer(values.size() + 2 * kPad, kSentinel) {
    std::copy(values.begin(), values.end(), buffer.begin() + kPad);
  }
  std::span<Ticks> level() { return std::span<Ticks>(buffer).subspan(kPad, size()); }
  std::size_t size() const { return buffer.size() - 2 * kPad; }
  /// True when every sentinel outside the level is intact.
  bool pads_intact() const {
    const auto intact = [](auto first, auto last) {
      return std::all_of(first, last, [](Ticks v) { return v == kSentinel; });
    };
    return intact(buffer.begin(), buffer.begin() + kPad) &&
           intact(buffer.end() - kPad, buffer.end());
  }

  std::vector<Ticks> buffer;
};

/// Random level values in [-spread, spread]: non-monotone, prev[0] != 0 —
/// every table invariant the kernels assume may be violated.
std::vector<Ticks> invalid_level(Ticks n, Ticks spread, util::Rng& rng) {
  std::vector<Ticks> level(static_cast<std::size_t>(n) + 1);
  for (Ticks& v : level) v = rng.uniform_int(-spread, spread);
  return level;
}

TEST(KernelContract, InvalidInputWritesOnlyInsideTheRange) {
  // Invariant-violating levels may produce wrong values, but never a write
  // to cur[0]: the kernel owns [1, n] and nothing else.
  util::Rng rng(0xBAD);
  for (int iter = 0; iter < 400; ++iter) {
    const Ticks n = rng.uniform_int(1, 200);
    const Ticks c = rng.uniform_int(1, 30);
    const Ticks spread = rng.uniform_int(1, 3) == 1 ? 2 * n : 3;
    const std::vector<Ticks> prev = invalid_level(n, spread, rng);
    const std::vector<Ticks> cur = invalid_level(n, spread, rng);
    for (SolverKernel k : kKernels) {
      const std::vector<Ticks> level = fill_with(k, cur, prev, c);
      ASSERT_EQ(level[0], cur[0])
          << "kernel " << solver_kernel_name(k) << " wrote cur[0], n=" << n
          << " c=" << c;
    }
  }
}

TEST(KernelContract, WritesStayInsideTheLevelSpan) {
  // The level is a subspan of a sentinel-padded buffer. On valid and on
  // invariant-violating input, both kernels leave every sentinel and cur[0]
  // as they found them. prev stays an exact-size vector, so a stray read
  // past it hits a heap redzone under ASan instead of a pad.
  util::Rng rng(0x5E7);
  for (int iter = 0; iter < 300; ++iter) {
    const Ticks n = rng.uniform_int(0, 200);
    const Ticks c = rng.uniform_int(1, 40);
    const bool valid = iter % 2 == 0;
    const Ticks spread = rng.uniform_int(1, 3) == 1 ? 2 * n + 1 : 3;
    const std::vector<Ticks> prev =
        valid ? level_zero(n, c) : invalid_level(n, spread, rng);
    // Valid input may still hold garbage in [1, n]; only cur[0] must be 0.
    std::vector<Ticks> cur_values = invalid_level(n, spread, rng);
    if (valid) cur_values[0] = 0;
    for (SolverKernel k : kKernels) {
      PaddedLevel cur(cur_values);
      run_fill_kernel(k, cur.level(), prev, c);
      ASSERT_TRUE(cur.pads_intact())
          << "kernel " << solver_kernel_name(k) << " wrote outside the level, n="
          << n << " c=" << c << (valid ? " valid" : " invalid");
      ASSERT_EQ(cur.level()[0], cur_values[0])
          << "kernel " << solver_kernel_name(k) << " wrote cur[0], n=" << n
          << " c=" << c << (valid ? " valid" : " invalid");
    }
  }
}

TEST(KernelDifferential, EveryLevelLengthIsAPrefixOfTheLongestFill) {
  // V_p(l) depends only on lifespans up to l: filling a level of every
  // length 1..N from prefix spans of prev must give the prefix of the
  // length-N fill. This crosses every boundary of the scan's last store
  // (n − c = 0, 1, 2, ... and c >= n).
  for (const auto& [n, c] : std::vector<std::pair<Ticks, Ticks>>{
           {200, 1}, {300, 7}, {257, 64}, {90, 100}}) {
    std::vector<Ticks> prev = level_zero(n, c);
    for (int q = 1; q <= 3; ++q) {
      const std::vector<Ticks> zero(prev.size(), 0);
      const std::vector<Ticks> whole = fill_with(SolverKernel::kLegacy, zero, prev, c);
      for (SolverKernel k : kKernels) {
        for (Ticks len = 1; len <= n; ++len) {
          const auto cells = static_cast<std::size_t>(len) + 1;
          std::vector<Ticks> cur(cells, 0);
          run_fill_kernel(k, cur, std::span<const Ticks>(prev).first(cells), c);
          ASSERT_TRUE(std::equal(cur.begin(), cur.end(), whole.begin()))
              << "kernel " << solver_kernel_name(k) << " n=" << n << " c=" << c
              << " q=" << q << " len=" << len;
        }
      }
      prev = whole;
    }
  }
}

TEST(KernelContract, LossSetFillsNoDenseLevel) {
  std::vector<Ticks> cur(9, 0);
  const std::vector<Ticks> prev = level_zero(8, 2);
  EXPECT_THROW(run_fill_kernel(SolverKernel::kLossSet, cur, prev, 2),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Loss sets
// ---------------------------------------------------------------------------

/// The flats of a dense level: the L >= 1 with level[L] == level[L − 1].
std::vector<Ticks> flats_of(std::span<const Ticks> level) {
  std::vector<Ticks> flats;
  for (std::size_t l = 1; l < level.size(); ++l) {
    if (level[l] == level[l - 1]) flats.push_back(static_cast<Ticks>(l));
  }
  return flats;
}

TEST(LossSet, EveryLevelMatchesTheDenseFillsFlats) {
  // next_loss_set on the flat lists alone, level after level, against the
  // flats of the legacy fill, on random grids with c below and above N.
  util::Rng rng(0x1055);
  for (int iter = 0; iter < fuzz_cases(200); ++iter) {
    const Ticks n = rng.uniform_int(0, 3000);
    const Ticks c = rng.uniform_int(1, 80);
    std::vector<Ticks> dense = level_zero(n, c);
    std::vector<Ticks> flats = flats_of(dense);
    std::vector<Ticks> next;
    for (int q = 1; q <= 6; ++q) {
      const std::vector<Ticks> zero(dense.size(), 0);
      dense = fill_with(SolverKernel::kLegacy, zero, dense, c);
      next_loss_set(flats, c, n, next);
      ASSERT_EQ(next, flats_of(dense)) << "iter " << iter << " q=" << q << " n=" << n
                                       << " c=" << c;
      std::swap(flats, next);
    }
  }
}

TEST(LossSet, LevelOneMatchesTheClosedFormAtPaperScale) {
  // W(1)[U] = U − |Z_1 ∩ [1, U]| against §5.2's closed form, on the flat
  // list alone (no table): |Z_1| is about √(2cU), so U = 2^33 costs a few
  // hundred thousand flats, not 2^33 cells.
  for (const Ticks c : {Ticks{1}, Ticks{3}, Ticks{16}, Ticks{64}, Ticks{1000}}) {
    for (const Ticks u : {Ticks{1000}, Ticks{1} << 16, (Ticks{1} << 20) + 7,
                          (Ticks{1} << 27) - 1, Ticks{1} << 33}) {
      std::vector<Ticks> level0;
      for (Ticks l = 1; l <= std::min(c, u); ++l) level0.push_back(l);
      std::vector<Ticks> level1;
      next_loss_set(level0, c, u, level1);
      const Params params{c};
      EXPECT_EQ(u - static_cast<Ticks>(level1.size()),
                guaranteed_work_p1(optimal_p1_schedule(u, params).schedule, u, params))
          << "U=" << u << " c=" << c;
    }
  }
}

}  // namespace
}  // namespace nowsched::solver
