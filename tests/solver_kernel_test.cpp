// Level-fill kernel differential: the production inverse scan must be
// bit-identical to the legacy binary search and to the O(P·N²) reference on
// generated scenarios, ragged partial ranges (c-wide blocks included),
// c = 1, lifespans below c, degenerate grids and forced-kernel whole solves
// — plus the write contract of run_fill_kernel (every cell of [lo, hi)
// written, nothing outside it).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/scenario_gen.h"
#include "solver/fast_solver.h"
#include "solver/reference_solver.h"
#include "util/parse.h"
#include "util/rng.h"

namespace nowsched::solver {
namespace {

constexpr SolverKernel kKernels[] = {SolverKernel::kLegacy,
                                     SolverKernel::kInverseScan};

/// Restores the un-forced dispatch state however a test exits.
struct KernelForceGuard {
  ~KernelForceGuard() { clear_forced_solver_kernel(); }
};

int fuzz_cases(int fallback) {
  const char* env = std::getenv("NOWSCHED_FUZZ_CASES");
  if (env == nullptr || *env == '\0') return fallback;
  const auto v = util::parse_int64(env);
  if (!v || *v < 1 || *v > std::numeric_limits<int>::max()) {
    throw std::runtime_error(
        "NOWSCHED_FUZZ_CASES must be a positive int-range integer, got '" +
        std::string(env) + "'");
  }
  return static_cast<int>(*v);
}

std::vector<Ticks> level_zero(Ticks n, Ticks c) {
  std::vector<Ticks> level(static_cast<std::size_t>(n) + 1);
  for (Ticks l = 0; l <= n; ++l) {
    level[static_cast<std::size_t>(l)] = positive_sub(l, c);
  }
  return level;
}

/// Fills one level over [lo, hi) with `kernel` on a fresh copy of `cur0`,
/// returning the filled level.
std::vector<Ticks> fill_with(SolverKernel kernel, const std::vector<Ticks>& cur0,
                             const std::vector<Ticks>& prev, Ticks lo, Ticks hi,
                             Ticks c) {
  std::vector<Ticks> cur = cur0;
  run_fill_kernel(kernel, cur, prev, lo, hi, c);
  return cur;
}

/// Fills a whole level [1, n] as consecutive ragged ranges whose lengths are
/// drawn from [1, max_len] — short ranges whose reads reach back into the
/// earlier ranges' writes, and longer ones when max_len > c.
std::vector<Ticks> fill_ragged(SolverKernel kernel, const std::vector<Ticks>& prev,
                               Ticks c, Ticks max_len, util::Rng& rng) {
  const Ticks n = static_cast<Ticks>(prev.size()) - 1;
  std::vector<Ticks> cur(prev.size(), 0);
  for (Ticks lo = 1; lo <= n;) {
    const Ticks hi = std::min<Ticks>(n + 1, lo + rng.uniform_int(1, max_len));
    run_fill_kernel(kernel, cur, prev, lo, hi, c);
    lo = hi;
  }
  return cur;
}

/// Fills a whole level [1, n] in c-wide blocks [1 + b·c, 1 + (b+1)·c): each
/// block reads only cells below its own start.
std::vector<Ticks> fill_blocks(SolverKernel kernel, const std::vector<Ticks>& prev,
                               Ticks c) {
  const Ticks n = static_cast<Ticks>(prev.size()) - 1;
  std::vector<Ticks> cur(prev.size(), 0);
  for (Ticks lo = 1; lo <= n; lo += c) {
    run_fill_kernel(kernel, cur, prev, lo, std::min(n + 1, lo + c), c);
  }
  return cur;
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

TEST(KernelDispatch, NamesAreStable) {
  EXPECT_STREQ(solver_kernel_name(SolverKernel::kLegacy), "legacy");
  EXPECT_STREQ(solver_kernel_name(SolverKernel::kInverseScan), "inverse-scan");
}

TEST(KernelDispatch, AutoNeverPicksLegacy) {
  KernelForceGuard guard;
  clear_forced_solver_kernel();
  EXPECT_EQ(active_solver_kernel(), SolverKernel::kInverseScan);
}

TEST(KernelDispatch, ForceAndClear) {
  KernelForceGuard guard;
  for (SolverKernel k : kKernels) {
    force_solver_kernel(k);
    EXPECT_EQ(active_solver_kernel(), k);
  }
  clear_forced_solver_kernel();
  EXPECT_EQ(active_solver_kernel(), SolverKernel::kInverseScan);
}

// ---------------------------------------------------------------------------
// Differential battery
// ---------------------------------------------------------------------------

TEST(KernelDifferential, GeneratedScenariosBitIdenticalAcrossKernels) {
  // NOWSCHED_FUZZ_CASES generated scenarios. Per scenario, every level is
  // built by the legacy kernel over the whole range, by the inverse scan
  // over the whole range, in c-wide blocks and in ragged ranges up to 3c
  // long, and all four must match the O(P·N²) reference entry-for-entry.
  sim::ScenarioDomain domain;
  domain.min_c = 1;
  domain.max_c = 49;
  domain.min_lifespan = 3;
  domain.max_lifespan = 301;
  domain.max_interrupts = 3;
  sim::ScenarioGenerator gen(domain, 0x51D3);
  util::Rng rng(0x7A6);

  const int cases = fuzz_cases(200);
  for (int i = 0; i < cases; ++i) {
    const sim::ScenarioSpec spec = gen.next();
    const Ticks n = spec.lifespan;
    const Ticks c = spec.params.c;
    const int max_q = std::max(1, spec.max_interrupts);
    const ValueTable ref = solve_reference(max_q, n, spec.params);
    std::vector<Ticks> prev = level_zero(n, c);
    const std::vector<Ticks> zero(static_cast<std::size_t>(n) + 1, 0);
    for (int q = 1; q <= max_q; ++q) {
      const std::span<const Ticks> want = ref.level(q);
      const auto legacy = fill_with(SolverKernel::kLegacy, zero, prev, 1, n + 1, c);
      ASSERT_TRUE(std::equal(legacy.begin(), legacy.end(), want.begin()))
          << "legacy, case " << i << " q=" << q << " c=" << c;
      ASSERT_EQ(legacy, fill_with(SolverKernel::kInverseScan, zero, prev, 1, n + 1, c))
          << "whole range, case " << i << " q=" << q << " c=" << c;
      ASSERT_EQ(legacy, fill_blocks(SolverKernel::kInverseScan, prev, c))
          << "c-wide blocks, case " << i << " q=" << q << " c=" << c;
      ASSERT_EQ(legacy, fill_ragged(SolverKernel::kInverseScan, prev, c, 3 * c, rng))
          << "ragged ranges, case " << i << " q=" << q << " c=" << c;
      prev = legacy;
    }
  }
}

TEST(KernelDifferential, SyntheticMonotoneTablesAndPartialRanges) {
  // Random prev levels that satisfy the kernel's documented invariants
  // (prev[0] = 0, non-decreasing, 1-Lipschitz) but are not V_{p−1} of any
  // contract, filled by both kernels in ragged partial ranges — including
  // single-lifespan ranges and ranges shorter and longer than c.
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
    const auto legacy = fill_with(SolverKernel::kLegacy, zero, prev, 1, n + 1, c);
    for (SolverKernel k : kKernels) {
      ASSERT_EQ(legacy, fill_ragged(k, prev, c, 2 * c, rng))
          << "iter " << iter << " c=" << c << " n=" << n << " kernel "
          << solver_kernel_name(k);
    }
    ASSERT_EQ(legacy, fill_with(SolverKernel::kInverseScan, zero, prev, 1, n + 1, c))
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
    const auto ref = solve_reference(max_p, n, params);
    for (SolverKernel k : kKernels) {
      force_solver_kernel(k);
      const auto fast = solve_fast(max_p, n, params);
      ASSERT_TRUE(std::equal(fast.slab().begin(), fast.slab().end(),
                             ref.slab().begin()))
          << "kernel " << solver_kernel_name(k) << " c=" << c;
    }
  }
}

TEST(KernelDifferential, DegenerateGrids) {
  // c = 1, c >= n, n = 1 — the boundary geometries where blocked scans
  // historically break — as single levels and as whole solves (including
  // max_p = 0 and the empty lifespan range).
  for (const auto& [n, c] : std::vector<std::pair<Ticks, Ticks>>{
           {1, 1}, {1, 5}, {2, 1}, {3, 7}, {7, 7}, {8, 7}, {9, 2}, {257, 1},
           {300, 299}, {300, 300}, {300, 301}}) {
    const std::vector<Ticks> prev = level_zero(n, c);
    const std::vector<Ticks> zero(static_cast<std::size_t>(n) + 1, 0);
    ASSERT_EQ(fill_with(SolverKernel::kLegacy, zero, prev, 1, n + 1, c),
              fill_with(SolverKernel::kInverseScan, zero, prev, 1, n + 1, c))
        << "n=" << n << " c=" << c;
  }
  for (const auto& [max_p, n, c] : std::vector<std::tuple<int, Ticks, Ticks>>{
           {0, 0, 1}, {0, 10, 3}, {3, 0, 4}, {2, 1, 1}, {4, 5, 9}, {1, 64, 1}}) {
    const auto ref = solve_reference(max_p, n, Params{c});
    const auto fast = solve_fast(max_p, n, Params{c});
    ASSERT_TRUE(std::equal(fast.slab().begin(), fast.slab().end(),
                           ref.slab().begin(), ref.slab().end()))
        << "p=" << max_p << " n=" << n << " c=" << c;
  }
}

// ---------------------------------------------------------------------------
// Write contract of run_fill_kernel
// ---------------------------------------------------------------------------

TEST(KernelContract, GarbageInRangeGivesTheZeroedRangeResult) {
  // Every cell of [lo, hi) is written before anything reads it: pre-filling
  // the range with garbage must not change the filled level. solve_fast
  // relies on this to skip the slab's zero pass.
  util::Rng rng(0x6A5B);
  for (int iter = 0; iter < 120; ++iter) {
    const Ticks n = rng.uniform_int(1, 300);
    const Ticks c = rng.uniform_int(1, 40);
    const std::vector<Ticks> prev = fill_with(
        SolverKernel::kLegacy, std::vector<Ticks>(static_cast<std::size_t>(n) + 1, 0),
        level_zero(n, c), 1, n + 1, c);
    const std::vector<Ticks> want =
        fill_with(SolverKernel::kLegacy,
                  std::vector<Ticks>(static_cast<std::size_t>(n) + 1, 0), prev,
                  1, n + 1, c);
    const Ticks lo = rng.uniform_int(1, n);
    const Ticks hi = rng.uniform_int(lo, n + 1);
    for (SolverKernel k : kKernels) {
      // Cells below lo are final input; [lo, hi) is garbage.
      std::vector<Ticks> cur = want;
      for (Ticks l = lo; l < hi; ++l) {
        cur[static_cast<std::size_t>(l)] = rng.uniform_int(-1000, 1000);
      }
      run_fill_kernel(k, cur, prev, lo, hi, c);
      ASSERT_TRUE(std::equal(cur.begin(), cur.begin() + hi, want.begin()))
          << "kernel " << solver_kernel_name(k) << " n=" << n << " c=" << c
          << " [" << lo << ", " << hi << ")";
    }
  }
}

TEST(KernelContract, InvalidInputWritesOnlyInsideTheRange) {
  // Invariant-violating levels (arbitrary values, non-monotone, prev[0] !=
  // cur[0]) may produce wrong values, but never a write outside [lo, hi).
  util::Rng rng(0xBAD);
  constexpr Ticks kSentinel = std::numeric_limits<Ticks>::min();
  for (int iter = 0; iter < 400; ++iter) {
    const Ticks n = rng.uniform_int(1, 200);
    const Ticks c = rng.uniform_int(1, 30);
    const Ticks spread = rng.uniform_int(1, 3) == 1 ? 2 * n : 3;
    std::vector<Ticks> prev(static_cast<std::size_t>(n) + 1);
    std::vector<Ticks> cur(static_cast<std::size_t>(n) + 1);
    for (Ticks l = 0; l <= n; ++l) {
      prev[static_cast<std::size_t>(l)] = rng.uniform_int(-spread, spread);
      cur[static_cast<std::size_t>(l)] = rng.uniform_int(-spread, spread);
    }
    const Ticks lo = rng.uniform_int(1, n);
    const Ticks hi = rng.uniform_int(lo, n + 1);
    for (SolverKernel k : kKernels) {
      std::vector<Ticks> level = cur;
      for (Ticks l = hi; l <= n; ++l) level[static_cast<std::size_t>(l)] = kSentinel;
      run_fill_kernel(k, level, prev, lo, hi, c);
      for (Ticks l = 0; l < lo; ++l) {
        ASSERT_EQ(level[static_cast<std::size_t>(l)], cur[static_cast<std::size_t>(l)])
            << "kernel " << solver_kernel_name(k) << " wrote below lo at " << l;
      }
      for (Ticks l = hi; l <= n; ++l) {
        ASSERT_EQ(level[static_cast<std::size_t>(l)], kSentinel)
            << "kernel " << solver_kernel_name(k) << " wrote at or above hi at " << l;
      }
    }
  }
}

TEST(KernelContract, EmptyRangeWritesNothing) {
  // lo == hi is a valid range at every lo in [1, n + 1]: no cell changes.
  const Ticks n = 120, c = 9;
  const std::vector<Ticks> prev = level_zero(n, c);
  std::vector<Ticks> cur0(static_cast<std::size_t>(n) + 1);
  for (Ticks l = 0; l <= n; ++l) cur0[static_cast<std::size_t>(l)] = 1000 + l;
  cur0[0] = 0;
  for (SolverKernel k : kKernels) {
    for (Ticks lo = 1; lo <= n + 1; ++lo) {
      ASSERT_EQ(fill_with(k, cur0, prev, lo, lo, c), cur0)
          << "kernel " << solver_kernel_name(k) << " lo=" << lo;
    }
  }
}

TEST(KernelDifferential, SingleLifespanRangesMatchWholeRange) {
  // The finest split: a level filled one lifespan per call, every call
  // re-seeding from the cells the previous calls wrote, must equal the
  // one-call fill — across c = 1, c below and above the level's length.
  for (const auto& [n, c] : std::vector<std::pair<Ticks, Ticks>>{
           {200, 1}, {300, 7}, {257, 64}, {90, 100}}) {
    std::vector<Ticks> prev = level_zero(n, c);
    for (int q = 1; q <= 3; ++q) {
      const std::vector<Ticks> zero(prev.size(), 0);
      const std::vector<Ticks> whole =
          fill_with(SolverKernel::kLegacy, zero, prev, 1, n + 1, c);
      for (SolverKernel k : kKernels) {
        std::vector<Ticks> cur = zero;
        for (Ticks lo = 1; lo <= n; ++lo) run_fill_kernel(k, cur, prev, lo, lo + 1, c);
        ASSERT_EQ(cur, whole) << "kernel " << solver_kernel_name(k) << " n=" << n
                              << " c=" << c << " q=" << q;
      }
      prev = whole;
    }
  }
}

// ---------------------------------------------------------------------------
// Slab alignment
// ---------------------------------------------------------------------------

TEST(ValueTableSlab, OwningSlabIsVectorAligned) {
  for (const auto& [p, n] : std::vector<std::pair<int, Ticks>>{
           {0, 0}, {1, 7}, {3, 1000}, {5, 4097}}) {
    const ValueTable table(p, n, Params{8});
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(table.slab().data()) %
                  kSlabAlignment,
              0u)
        << "p=" << p << " n=" << n;
    const ValueTable raw(p, n, Params{8}, ValueTable::kUninitialized);
    EXPECT_EQ(raw.slab().size(), table.slab().size());
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(raw.slab().data()) % kSlabAlignment,
              0u)
        << "p=" << p << " n=" << n;
  }
}

}  // namespace
}  // namespace nowsched::solver
