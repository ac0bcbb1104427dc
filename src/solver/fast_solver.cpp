#include "solver/fast_solver.h"

#include <algorithm>
#include <atomic>
#include <span>

namespace nowsched::solver {

namespace {

/// max_{t in [c, l]} min((t−c) + cur[l−t], prev[l−t]) — the legacy
/// per-lifespan binary search. Kept as the in-tree reference the production
/// kernel is differentially tested against (and the E10 speedup baseline).
/// Reads cur[] only at indices <= l − c. Returns 0 when l < c.
Ticks crossover_best_legacy(std::span<const Ticks> cur,
                            std::span<const Ticks> prev, Ticks l, Ticks c) {
  if (l < c) return 0;
  auto a = [&](Ticks t) {
    return (t - c) + cur[static_cast<std::size_t>(l - t)];
  };
  auto b = [&](Ticks t) { return prev[static_cast<std::size_t>(l - t)]; };

  // Binary search the last t in [c, l] with A(t) < B(t); A is non-decreasing
  // and B non-increasing, so the predicate A<B is monotone (true then false).
  Ticks lo = c, hi = l;
  if (!(a(lo) < b(lo))) {
    // Crossover at or before c: the best candidate is t = c itself.
    return std::min(a(lo), b(lo));
  }
  if (a(hi) < b(hi)) {
    // Never crosses: min is A, maximized at t = l.
    return a(hi);
  }
  while (lo + 1 < hi) {
    const Ticks mid = lo + (hi - lo) / 2;
    if (a(mid) < b(mid)) lo = mid;
    else hi = mid;
  }
  // lo: last t with A<B (min = A there); hi = lo+1: first t with A>=B.
  return std::max(a(lo), b(hi));
}

/// One fused legacy pass over lifespans [lo, hi): crossover scan + carry.
void fill_range_legacy(std::span<Ticks> cur, std::span<const Ticks> prev,
                       Ticks lo, Ticks hi, Ticks c) {
  for (Ticks l = lo; l < hi; ++l) {
    cur[static_cast<std::size_t>(l)] =
        std::max(crossover_best_legacy(cur, prev, l, c),
                 cur[static_cast<std::size_t>(l - 1)]);
  }
}

/// The production level fill over lifespans [lo, hi): an inverse scan.
///
/// Substitute j = l − t and m = l − c in the legacy search (j ∈ [0, m]):
///   crossover_best(l) = max_{0<=j<=m} min( (m − j) + cur[j], prev[j] ).
/// Let w[j] = j + prev[j] − cur[j]. Under the table invariants (cur and prev
/// non-decreasing and 1-Lipschitz, cur <= prev) w is non-decreasing, w[j] >= j,
/// and "B <= A at j" is exactly "w[j] <= m", so the crossover index
///   k(m) = max{ j : w[j] <= m }
/// is non-decreasing in m, and the legacy pair around the crossover is
///   x(m) = max( prev[k],  (m − k − 1) + cur[k + 1] ).
/// The second (A) term never wins: w[k+1] > m gives
/// (m − k − 1) + cur[k+1] < prev[k+1], so it is at most
/// prev[k+1] − 1 <= prev[k] (prev is 1-Lipschitz). Hence x(m) = prev[k(m)],
/// which is non-decreasing in m — so the carry max(x, cur[l − 1]) is
/// redundant too, and
///   V_p(l) = V_{p−1}(k(l − c))          for l >= c   (0 below c).
/// Read inversely: lifespans [w[j] + c, w[j+1] + c) all take prev[j]. Walk
/// j forward. w[j+1] − w[j] = 1 + Δprev − Δcur ∈ {0, 1, 2}, so two
/// unconditional stores at w[j] + c and w[j] + c + 1 cover every lifespan,
/// and a later j overwrites whichever of them is not its predecessor's.
/// Step j reads cur[j], which the steps j' <= j − c finished writing.
///
/// Per j: two sequential loads, two stores, one well-predicted branch —
/// no data-dependent load, and no binary search past the seed.
///
/// Bounds: the seed k(l0 − c) is binary-searched over indices < lo; the walk
/// reads j < hi − c; every store is clipped to [lo, hi) whatever the input,
/// so an invariant-violating table can yield wrong values but never a write
/// outside the range or a read outside the spans.
void fill_range_inverse(std::span<Ticks> cur_span, std::span<const Ticks> prev_span,
                        Ticks lo, Ticks hi, Ticks c) {
  Ticks* const cur = cur_span.data();
  const Ticks* const prev = prev_span.data();
  // Lifespans below c complete no period.
  const Ticks l0 = std::clamp(c, lo, hi);
  std::fill(cur + lo, cur + l0, Ticks{0});
  if (l0 < hi) {
    auto w = [&](Ticks j) { return j + prev[j] - cur[j]; };
    // Seed: k(m0) = the last j in [0, m0] with w(j) <= m0. w(0) = 0 on
    // valid tables; on invalid ones the search still lands in [0, m0].
    const Ticks m0 = l0 - c;
    Ticks a = 0, b = m0 + 1;  // w(a) <= m0 < w(b); w(m0 + 1) >= m0 + 1
    while (a + 1 < b) {
      const Ticks mid = a + (b - a) / 2;
      (w(mid) <= m0 ? a : b) = mid;
    }
    cur[l0] = prev[a];
    if (l0 + 1 < hi) cur[l0 + 1] = prev[a];
    const Ticks j_end = hi - c;
    for (Ticks j = a + 1; j < j_end; ++j) {
      const Ticks at = w(j) + c;
      const Ticks v = prev[j];
      if (at < l0 || at + 1 >= hi) [[unlikely]] {
        if (at == hi - 1) cur[at] = v;
        if (at >= hi - 1) break;
        continue;  // at < l0: only an invariant-violating table gets here
      }
      cur[at] = v;
      cur[at + 1] = v;
    }
  }
}

/// -1 = no force; otherwise the forced kernel's enum value.
std::atomic<int> g_forced_kernel{-1};

}  // namespace

const char* solver_kernel_name(SolverKernel kernel) noexcept {
  switch (kernel) {
    case SolverKernel::kLegacy: return "legacy";
    case SolverKernel::kInverseScan: return "inverse-scan";
  }
  return "unknown";
}

SolverKernel active_solver_kernel() noexcept {
  const int forced = g_forced_kernel.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<SolverKernel>(forced);
  return SolverKernel::kInverseScan;
}

void force_solver_kernel(SolverKernel kernel) noexcept {
  g_forced_kernel.store(static_cast<int>(kernel), std::memory_order_relaxed);
}

void clear_forced_solver_kernel() noexcept {
  g_forced_kernel.store(-1, std::memory_order_relaxed);
}

void run_fill_kernel(SolverKernel kernel, std::span<Ticks> cur,
                     std::span<const Ticks> prev, Ticks lo, Ticks hi, Ticks c) {
  if (kernel == SolverKernel::kLegacy) {
    fill_range_legacy(cur, prev, lo, hi, c);
  } else {
    fill_range_inverse(cur, prev, lo, hi, c);
  }
}

ValueTable solve_fast(int max_p, Ticks max_lifespan, const Params& params) {
  // No zero pass: level 0 and every level's L = 0 entry are written here,
  // and the kernel writes every other cell.
  ValueTable table(max_p, max_lifespan, params, ValueTable::kUninitialized);
  const Ticks c = params.c;
  const SolverKernel kernel = active_solver_kernel();

  auto level0 = table.mutable_level(0);
  for (Ticks l = 0; l <= max_lifespan; ++l) {
    level0[static_cast<std::size_t>(l)] = positive_sub(l, c);
  }
  for (int p = 1; p <= max_p; ++p) {
    table.mutable_level(p)[0] = 0;
    run_fill_kernel(kernel, table.mutable_level(p), table.level(p - 1), 1,
                    max_lifespan + 1, c);
  }
  return table;
}

}  // namespace nowsched::solver
