#include "solver/fast_solver.h"

#include <algorithm>
#include <atomic>
#include <span>
#include <stdexcept>
#include <vector>

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

/// One fused legacy pass over lifespans [1, cur.size()): crossover scan +
/// carry.
void fill_level_legacy(std::span<Ticks> cur, std::span<const Ticks> prev, Ticks c) {
  const Ticks n = static_cast<Ticks>(cur.size());
  for (Ticks l = 1; l < n; ++l) {
    cur[static_cast<std::size_t>(l)] =
        std::max(crossover_best_legacy(cur, prev, l, c),
                 cur[static_cast<std::size_t>(l - 1)]);
  }
}

/// The production level fill over lifespans [1, cur.size()): an inverse
/// scan.
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
/// no data-dependent load and no search. The walk starts at k(0) = 0
/// (w[0] = 0 since prev[0] = cur[0] = 0), so lifespans c and c + 1 take
/// prev[0].
///
/// Bounds: the walk reads j < n − c; every store is clipped to [c, n)
/// whatever the input, so an invariant-violating table can yield wrong
/// values but never a write outside [1, n) or a read outside the spans.
void fill_level_inverse(std::span<Ticks> cur_span, std::span<const Ticks> prev_span,
                        Ticks c) {
  Ticks* const cur = cur_span.data();
  const Ticks* const prev = prev_span.data();
  const Ticks n = static_cast<Ticks>(cur_span.size());
  // Lifespans below c complete no period.
  for (Ticks l = 1; l < std::min(c, n); ++l) cur[l] = 0;
  if (n <= c) return;
  cur[c] = prev[0];
  if (c + 1 < n) cur[c + 1] = prev[0];
  for (Ticks j = 1; j < n - c; ++j) {
    const Ticks at = j + prev[j] - cur[j] + c;
    const Ticks v = prev[j];
    if (at < c || at + 1 >= n) [[unlikely]] {
      if (at == n - 1) cur[at] = v;
      if (at >= n - 1) break;
      continue;  // at < c: only an invariant-violating table gets here
    }
    cur[at] = v;
    cur[at + 1] = v;
  }
}

/// Replaces `flats` with level p's flats in [1, max_lifespan], given
/// prev_value(L) = W(p−1)[L], which is called at rising L.
///
/// flats[c + i] = c + z + i − F_{p−1}(z − 1) for z = flats[i] (0-based i;
/// DESIGN.md §5.2), and F_{p−1}(z − 1) = (z − 1) − W(p−1)[z − 1], so
///   flats[c + i] = c + i + 1 + W(p−1)[flats[i] − 1].
/// The vector grows while the loop reads it, so index, not iterate.
template <class PrevValue>
NOWSCHED_INLINE_INTO_CLONES void grow_loss_set(const PrevValue& prev_value, Ticks c,
                                               Ticks max_lifespan,
                                               std::vector<Ticks>& flats) {
  flats.clear();
  for (Ticks l = 1; l <= std::min(c, max_lifespan); ++l) flats.push_back(l);
  for (std::size_t i = 0; i < flats.size(); ++i) {
    const Ticks next = c + static_cast<Ticks>(i) + 1 + prev_value(flats[i] - 1);
    if (next > max_lifespan) break;
    flats.push_back(next);
  }
}

/// The production solve: level 0 in closed form, then each level's flats
/// from the recurrence, reading level p − 1 through its rank reader.
NOWSCHED_POPCNT_CLONES
void solve_loss_sets(ValueTable& table, int max_p, Ticks max_lifespan, Ticks c) {
  std::vector<Ticks> flats;
  for (Ticks l = 1; l <= std::min(c, max_lifespan); ++l) flats.push_back(l);
  table.assign_flats(0, flats);
  for (int p = 1; p <= max_p; ++p) {
    // Level p − 1 is final, so its rank reader answers W(p−1)[L] in O(1).
    const ValueTable::LevelReader prev = table.reader(p - 1);
    grow_loss_set([prev](Ticks l) { return prev[l]; }, c, max_lifespan, flats);
    table.assign_flats(p, flats);
  }
}

/// -1 = no force; otherwise the forced kernel's enum value.
std::atomic<int> g_forced_kernel{-1};

}  // namespace

const char* solver_kernel_name(SolverKernel kernel) noexcept {
  switch (kernel) {
    case SolverKernel::kLegacy: return "legacy";
    case SolverKernel::kInverseScan: return "inverse-scan";
    case SolverKernel::kLossSet: return "loss-set";
  }
  return "unknown";
}

SolverKernel active_solver_kernel() noexcept {
  const int forced = g_forced_kernel.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<SolverKernel>(forced);
  return SolverKernel::kLossSet;
}

void force_solver_kernel(SolverKernel kernel) noexcept {
  g_forced_kernel.store(static_cast<int>(kernel), std::memory_order_relaxed);
}

void clear_forced_solver_kernel() noexcept {
  g_forced_kernel.store(-1, std::memory_order_relaxed);
}

void run_fill_kernel(SolverKernel kernel, std::span<Ticks> cur,
                     std::span<const Ticks> prev, Ticks c) {
  switch (kernel) {
    case SolverKernel::kLegacy: return fill_level_legacy(cur, prev, c);
    case SolverKernel::kInverseScan: return fill_level_inverse(cur, prev, c);
    case SolverKernel::kLossSet: break;
  }
  throw std::invalid_argument("run_fill_kernel: loss-set fills no dense level");
}

void next_loss_set(std::span<const Ticks> prev_flats, Ticks c, Ticks max_lifespan,
                   std::vector<Ticks>& flats) {
  // W(p−1)[L] = L − F_{p−1}(L), with F_{p−1} counted by a forward walk.
  std::size_t at_or_below = 0;
  const auto prev_value = [&](Ticks l) {
    while (at_or_below < prev_flats.size() && prev_flats[at_or_below] <= l) ++at_or_below;
    return l - static_cast<Ticks>(at_or_below);
  };
  grow_loss_set(prev_value, c, max_lifespan, flats);
}

ValueTable solve_fast(int max_p, Ticks max_lifespan, const Params& params) {
  ValueTable table(max_p, max_lifespan, params);
  const Ticks c = params.c;
  const SolverKernel kernel = active_solver_kernel();

  if (kernel == SolverKernel::kLossSet) {
    solve_loss_sets(table, max_p, max_lifespan, c);
    return table;
  }

  // A dense oracle: fill each level into scratch, then compress it.
  std::vector<Ticks> prev(static_cast<std::size_t>(max_lifespan) + 1);
  std::vector<Ticks> cur(prev.size());
  for (Ticks l = 0; l <= max_lifespan; ++l) {
    prev[static_cast<std::size_t>(l)] = positive_sub(l, c);
  }
  table.assign_level(0, prev);
  for (int p = 1; p <= max_p; ++p) {
    cur[0] = 0;
    run_fill_kernel(kernel, cur, prev, c);
    table.assign_level(p, cur);
    std::swap(prev, cur);
  }
  return table;
}

}  // namespace nowsched::solver
