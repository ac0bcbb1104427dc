// The production W(p)[L] solver — the loss-set recurrence, which builds each
// level's flats without a dense pass — and the two dense level-fill kernels
// kept as its oracles: an O(N) inverse scan and an O(N·log N) legacy binary
// search.
//
// Dense kernels. For t in [c, L] write
//   A(t) = (t − c) + V_p(L − t)   — non-decreasing in t (V_p is 1-Lipschitz),
//   B(t) = V_{p−1}(L − t)         — non-increasing in t.
// max_t min(A, B) is attained adjacent to the A/B crossover. Period lengths
// t < c contribute exactly V_p(L − t) <= V_p(L − 1) and t = 1 attains
// V_p(L − 1) (the adversary never spends an interrupt on an unproductive
// period), so
//   V_p(L) = max( V_p(L − 1),  max_{t in [c, L]} min(A, B) ).
// The legacy kernel binary-searches the crossover per lifespan. The inverse
// scan uses that, under the table invariants, the crossover alone decides
// the value: V_p(L) = V_{p−1}(k(L − c)) for a crossover index k that is
// monotone in L, so it walks k forward and writes each V_{p−1}(k) into the
// lifespans whose crossover is k (fill_level_inverse in fast_solver.cpp).
//
// Loss sets. Let Z_p = {L >= 1 : W(p)[L] = W(p)[L−1]} be level p's flats
// and F_p(j) = |Z_p ∩ [1, j]|, so W(p)[L] = L − F_p(L). Substituting this
// into the inverse scan's V_p(L) = V_{p−1}(k(L − c)) gives
//   Z_0 = {1..c},
//   Z_p = {1..c} ∪ { c + j + F_p(j) − F_{p−1}(j) − [j ∉ Z_{p−1}] : j ∈ Z_p },
// and F_{p−1}(j) + [j ∉ Z_{p−1}] = F_{p−1}(j − 1) + 1, so the i-th flat
// (0-based) yields flat c + i = c + i + 1 + W(p−1)[flat_i − 1]. One forward
// pass that reads the list it writes, c entries behind, and reads W(p−1)
// through level p − 1's rank reader builds the level in O(|Z_p|): about
// a_p·√(2cU) flats instead of U cells (DESIGN.md §5.2). The flats are
// exactly what the value table stores.
//
// All three are bit-identical and cross-checked by
// tests/solver_kernel_test.cpp, the cross-check grids and the conformance
// fuzzer.
#pragma once

#include <span>
#include <vector>

#include "solver/value_table.h"

namespace nowsched::solver {

/// The solver kernels. All produce bit-identical tables; they differ only
/// in speed.
enum class SolverKernel {
  kLegacy,       ///< dense per-lifespan binary search (the in-tree reference
                 ///< and the E10 speedup baseline)
  kInverseScan,  ///< dense forward pass writing V_p(L) = V_{p−1}(k(L − c))
  kLossSet,      ///< the production solve: flats from the loss-set
                 ///< recurrence, no dense level at all
};

/// Stable lower-case name ("legacy", "inverse-scan", "loss-set") for bench
/// and DESIGN reporting.
const char* solver_kernel_name(SolverKernel kernel) noexcept;

/// The kernel solve_fast will use right now: a force_solver_kernel()
/// override if one is set (tests and benches pin kLegacy as the
/// reference), else kLossSet.
SolverKernel active_solver_kernel() noexcept;

/// Pins active_solver_kernel() to `kernel` until clear_forced_solver_kernel.
/// Not synchronized against concurrent solves — flip it only between solves.
void force_solver_kernel(SolverKernel kernel) noexcept;
void clear_forced_solver_kernel() noexcept;

/// Fills one whole dense level with an explicit level-fill kernel (kLegacy
/// or kInverseScan; kLossSet fills no dense level and throws
/// std::invalid_argument):
///   cur[l] = max( crossover_best(l), cur[l − 1] )   for l in [1, cur.size()).
/// Requires c >= 1, cur.size() == prev.size(), and the table invariants
/// (prev non-decreasing and 1-Lipschitz with prev[0] == cur[0] == 0 — true
/// of every V_{p−1}). Every cell but cur[0] is written before it is read,
/// so the level may hold garbage on entry. Whatever the input, nothing
/// outside the spans is read and nothing outside [1, cur.size()) is
/// written. Exposed for the differential battery and the benches; a forced
/// dense solve_fast fills each level with one call.
void run_fill_kernel(SolverKernel kernel, std::span<Ticks> cur,
                     std::span<const Ticks> prev, Ticks c);

/// One step of the loss-set recurrence: replaces `flats` with Z_p ∩
/// [1, max_lifespan], given `prev_flats` = Z_{p−1} ∩ [1, max_lifespan] in
/// increasing order (Z_0 = {1..min(c, max_lifespan)}). Then
/// W(p)[L] = L − |Z_p ∩ [1, L]|. Needs no table, so it runs at any
/// max_lifespan >= 0; its cost is O(|Z_p| + |Z_{p−1}|). Requires c >= 1.
void next_loss_set(std::span<const Ticks> prev_flats, Ticks c, Ticks max_lifespan,
                   std::vector<Ticks>& flats);

/// Solves W(p)[L] for all p in [0, max_p], L in [0, max_lifespan]. The
/// kernel is resolved once per call via active_solver_kernel(). kLossSet
/// hands each level's flats straight to the table; a forced dense kernel
/// fills level 0 in closed form and every later level with one
/// run_fill_kernel pass into scratch, then compresses it. Every kernel
/// yields a bit-identical table.
ValueTable solve_fast(int max_p, Ticks max_lifespan, const Params& params);

}  // namespace nowsched::solver
