// Crossover solver for W(p)[L] — an O(P·N) inverse-scan kernel with an
// O(P·N·log N) legacy kernel kept as an in-tree reference.
//
// For t in [c, L] write
//   A(t) = (t − c) + V_p(L − t)   — non-decreasing in t (V_p is 1-Lipschitz),
//   B(t) = V_{p−1}(L − t)         — non-increasing in t.
// max_t min(A, B) is attained adjacent to the A/B crossover. Period lengths
// t < c contribute exactly V_p(L − t) <= V_p(L − 1) and t = 1 attains
// V_p(L − 1) (the adversary never spends an interrupt on an unproductive
// period), so
//   V_p(L) = max( V_p(L − 1),  max_{t in [c, L]} min(A, B) ).
//
// The legacy kernel binary-searches the crossover per lifespan. The
// production kernel uses that, under the table invariants, the crossover
// alone decides the value: V_p(L) = V_{p−1}(k(L − c)) for a crossover index
// k that is monotone in L. So it never searches at all — it walks k forward
// and writes each V_{p−1}(k) into the lifespans whose crossover is k (the
// derivation is at fill_level_inverse in fast_solver.cpp and in DESIGN.md
// §5.2). Both kernels are bit-identical and cross-checked by
// tests/solver_kernel_test.cpp and the conformance fuzzer.
#pragma once

#include <span>

#include "solver/value_table.h"

namespace nowsched::solver {

/// The level-fill kernels. Both produce bit-identical tables; they differ
/// only in speed.
enum class SolverKernel {
  kLegacy,       ///< per-lifespan binary search (kept as the in-tree
                 ///< reference and the E10 speedup baseline)
  kInverseScan,  ///< the production kernel: one forward pass writing
                 ///< V_p(L) = V_{p−1}(k(L − c)) (see fast_solver.cpp)
};

/// Stable lower-case name ("legacy", "inverse-scan") for bench and
/// DESIGN reporting.
const char* solver_kernel_name(SolverKernel kernel) noexcept;

/// The kernel solve_fast will use right now: a force_solver_kernel()
/// override if one is set (tests and benches pin kLegacy as the
/// reference), else kInverseScan.
SolverKernel active_solver_kernel() noexcept;

/// Pins active_solver_kernel() to `kernel` until clear_forced_solver_kernel.
/// Not synchronized against concurrent solves — flip it only between solves.
void force_solver_kernel(SolverKernel kernel) noexcept;
void clear_forced_solver_kernel() noexcept;

/// Fills one whole level with an explicit kernel:
///   cur[l] = max( crossover_best(l), cur[l − 1] )   for l in [1, cur.size()).
/// Requires c >= 1, cur.size() == prev.size(), and the table invariants
/// (prev non-decreasing and 1-Lipschitz with prev[0] == cur[0] == 0 — true
/// of every V_{p−1}). Every cell but cur[0] is written before it is read,
/// so the level may hold garbage on entry. Whatever the input, nothing
/// outside the spans is read and nothing outside [1, cur.size()) is
/// written. Exposed for the differential battery and the benches;
/// solve_fast fills each level with one call.
void run_fill_kernel(SolverKernel kernel, std::span<Ticks> cur,
                     std::span<const Ticks> prev, Ticks c);

/// Fills W(p)[L] for all p in [0, max_p], L in [0, max_lifespan]: level 0
/// in closed form, then one run_fill_kernel pass per level. The level-fill
/// kernel is resolved once per call via active_solver_kernel(); every
/// kernel yields a bit-identical table.
ValueTable solve_fast(int max_p, Ticks max_lifespan, const Params& params);

}  // namespace nowsched::solver
