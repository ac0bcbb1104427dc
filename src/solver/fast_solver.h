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
// derivation is at fill_range_inverse in fast_solver.cpp and in DESIGN.md
// §5.2). Both kernels are bit-identical and cross-checked by
// tests/solver_kernel_test.cpp and the conformance fuzzer.
//
// Parallel structure: cut every level into blocks of c consecutive
// lifespans. Within a block the kernels read V_p only at indices
// l − t <= l − c, i.e. strictly below the block start, and V_{p−1} at the
// same indices — so cell (p, b) of the (level, block) grid depends on
// exactly two cells: (p, b−1) for its own level's earlier values, and
// (p−1, b−1) for the previous level's values. solve_fast runs
// the whole grid as one task-graph wavefront on util::ThreadPool::run_dag —
// no barrier anywhere; after a one-block pipeline fill, all max_p levels
// advance concurrently. DESIGN.md "Parallel solver architecture" has the
// diagram and the measured numbers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "solver/value_table.h"
#include "util/thread_pool.h"

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

/// Runs one level-fill over lifespans [lo, hi) with an explicit kernel:
///   cur[l] = max( crossover_best(l), cur[l − 1] )   for l in [lo, hi).
/// Requires 1 <= lo <= hi <= cur.size() == prev.size(), cur/prev final below
/// lo, and the table invariants (prev non-decreasing and 1-Lipschitz with
/// prev[0] == cur[0] == 0 — true of every V_{p−1}). Writes every cell of
/// [lo, hi) and, for any input, nothing outside it. Reads stay below hi,
/// and below lo except for cells this call has already written — the
/// wavefront's (level, block) contract. When `scan_steps` is non-null the
/// kernel's step count is accumulated into it — the deterministic quantity
/// the cost model predicts (see modeled_scan_steps). Exposed for the
/// differential battery and the calibration path; solve_fast dispatches
/// through it.
void run_fill_kernel(SolverKernel kernel, std::span<Ticks> cur,
                     std::span<const Ticks> prev, Ticks lo, Ticks hi, Ticks c,
                     std::size_t* scan_steps = nullptr);

/// Modeled step count for one run_fill_kernel(kernel, …, lo, hi, c) call.
///   kLegacy:       lifespans with l < c cost O(1); the rest binary-search
///                  [c, l], ~log2(l − c) probes each — summed in closed form.
///   kInverseScan:  one step per lifespan plus the range's one-off seed
///                  search for k(lo − c).
/// Pinned against counted steps by tests/solver_kernel_test.cpp.
double modeled_scan_steps(SolverKernel kernel, Ticks c, Ticks lo, Ticks hi);

/// One calibrated scan-step cost, tagged with the kernel it was measured
/// under and how trustworthy the number is.
struct ScanCalibration {
  SolverKernel kernel = SolverKernel::kInverseScan;
  double step_ns = 0.0;
  /// "measured", or "clamped-low"/"clamped-high" when the raw measurement
  /// fell outside the plausible range for one probe (e.g. under TSan, a
  /// debugger, or heavy load) and was clamped to the nearest bound.
  const char* source = "unmeasured";
  /// Bumped on every (re)measurement — lets tests assert recalibration
  /// actually happened.
  std::uint64_t generation = 0;
};

/// The current calibration for the active kernel. Measured lazily on first
/// use and re-measured automatically whenever the active kernel changes;
/// cached otherwise. Thread-safe.
ScanCalibration scan_calibration();

/// Throws away the cached calibration and measures afresh (benches call
/// this after warm-up; tests after forcing a kernel). Returns the new
/// calibration. Thread-safe.
ScanCalibration recalibrate_scan_cost();

/// How solve_fast decides between the sequential and the wavefront path.
enum class ParallelMode {
  kAuto,            ///< engage the wavefront iff plan_wavefront() says it pays
  kForceWavefront,  ///< always take the wavefront path (tests/benches); falls
                    ///< back to sequential only when `pool` is null
  kForceSequential, ///< never parallelize, even with a pool
};

/// The engagement decision for a prospective wavefront run, with the
/// calibrated quantities that produced it — benches report these, and the
/// ROADMAP's crossover notes are written from them.
struct WavefrontPlan {
  bool engage = false;
  std::size_t num_blocks = 0;    ///< ceil(max_lifespan / c) blocks per level
  int width = 0;                 ///< max concurrent cells:
                                 ///< min(max_p, pool size, hardware threads)
  double cell_ns_estimate = 0.0; ///< modeled cost of one (p, block) cell
  double dispatch_ns = 0.0;      ///< measured per-task overhead of `pool`
  ScanCalibration calibration;   ///< the scan-step calibration the estimate
                                 ///< was built from (kernel + source)
  std::string reason;            ///< one-line why (engaged or declined),
                                 ///< including the calibration source
};

/// Decides whether the wavefront path is expected to beat sequential on this
/// grid with this pool. Auto-calibrated, not hardcoded: the per-cell work is
/// modeled from the active kernel's calibrated scan-step cost (see
/// scan_calibration — clamped, kernel-tagged, recalibratable) and compared
/// against the pool's measured per-task dispatch overhead
/// (util::ThreadPool::dispatch_overhead_ns); the DAG width min(max_p, pool,
/// hardware) must also be >= 2 — on a 1-core machine the plan therefore
/// never engages, which is the correct answer there.
WavefrontPlan plan_wavefront(int max_p, Ticks max_lifespan, const Params& params,
                             util::ThreadPool* pool);

/// Fills W(p)[L] for all p in [0, max_p], L in [0, max_lifespan].
///
/// `pool` enables the wavefront-parallel path (subject to `mode`); pass
/// nullptr for strictly serial. The pool is only used through blocking
/// run_dag calls — solve_fast returns with the table complete and all
/// worker writes visible to the caller (see util/thread_pool.h for the
/// happens-before contract). Do not call from inside a task running on the
/// same pool. The level-fill kernel is resolved once per call via
/// active_solver_kernel(); every kernel yields a bit-identical table.
ValueTable solve_fast(int max_p, Ticks max_lifespan, const Params& params,
                      util::ThreadPool* pool = nullptr,
                      ParallelMode mode = ParallelMode::kAuto);

}  // namespace nowsched::solver
