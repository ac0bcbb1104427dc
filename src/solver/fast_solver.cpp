#include "solver/fast_solver.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cmath>
#include <limits>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

namespace nowsched::solver {

namespace {

/// max_{t in [c, l]} min((t−c) + cur[l−t], prev[l−t]) — the legacy
/// per-lifespan binary search. Kept as the in-tree reference the production
/// kernel is differentially tested against (and the E10 speedup baseline).
/// Reads cur[] only at indices <= l − c. Returns 0 when l < c.
Ticks crossover_best_legacy(std::span<const Ticks> cur,
                            std::span<const Ticks> prev, Ticks l, Ticks c,
                            std::size_t& probes) {
  if (l < c) {
    ++probes;
    return 0;
  }
  auto a = [&](Ticks t) {
    return (t - c) + cur[static_cast<std::size_t>(l - t)];
  };
  auto b = [&](Ticks t) { return prev[static_cast<std::size_t>(l - t)]; };

  // Binary search the last t in [c, l] with A(t) < B(t); A is non-decreasing
  // and B non-increasing, so the predicate A<B is monotone (true then false).
  Ticks lo = c, hi = l;
  probes += 2;
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
    ++probes;
    if (a(mid) < b(mid)) lo = mid;
    else hi = mid;
  }
  // lo: last t with A<B (min = A there); hi = lo+1: first t with A>=B.
  return std::max(a(lo), b(hi));
}

/// One fused legacy pass over lifespans [lo, hi): crossover scan + carry.
void fill_range_legacy(std::span<Ticks> cur, std::span<const Ticks> prev,
                       Ticks lo, Ticks hi, Ticks c, std::size_t* steps) {
  std::size_t probes = 0;
  for (Ticks l = lo; l < hi; ++l) {
    cur[static_cast<std::size_t>(l)] =
        std::max(crossover_best_legacy(cur, prev, l, c, probes),
                 cur[static_cast<std::size_t>(l - 1)]);
  }
  if (steps != nullptr) *steps += probes + static_cast<std::size_t>(hi - lo);
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
                        Ticks lo, Ticks hi, Ticks c, std::size_t* steps) {
  Ticks* const cur = cur_span.data();
  const Ticks* const prev = prev_span.data();
  // Lifespans below c complete no period.
  const Ticks l0 = std::clamp(c, lo, hi);
  std::fill(cur + lo, cur + l0, Ticks{0});
  std::size_t probes = static_cast<std::size_t>(l0 - lo);
  if (l0 < hi) {
    auto w = [&](Ticks j) { return j + prev[j] - cur[j]; };
    // Seed: k(m0) = the last j in [0, m0] with w(j) <= m0. w(0) = 0 on
    // valid tables; on invalid ones the search still lands in [0, m0].
    const Ticks m0 = l0 - c;
    Ticks a = 0, b = m0 + 1;  // w(a) <= m0 < w(b); w(m0 + 1) >= m0 + 1
    while (a + 1 < b) {
      const Ticks mid = a + (b - a) / 2;
      ++probes;
      (w(mid) <= m0 ? a : b) = mid;
    }
    cur[l0] = prev[a];
    if (l0 + 1 < hi) cur[l0 + 1] = prev[a];
    const Ticks j_end = hi - c;
    Ticks j = a + 1;
    for (; j < j_end; ++j) {
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
    probes += static_cast<std::size_t>(j - a);
  }
  if (steps != nullptr) *steps += probes;
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
                     std::span<const Ticks> prev, Ticks lo, Ticks hi, Ticks c,
                     std::size_t* scan_steps) {
  if (kernel == SolverKernel::kLegacy) {
    fill_range_legacy(cur, prev, lo, hi, c, scan_steps);
  } else {
    fill_range_inverse(cur, prev, lo, hi, c, scan_steps);
  }
}

double modeled_scan_steps(SolverKernel kernel, Ticks c, Ticks lo, Ticks hi) {
  if (hi <= lo) return 0.0;
  const double n = static_cast<double>(hi - lo);
  const double below_c =
      static_cast<double>(std::clamp<Ticks>(std::min(hi, c) - lo, 0, hi - lo));
  const double scanned = n - below_c;
  if (kernel == SolverKernel::kLegacy) {
    // Per scanned lifespan: 2 boundary probes + a binary search over [c, l],
    // ~log2(l − c) halvings. Summed exactly via lgamma:
    //   sum_{n=a}^{b} log2(n) = (lgamma(b+1) − lgamma(a)) / ln 2.
    // (The old model charged log2(table size) per lifespan — the search
    // range is l − c, which is what the depth actually tracks.)
    double depth = 0.0;
    const Ticks a0 = std::max<Ticks>(lo - c, 1);
    const Ticks b0 = hi - 1 - c;
    if (b0 >= a0) {
      depth = (std::lgamma(static_cast<double>(b0) + 1.0) -
               std::lgamma(static_cast<double>(a0))) /
              std::log(2.0);
    }
    return n + below_c + 2.0 * scanned + depth;
  }
  // Inverse scan: one step per lifespan (the walk advances j about once per
  // lifespan), plus the range's one-off seed search for k(lo − c).
  const double seed =
      std::log2(std::max(2.0, static_cast<double>(lo - c)));
  return n + seed;
}

namespace {

constexpr double kMinStepNs = 0.05;
constexpr double kMaxStepNs = 25.0;

struct CalibrationState {
  std::mutex mu;
  ScanCalibration cal;  // generation == 0 → never measured
};

CalibrationState& calibration_state() {
  static CalibrationState state;
  return state;
}

/// Times the given kernel over a synthetic 1-Lipschitz table (best of three
/// runs) and converts to per-probe cost via the same step model
/// plan_wavefront uses. The clamp bounds the damage a pathological
/// measurement (TSan, debugger, load spike) can do: a poisoned value can
/// bias the engagement margin, never destroy it — and recalibrate_scan_cost
/// lets callers repair even that.
ScanCalibration measure_scan_cost(SolverKernel kernel, std::uint64_t generation) {
  constexpr Ticks kN = 1 << 14;
  constexpr Ticks kC = 64;
  std::vector<Ticks> prev(static_cast<std::size_t>(kN) + 1);
  std::vector<Ticks> cur(static_cast<std::size_t>(kN) + 1, 0);
  for (Ticks l = 0; l <= kN; ++l) {
    prev[static_cast<std::size_t>(l)] = positive_sub(l, kC);
  }
  double best_ns = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 3; ++rep) {
    std::fill(cur.begin(), cur.end(), 0);
    const auto start = std::chrono::steady_clock::now();
    run_fill_kernel(kernel, cur, prev, 1, kN + 1, kC);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    best_ns = std::min(
        best_ns,
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                .count()));
    volatile Ticks sink = cur[static_cast<std::size_t>(kN)];
    (void)sink;
  }
  const double steps = modeled_scan_steps(kernel, kC, 1, kN + 1);
  const double raw = best_ns / std::max(1.0, steps);
  ScanCalibration cal;
  cal.kernel = kernel;
  cal.generation = generation;
  if (raw < kMinStepNs) {
    cal.step_ns = kMinStepNs;
    cal.source = "clamped-low";
  } else if (raw > kMaxStepNs) {
    cal.step_ns = kMaxStepNs;
    cal.source = "clamped-high";
  } else {
    cal.step_ns = raw;
    cal.source = "measured";
  }
  return cal;
}

}  // namespace

ScanCalibration scan_calibration() {
  const SolverKernel kernel = active_solver_kernel();
  CalibrationState& state = calibration_state();
  std::lock_guard<std::mutex> lock(state.mu);
  if (state.cal.generation == 0 || state.cal.kernel != kernel) {
    state.cal = measure_scan_cost(kernel, state.cal.generation + 1);
  }
  return state.cal;
}

ScanCalibration recalibrate_scan_cost() {
  const SolverKernel kernel = active_solver_kernel();
  CalibrationState& state = calibration_state();
  std::lock_guard<std::mutex> lock(state.mu);
  state.cal = measure_scan_cost(kernel, state.cal.generation + 1);
  return state.cal;
}

WavefrontPlan plan_wavefront(int max_p, Ticks max_lifespan, const Params& params,
                             util::ThreadPool* pool) {
  WavefrontPlan plan;
  const Ticks c = params.c;
  plan.num_blocks =
      max_lifespan > 0
          ? static_cast<std::size_t>((max_lifespan + c - 1) / c)
          : 0;
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t pool_threads = pool != nullptr ? pool->size() : 1;
  plan.width = static_cast<int>(std::min<std::size_t>(
      {static_cast<std::size_t>(std::max(max_p, 0)), pool_threads, hw}));

  auto finish = [&plan](const char* why) -> WavefrontPlan& {
    plan.reason = why;
    if (plan.calibration.generation != 0) {
      plan.reason += std::string(" [scan-step ") + plan.calibration.source +
                     ", kernel " + solver_kernel_name(plan.calibration.kernel) +
                     "]";
    }
    return plan;
  };

  if (pool == nullptr) {
    return finish("no pool");
  }
  plan.dispatch_ns = pool->dispatch_overhead_ns();
  plan.calibration = scan_calibration();
  const double level_steps =
      modeled_scan_steps(plan.calibration.kernel, c, 1, max_lifespan + 1);
  plan.cell_ns_estimate =
      plan.calibration.step_ns * level_steps /
      static_cast<double>(std::max<std::size_t>(1, plan.num_blocks));
  if (plan.width < 2) {
    // Fewer than two cells can ever run concurrently (single level, single
    // pool thread, or a 1-core machine) — the wavefront can only lose.
    return finish("DAG width < 2");
  }
  if (plan.num_blocks < 3) {
    return finish("too few blocks to fill the pipeline");
  }
  // Engage only when a cell's own work clearly amortizes its dispatch. The
  // margin covers model error and the pipeline's fill/drain slack; at the
  // margin the wavefront is near break-even, comfortably past it the win
  // approaches the width.
  constexpr double kEngageMargin = 8.0;
  if (plan.cell_ns_estimate < kEngageMargin * plan.dispatch_ns) {
    return finish("cell work does not amortize dispatch overhead");
  }
  plan.engage = true;
  return finish("engaged");
}

ValueTable solve_fast(int max_p, Ticks max_lifespan, const Params& params,
                      util::ThreadPool* pool, ParallelMode mode) {
  // No zero pass: level 0 and every level's L = 0 entry are written here,
  // and the kernels write every other cell.
  ValueTable table(max_p, max_lifespan, params, ValueTable::kUninitialized);
  const Ticks c = params.c;
  const SolverKernel kernel = active_solver_kernel();

  auto level0 = table.mutable_level(0);
  for (Ticks l = 0; l <= max_lifespan; ++l) {
    level0[static_cast<std::size_t>(l)] = positive_sub(l, c);
  }
  for (int p = 1; p <= max_p; ++p) table.mutable_level(p)[0] = 0;

  bool wavefront = false;
  switch (mode) {
    case ParallelMode::kForceSequential:
      break;
    case ParallelMode::kForceWavefront:
      wavefront = pool != nullptr && max_p >= 1 && max_lifespan >= 1;
      break;
    case ParallelMode::kAuto:
      wavefront = max_p >= 1 && max_lifespan >= 1 &&
                  plan_wavefront(max_p, max_lifespan, params, pool).engage;
      break;
  }

  if (!wavefront) {
    for (int p = 1; p <= max_p; ++p) {
      run_fill_kernel(kernel, table.mutable_level(p), table.level(p - 1), 1,
                      max_lifespan + 1, c);
    }
    return table;
  }

  // Wavefront over the (level, block) grid: block b of level p covers
  // lifespans [1 + b·c, 1 + (b+1)·c) ∩ [1, max_lifespan]. Cell (p, b) reads
  //   * cur  = level p   at indices <= l − c < block start  → cells (p, <b),
  //   * prev = level p−1 at the same indices                → cells (p−1, <b),
  // so its only direct dependencies are (p, b−1) and (p−1, b−1); everything
  // earlier follows transitively along those chains (run_fill_kernel's
  // read contract; the inverse scan reads only j < hi − c <= lo). Level 0
  // and every level's l = 0 entry are written above, before the graph
  // starts. One task per cell, zero barriers.
  const std::size_t num_blocks =
      static_cast<std::size_t>((max_lifespan + c - 1) / c);
  util::TaskGraph graph;
  auto cell_id = [num_blocks](int p, std::size_t b) {
    return static_cast<std::size_t>(p - 1) * num_blocks + b;
  };
  for (int p = 1; p <= max_p; ++p) {
    const std::span<Ticks> cur = table.mutable_level(p);
    const std::span<const Ticks> prev = table.level(p - 1);
    for (std::size_t b = 0; b < num_blocks; ++b) {
      const Ticks lo = 1 + static_cast<Ticks>(b) * c;
      const Ticks hi = std::min(max_lifespan + 1, lo + c);
      const util::TaskGraph::TaskId id = graph.add_task([kernel, cur, prev, lo, hi, c] {
        run_fill_kernel(kernel, cur, prev, lo, hi, c);
      });
      assert(id == cell_id(p, b));
      (void)id;
      if (b > 0) {
        graph.add_edge(cell_id(p, b - 1), cell_id(p, b));
        if (p > 1) graph.add_edge(cell_id(p - 1, b - 1), cell_id(p, b));
      }
    }
  }
  pool->run_dag(graph);
  return table;
}

}  // namespace nowsched::solver
