// E10 — solver performance: reference O(P·N²) vs fast O(P·N), the level-fill
// kernel ladder (legacy binary search vs the inverse scan, fill-only on
// preallocated tables), the fast solver across interrupt budgets, the policy
// evaluator, and guideline-construction throughput.
//
// Self-timed on the harness clock (best-of-`reps` wall time) so the perf
// record shares the tier/CSV/JSON plumbing with the model experiments; the
// absolute numbers are one machine's sample, the shapes (scaling exponents,
// kernel ratios) are the claims.
#include <algorithm>
#include <cmath>
#include <vector>

#include "harness/harness.h"

#include "core/equalized.h"
#include "core/guidelines.h"
#include "solver/fast_solver.h"
#include "solver/policy_eval.h"
#include "solver/reference_solver.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace nowsched::bench {
namespace {

void run(harness::Context& ctx) {
  const Params params{16};
  const int reps = ctx.quick() ? 1 : 3;

  // 1. Reference O(N²) vs fast O(N) on the same grids.
  {
    util::Table out({"N", "reference ms", "fast ms", "speedup"});
    const std::vector<Ticks> sizes =
        ctx.quick() ? std::vector<Ticks>{256, 1024}
                    : std::vector<Ticks>{256, 1024, 4096};
    std::vector<double> log_n, log_ref, log_fast;
    for (Ticks n : sizes) {
      const double ref_ms = harness::time_best_of_ms(
          reps, [&] { solver::solve_reference(2, n, params); });
      // A fast solve at these N takes microseconds, so each sample times a
      // batch of solves; a single one would time the allocator, not the
      // O(N) fill, and the fitted exponent would be noise.
      constexpr int kFastBatch = 64;
      const double fast_ms =
          harness::time_best_of_ms(reps, [&] {
            for (int i = 0; i < kFastBatch; ++i) solver::solve_fast(2, n, params);
          }) /
          kFastBatch;
      harness::write_perf_row(ctx, "reference", static_cast<double>(n), ref_ms, static_cast<double>(n));
      harness::write_perf_row(ctx, "fast", static_cast<double>(n), fast_ms, static_cast<double>(n));
      log_n.push_back(std::log(static_cast<double>(n)));
      log_ref.push_back(std::log(std::max(ref_ms, 1e-6)));
      log_fast.push_back(std::log(std::max(fast_ms, 1e-6)));
      out.add_row({util::Table::fmt(static_cast<long long>(n)),
                   util::Table::fmt(ref_ms, 5), util::Table::fmt(fast_ms, 5),
                   util::Table::fmt(fast_ms > 0 ? ref_ms / fast_ms : 0.0, 4)});
    }
    ctx.table(out, "reference vs fast solver, max_p = 2, c = 16");
    const auto ref_fit = util::fit_linear(log_n, log_ref);
    const auto fast_fit = util::fit_linear(log_n, log_fast);
    ctx.metric("reference_scaling_exponent", ref_fit.slope);
    // Full tier only: the quick grid gives the fast solver two sub-0.1 ms
    // points, and a log-log slope fitted through that much noise flips sign
    // run to run — it would flap the strict same-tier CI gate. (The
    // reference fit stays: its points are ms-scale even at quick tier.)
    if (!ctx.quick()) {
      ctx.metric("fast_scaling_exponent", fast_fit.slope);
    }
    ctx.text("empirical scaling exponents (log-log slope): reference " +
             util::Table::fmt(ref_fit.slope, 3) + " (theory 2), fast " +
             util::Table::fmt(fast_fit.slope, 3) + " (theory ~1)");
  }

  // 1b. Level-fill kernel ladder: the legacy binary search and the inverse
  //     scan re-fill the SAME preallocated level pair (level 2 from a real
  //     level-1 table). Fill-only by design — no slab allocation, no
  //     first-touch page faults — so the ratio is the kernel speedup, not
  //     allocator noise. Re-filling an already-final level is idempotent
  //     under the kernel read contract (see run_fill_kernel), so one warm
  //     fill precedes the timed repetitions.
  {
    const Params big_c{1024};
    const Ticks n = ctx.quick() ? (1 << 15) : (1 << 18);
    std::vector<Ticks> level0(static_cast<std::size_t>(n) + 1);
    for (Ticks l = 0; l <= n; ++l) {
      level0[static_cast<std::size_t>(l)] = positive_sub(l, big_c.c);
    }
    std::vector<Ticks> level1(static_cast<std::size_t>(n) + 1, 0);
    solver::run_fill_kernel(solver::SolverKernel::kLegacy, level1, level0, 1,
                            n + 1, big_c.c);
    std::vector<Ticks> level2(static_cast<std::size_t>(n) + 1, 0);

    util::Table out({"kernel", "fill ms/level", "speedup vs legacy"});
    double legacy_ms = 0.0, active_ms = 0.0;
    const solver::SolverKernel active = solver::active_solver_kernel();
    for (solver::SolverKernel k :
         {solver::SolverKernel::kLegacy, solver::SolverKernel::kInverseScan}) {
      std::fill(level2.begin(), level2.end(), 0);
      solver::run_fill_kernel(k, level2, level1, 1, n + 1, big_c.c);  // warm
      const double ms = harness::time_best_of_ms(std::max(reps, 3), [&] {
        solver::run_fill_kernel(k, level2, level1, 1, n + 1, big_c.c);
      });
      if (k == solver::SolverKernel::kLegacy) legacy_ms = ms;
      if (k == active) active_ms = ms;
      harness::write_perf_row(ctx, std::string("kernel_") + solver::solver_kernel_name(k),
                              static_cast<double>(n), ms, static_cast<double>(n));
      out.add_row({solver::solver_kernel_name(k), util::Table::fmt(ms, 5),
                   util::Table::fmt(legacy_ms > 0 && ms > 0 ? legacy_ms / ms : 0.0, 4)});
    }
    ctx.table(out, "level-fill kernel ladder, c = 1024, N = " + std::to_string(n) +
                       " (fill-only, preallocated)");
    // The speedup ratio is a same-run, same-machine quantity — stable
    // enough to gate in both tiers (unlike absolute wall clocks).
    if (legacy_ms > 0 && active_ms > 0) {
      ctx.metric("kernel_speedup_vs_legacy", legacy_ms / active_ms);
    }
    ctx.text("active kernel: " +
             std::string(solver::solver_kernel_name(active)) +
             (legacy_ms > 0 && active_ms > 0
                  ? ", " + util::Table::fmt(legacy_ms / active_ms, 3) +
                        "x over the legacy binary-search scan"
                  : ""));
  }

  // 2. Fast solver across interrupt budgets at a fixed grid.
  {
    const Ticks n = ctx.quick() ? (1 << 12) : (1 << 15);
    util::Table out({"p", "ms", "states/s"});
    for (int p = 1; p <= 8; p += (ctx.quick() ? 3 : 1)) {
      const double ms =
          harness::time_best_of_ms(reps, [&] { solver::solve_fast(p, n, params); });
      const double states = static_cast<double>(n) * (p + 1);
      harness::write_perf_row(ctx, "fast_high_p", static_cast<double>(p), ms, states);
      out.add_row({util::Table::fmt(static_cast<long long>(p)),
                   util::Table::fmt(ms, 5),
                   util::Table::fmt(ms > 0 ? states / (ms / 1000.0) : 0.0, 5)});
    }
    ctx.table(out, "fast solver, N = " + std::to_string(n) + " lifespans");
  }

  // 3. Policy-evaluation DP: serial grid sweep and thread scaling.
  {
    const EqualizedGuidelinePolicy equalized;
    const AdaptiveGuidelinePolicy printed;
    util::Table out({"evaluator", "x", "ms"});
    const Ticks grid = ctx.quick() ? (1 << 10) : (1 << 13);
    const double eq_ms = harness::time_best_of_ms(reps, [&] {
      solver::evaluate_policy_grid(equalized, grid, 2, params);
    });
    harness::write_perf_row(ctx, "policy_eval_equalized", static_cast<double>(grid), eq_ms,
           static_cast<double>(grid));
    out.add_row({"equalized, serial", util::Table::fmt(static_cast<long long>(grid)),
                 util::Table::fmt(eq_ms, 5)});
    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      util::ThreadPool pool(threads);
      const double ms = harness::time_best_of_ms(reps, [&] {
        solver::evaluate_policy_grid(printed, grid, 3, params, &pool);
      });
      harness::write_perf_row(ctx, "policy_eval_parallel", static_cast<double>(threads), ms,
             static_cast<double>(grid));
      out.add_row({"printed, " + std::to_string(threads) + " threads",
                   util::Table::fmt(static_cast<long long>(grid)),
                   util::Table::fmt(ms, 5)});
    }
    ctx.table(out, "policy-evaluation DP");
  }

  // 4. Guideline construction throughput (episodes built per second).
  {
    const Ticks l = 16 * 4096;
    const int iters = ctx.quick() ? 200 : 2000;
    util::Table out({"builder", "p", "ns/episode"});
    for (int p = 1; p <= 6; p += (ctx.quick() ? 5 : 1)) {
      const double eq_ms = harness::time_best_of_ms(reps, [&] {
        for (int i = 0; i < iters; ++i) equalized_episode(l, p, params);
      });
      const double pr_ms = harness::time_best_of_ms(reps, [&] {
        for (int i = 0; i < iters; ++i) adaptive_episode_guideline(l, p, params);
      });
      harness::write_perf_row(ctx, "equalized_episode", static_cast<double>(p), eq_ms,
             static_cast<double>(iters));
      harness::write_perf_row(ctx, "printed_episode", static_cast<double>(p), pr_ms,
             static_cast<double>(iters));
      out.add_row({"equalized", util::Table::fmt(static_cast<long long>(p)),
                   util::Table::fmt(eq_ms * 1e6 / iters, 5)});
      out.add_row({"printed", util::Table::fmt(static_cast<long long>(p)),
                   util::Table::fmt(pr_ms * 1e6 / iters, 5)});
    }
    ctx.table(out, "episode construction, U = " + std::to_string(l));
  }
}

}  // namespace

const harness::Experiment& experiment_solver_perf() {
  static const harness::Experiment e{
      "E10", "solver_perf", "Solver performance baselines",
      "bench_solver_perf",
      "Wall-clock baselines for the solvers: reference O(P·N²) vs fast "
      "O(P·N) with empirical scaling exponents, the level-fill kernel ladder "
      "(legacy binary-search scan vs the inverse scan, fill-only on "
      "preallocated tables), the fast solver across interrupt budgets, the "
      "policy-evaluation DP, and guideline construction throughput.",
      run};
  return e;
}

}  // namespace nowsched::bench
