// E4 — Theorem 5.1: guaranteed work of the adaptive guidelines.
//
//   W(Σ_a(p)[U]) >= U − (2 − 2^{1−p})√(2cU) − O(U^{1/4} + pc).
//
// For each (U/c, p) the bench evaluates, exactly (policy-evaluation DP):
//   * the printed §3.2 guideline Σ_a(p)[U] (as-printed pivot),
//   * the rationalized-pivot variant,
//   * the §4.2 equalized guideline,
// against the leading-order bound and the DP optimum, and reports each
// deficit (U − W) normalized by √(2cU) — Thm 5.1 predicts the normalized
// deficit converges to (2 − 2^{1−p}) from above as U grows.
#include <cmath>
#include <vector>

#include "harness/harness.h"

#include "core/bounds.h"
#include "core/equalized.h"
#include "core/guidelines.h"
#include "solver/fast_solver.h"
#include "solver/policy_eval.h"
#include "util/thread_pool.h"

namespace nowsched::bench {
namespace {

void run(harness::Context& ctx) {
  const util::Flags& flags = ctx.flags();
  const Params params{flags.get_int("c", 16)};
  const double c = static_cast<double>(params.c);
  const int max_p = static_cast<int>(flags.get_int("max_p", ctx.quick() ? 2 : 4));
  util::ThreadPool pool;

  ctx.csv({"U_over_c", "p", "W_opt", "W_printed", "W_rationalized", "W_equalized",
           "bound_leading", "coeff_predicted", "coeff_printed", "coeff_equalized"});

  util::Table out({"U/c", "p", "W opt", "W printed", "W rationalzd", "W equalized",
                   "bound", "(2−2^{1−p})", "a_p exact", "opt def", "printed def",
                   "equalzd def"});

  const std::vector<Ticks> ratios = ctx.quick()
                                        ? std::vector<Ticks>{64, 256}
                                        : std::vector<Ticks>{256, 1024, 4096};
  for (Ticks ratio : ratios) {
    const Ticks u = ratio * params.c;
    const double ud = static_cast<double>(u);
    const double scale = std::sqrt(2.0 * c * ud);
    const auto table = solver::solve_fast(max_p, u, params);
    for (int p = 0; p <= max_p; ++p) {
      const AdaptiveGuidelinePolicy printed(PivotRule::kAsPrinted);
      const AdaptiveGuidelinePolicy rational(PivotRule::kRationalized);
      const EqualizedGuidelinePolicy equalized;
      const Ticks w_pr = solver::evaluate_policy(printed, u, p, params, &pool);
      const Ticks w_ra = solver::evaluate_policy(rational, u, p, params, &pool);
      const Ticks w_eq = solver::evaluate_policy(equalized, u, p, params, &pool);
      const Ticks w_opt = table.value(p, u);
      const double bound = bounds::adaptive_work_leading(ud, p, c);
      const double coeff = 2.0 - std::pow(2.0, 1.0 - static_cast<double>(p));
      const double a_exact = bounds::optimal_deficit_coefficient(p);
      const double def_opt = (ud - static_cast<double>(w_opt)) / scale;
      const double def_pr = (ud - static_cast<double>(w_pr)) / scale;
      const double def_eq = (ud - static_cast<double>(w_eq)) / scale;

      out.add_row({util::Table::fmt(static_cast<long long>(ratio)),
                   util::Table::fmt(static_cast<long long>(p)),
                   util::Table::fmt(static_cast<long long>(w_opt)),
                   util::Table::fmt(static_cast<long long>(w_pr)),
                   util::Table::fmt(static_cast<long long>(w_ra)),
                   util::Table::fmt(static_cast<long long>(w_eq)),
                   util::Table::fmt(bound, 6), util::Table::fmt(coeff, 3),
                   util::Table::fmt(a_exact, 4), util::Table::fmt(def_opt, 3),
                   util::Table::fmt(def_pr, 3), util::Table::fmt(def_eq, 3)});
      ctx.write_csv_row({static_cast<double>(ratio), static_cast<double>(p),
                         static_cast<double>(w_opt), static_cast<double>(w_pr),
                         static_cast<double>(w_ra), static_cast<double>(w_eq), bound,
                         coeff, def_pr, def_eq});
    }
    out.add_rule();
  }
  ctx.table(out, "Thm 5.1 sweep, c = " + std::to_string(params.c) + " ticks");
  ctx.text(
      "Shape checks (E4):\n"
      "  * 'opt def' and 'equalzd def' converge to the EXACT coefficient a_p\n"
      "    (a_p = a_{p−1} + 1/a_p: 1, φ=1.618, 2.095, 2.496, …) — they agree\n"
      "    with the printed Thm 5.1 constant (2 − 2^{1−p}) only at p <= 1;\n"
      "    for p >= 2 the printed constant is unachievable (E4);\n"
      "  * the printed §3.2 schedule constants track the optimum for p <= 2\n"
      "    but drift for p >= 3 (OCR-garbled pivot/count; DESIGN.md §1);\n"
      "  * p = 0 reproduces Prop 4.1(d): W = U − c for every variant.");
}

}  // namespace

const harness::Experiment& experiment_theorem51() {
  static const harness::Experiment e{
      "E4", "theorem51", "Theorem 5.1: guaranteed work of the adaptive guidelines",
      "Exact policy-evaluation of the printed, rationalized-pivot, and "
      "equalized guidelines against the Thm 5.1 leading-order bound and the DP "
      "optimum; deficits are normalized by √(2cU) to expose the limiting "
      "coefficient as U grows.",
      run};
  return e;
}

}  // namespace nowsched::bench
