// E2 — regenerates Table 2: "Parameter values for the case p = 1".
//
// Per lifespan ratio U/c, prints the paper's columns for both S_opt(1)[U]
// (closed form, §5.2) and the adaptive guideline S_a(1)[U] (§3.2):
//   m(1)[U], α, t_1, t_{m−2}, t_{m−1} = t_m, and W(1)[U],
// with the paper's approximations alongside our exact grid values, plus the
// DP optimum as ground truth.
#include <cmath>
#include <vector>

#include "harness/harness.h"

#include "core/bounds.h"
#include "core/closed_form.h"
#include "core/guidelines.h"
#include "solver/fast_solver.h"

namespace nowsched::bench {
namespace {

void run(harness::Context& ctx) {
  const util::Flags& flags = ctx.flags();
  const Params params{flags.get_int("c", 16)};
  const double c = static_cast<double>(params.c);

  ctx.csv({"U_over_c", "m_opt_formula", "m_opt_real", "alpha", "W_opt_exact",
           "W_opt_paper_approx", "m_guideline_paper", "m_guideline_real",
           "W_guideline_exact", "W_dp"});

  util::Table out({"U/c", "m_opt (5.1)", "m_opt", "alpha", "t_1/c", "t_m/c",
                   "W_opt", "W approx", "m_a paper", "m_a", "W(S_a)", "W dp"});

  const std::vector<Ticks> ratios =
      ctx.quick() ? std::vector<Ticks>{64, 256}
                  : std::vector<Ticks>{64, 256, 1024, 4096, 16384};
  for (Ticks ratio : ratios) {
    const Ticks u = ratio * params.c;
    const double ud = static_cast<double>(u);

    // Closed-form optimum.
    const auto opt = optimal_p1_schedule(u, params);
    const Ticks w_opt = guaranteed_work_p1(opt.schedule, u, params);
    const double w_approx = bounds::optimal_p1_work(ud, c);

    // §3.2 guideline.
    const auto guideline = adaptive_episode_guideline(u, 1, params);
    const Ticks w_guideline = guaranteed_work_p1(guideline, u, params);
    const std::size_t m_paper = adaptive_period_count_paper(u, 1, params);

    // DP ground truth.
    const auto table = solver::solve_fast(1, u, params);
    const Ticks w_dp = table.value(1, u);

    out.add_row({util::Table::fmt(static_cast<long long>(ratio)),
                 util::Table::fmt(bounds::optimal_p1_period_count(ud, c), 4),
                 util::Table::fmt(static_cast<long long>(opt.m)),
                 util::Table::fmt(opt.alpha, 3),
                 util::Table::fmt(static_cast<double>(opt.schedule.period(0)) / c, 4),
                 util::Table::fmt(
                     static_cast<double>(opt.schedule.period(opt.schedule.size() - 1)) / c,
                     3),
                 util::Table::fmt(static_cast<long long>(w_opt)),
                 util::Table::fmt(w_approx, 6),
                 util::Table::fmt(static_cast<long long>(m_paper)),
                 util::Table::fmt(static_cast<long long>(guideline.size())),
                 util::Table::fmt(static_cast<long long>(w_guideline)),
                 util::Table::fmt(static_cast<long long>(w_dp))});

    ctx.write_csv_row({static_cast<double>(ratio),
                       bounds::optimal_p1_period_count(ud, c),
                       static_cast<double>(opt.m), opt.alpha,
                       static_cast<double>(w_opt), w_approx,
                       static_cast<double>(m_paper),
                       static_cast<double>(guideline.size()),
                       static_cast<double>(w_guideline), static_cast<double>(w_dp)});
  }
  ctx.table(out, "Table 2 (c = " + std::to_string(params.c) + " ticks)");
  ctx.text(
      "Paper shape checks:\n"
      "  * m_opt tracks sqrt(2U/c − 7/4) − 1/2 (eq. 5.1)\n"
      "  * t_m = t_{m−1} = (1+alpha)c with alpha in (0,1]\n"
      "  * W_opt ≈ U − sqrt(2cU) − c/2 (Table 2 approximation column)\n"
      "  * the S_a(1) guideline stays within low-order terms of W_opt and both\n"
      "    match the DP ground truth column.");
}

}  // namespace

const harness::Experiment& experiment_table2() {
  static const harness::Experiment e{
      "E2", "table2", "Table 2: parameter values for the case p = 1",
      "Per lifespan ratio U/c: the closed-form optimal 1-interrupt schedule "
      "(period count m, pivot α, first/last periods, guaranteed work) next to "
      "the paper's approximations, the §3.2 adaptive guideline, and the DP "
      "optimum as ground truth.",
      run};
  return e;
}

}  // namespace nowsched::bench
