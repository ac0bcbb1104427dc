// E6 — the §1.1 tension: many short periods (interrupt-safe, setup-heavy)
// versus few long periods (setup-light, interrupt-fragile).
//
// Compares guaranteed work across the whole policy zoo — the paper's
// guidelines, the DP optimum, and the naive baselines the introduction and
// related work (§1.3) argue against — plus an ablation of the Thm 4.1/4.2
// transforms applied to a deliberately bad committed schedule.
#include <memory>
#include <vector>

#include "harness/harness.h"

#include "core/baselines.h"
#include "core/equalized.h"
#include "core/guidelines.h"
#include "core/transforms.h"
#include "solver/extract.h"
#include "solver/fast_solver.h"
#include "solver/nonadaptive_eval.h"
#include "solver/policy_eval.h"
#include "util/thread_pool.h"

namespace nowsched::bench {
namespace {

void run(harness::Context& ctx) {
  const util::Flags& flags = ctx.flags();
  const Params params{flags.get_int("c", 16)};
  const int max_p = static_cast<int>(flags.get_int("max_p", 3));
  util::ThreadPool pool;

  ctx.csv({"U_over_c", "p", "policy", "guaranteed_work"});

  std::vector<std::pair<std::string, PolicyPtr>> policies;
  policies.emplace_back("single-block", std::make_shared<SingleBlockPolicy>());
  policies.emplace_back("fixed-chunk-2c", std::make_shared<FixedChunkPolicy>(2.0));
  policies.emplace_back("fixed-chunk-8c", std::make_shared<FixedChunkPolicy>(8.0));
  policies.emplace_back("fixed-chunk-32c", std::make_shared<FixedChunkPolicy>(32.0));
  policies.emplace_back("geometric-1/2", std::make_shared<GeometricPolicy>(2.0, 2.0));
  policies.emplace_back("nonadaptive-restart",
                        std::make_shared<NonAdaptiveGuidelinePolicy>());
  policies.emplace_back("adaptive-printed",
                        std::make_shared<AdaptiveGuidelinePolicy>(PivotRule::kAsPrinted));
  policies.emplace_back("equalized", std::make_shared<EqualizedGuidelinePolicy>());

  const std::vector<Ticks> ratios = ctx.quick()
                                        ? std::vector<Ticks>{256}
                                        : std::vector<Ticks>{256, 1024, 4096};
  for (Ticks ratio : ratios) {
    const Ticks u = ratio * params.c;
    const auto table = solver::solve_fast(max_p, u, params);

    util::Table out({"policy", "p=1", "p=2", "p=3", "% of opt (p=3)"},
                    {util::Align::kLeft, util::Align::kRight, util::Align::kRight,
                     util::Align::kRight, util::Align::kRight});
    for (const auto& [name, policy] : policies) {
      std::vector<std::string> row = {name};
      Ticks w3 = 0;
      for (int p = 1; p <= max_p; ++p) {
        const Ticks w = solver::evaluate_policy(*policy, u, p, params, &pool);
        if (p == 3) w3 = w;
        row.push_back(util::Table::fmt(static_cast<long long>(w)));
        ctx.write_csv_row({util::Table::fmt(static_cast<long long>(ratio)),
                           util::Table::fmt(static_cast<long long>(p)), name,
                           util::Table::fmt(static_cast<long long>(w))});
      }
      const Ticks opt3 = table.value(std::min(3, max_p), u);
      row.push_back(util::Table::fmt(
          opt3 > 0 ? 100.0 * static_cast<double>(w3) / static_cast<double>(opt3) : 0.0,
          4));
      out.add_row(std::move(row));
    }
    // Committed §3.1 schedule under true non-adaptive semantics, as a row.
    {
      std::vector<std::string> row = {"nonadaptive-committed"};
      Ticks w3 = 0;
      for (int p = 1; p <= max_p; ++p) {
        const auto sched = nonadaptive_guideline(u, p, params);
        const Ticks w = solver::nonadaptive_guaranteed_work(sched, u, p, params);
        if (p == 3) w3 = w;
        row.push_back(util::Table::fmt(static_cast<long long>(w)));
        ctx.write_csv_row({util::Table::fmt(static_cast<long long>(ratio)),
                           util::Table::fmt(static_cast<long long>(p)),
                           "nonadaptive-committed",
                           util::Table::fmt(static_cast<long long>(w))});
      }
      const Ticks opt3 = table.value(std::min(3, max_p), u);
      row.push_back(util::Table::fmt(
          opt3 > 0 ? 100.0 * static_cast<double>(w3) / static_cast<double>(opt3) : 0.0,
          4));
      out.add_row(std::move(row));
    }
    // DP optimum.
    {
      std::vector<std::string> row = {"dp-optimal"};
      for (int p = 1; p <= max_p; ++p) {
        row.push_back(util::Table::fmt(static_cast<long long>(table.value(p, u))));
        ctx.write_csv_row({util::Table::fmt(static_cast<long long>(ratio)),
                           util::Table::fmt(static_cast<long long>(p)), "dp-optimal",
                           util::Table::fmt(static_cast<long long>(table.value(p, u)))});
      }
      row.push_back("100");
      out.add_row(std::move(row));
    }
    ctx.table(out, "U/c = " + std::to_string(ratio) + " (guaranteed work; c = " +
                       std::to_string(params.c) + " ticks)");
  }

  // Ablation: Thm 4.1/4.2 transforms rescue a pathological committed schedule.
  const Ticks ablation_ratio = ctx.quick() ? 256 : 1024;
  const Ticks u = ablation_ratio * params.c;
  std::vector<Ticks> bad;
  for (int i = 0; i < 64; ++i) bad.push_back(params.c / 2 + (i % 3));  // unproductive
  Ticks used = 0;
  for (Ticks t : bad) used += t;
  bad.push_back(u - used);  // one giant period
  const EpisodeSchedule pathological(std::move(bad));
  const auto productive = make_productive(pathological, params);
  const auto banded = split_immune_tail(productive, productive.size(), params);
  util::Table ab({"schedule", "m", "guaranteed work (p=2)"},
                 {util::Align::kLeft, util::Align::kRight, util::Align::kRight});
  for (const auto& [name, sched] :
       std::vector<std::pair<std::string, const EpisodeSchedule*>>{
           {"pathological (64 runt periods + 1 giant)", &pathological},
           {"after Thm 4.1 make_productive", &productive},
           {"after Thm 4.2 split into (c,2c]", &banded}}) {
    ab.add_row({name, util::Table::fmt(static_cast<long long>(sched->size())),
                util::Table::fmt(static_cast<long long>(
                    solver::nonadaptive_guaranteed_work(*sched, u, 2, params)))});
  }
  ctx.table(ab, "Ablation — Thm 4.1/4.2 transforms on a pathological committed "
                "schedule (U/c = " +
                    std::to_string(ablation_ratio) + ", p = 2)");
}

}  // namespace

const harness::Experiment& experiment_policy_comparison() {
  static const harness::Experiment e{
      "E6", "policy_comparison", "§1.1 policy comparison under the malicious adversary",
      "Guaranteed work of the whole policy zoo — naive baselines, the paper's "
      "guidelines, and the DP optimum — plus an ablation showing the Thm "
      "4.1/4.2 transforms rescuing a pathological committed schedule.",
      run};
  return e;
}

}  // namespace nowsched::bench
