// E8 — stochastic owners (the companion expected-output model's territory):
// Monte-Carlo expected work of each policy under Poisson / Pareto / uniform
// owners, run on the discrete-event simulator. Guaranteed-output schedules
// are designed for the worst case; this bench measures what they give up —
// or don't — against benign owners.
#include <functional>
#include <memory>
#include <vector>

#include "harness/harness.h"

#include "adversary/stochastic.h"
#include "core/baselines.h"
#include "core/equalized.h"
#include "core/guidelines.h"
#include "sim/session.h"
#include "solver/policy_eval.h"
#include "util/stats.h"

namespace nowsched::bench {
namespace {

struct OwnerSpec {
  std::string name;
  std::function<std::unique_ptr<adversary::Adversary>(std::uint64_t seed)> make;
};

void run(harness::Context& ctx) {
  const util::Flags& flags = ctx.flags();
  const Params params{flags.get_int("c", 16)};
  const Ticks u = flags.get_int("u", ctx.quick() ? 16 * 512 : 16 * 2048);
  const int p = static_cast<int>(flags.get_int("p", 3));
  const int trials =
      static_cast<int>(flags.get_int("trials", ctx.quick() ? 50 : 400));

  ctx.csv({"policy", "owner", "mean_work", "p5_work", "guaranteed"});

  std::vector<std::pair<std::string, PolicyPtr>> policies;
  policies.emplace_back("single-block", std::make_shared<SingleBlockPolicy>());
  policies.emplace_back("fixed-chunk-8c", std::make_shared<FixedChunkPolicy>(8.0));
  policies.emplace_back("adaptive-printed", std::make_shared<AdaptiveGuidelinePolicy>());
  policies.emplace_back("equalized", std::make_shared<EqualizedGuidelinePolicy>());

  const double mean_gap = static_cast<double>(u) / static_cast<double>(p + 1);
  std::vector<OwnerSpec> owners;
  owners.push_back({"poisson", [&](std::uint64_t seed) {
                      return std::make_unique<adversary::PoissonAdversary>(mean_gap,
                                                                           seed);
                    }});
  owners.push_back({"pareto", [&](std::uint64_t seed) {
                      return std::make_unique<adversary::ParetoSessionAdversary>(
                          mean_gap / 4.0, 1.2, seed);
                    }});
  owners.push_back({"uniform-40%", [&](std::uint64_t seed) {
                      return std::make_unique<adversary::UniformEpisodeAdversary>(0.4,
                                                                                  seed);
                    }});

  util::Table out({"policy", "owner", "E[work]", "p5", "p95", "guaranteed (minimax)"},
                  {util::Align::kLeft, util::Align::kLeft, util::Align::kRight,
                   util::Align::kRight, util::Align::kRight, util::Align::kRight});

  for (const auto& [pname, policy] : policies) {
    const Ticks guaranteed = solver::evaluate_policy(*policy, u, p, params);
    for (const auto& owner : owners) {
      std::vector<double> works;
      works.reserve(static_cast<std::size_t>(trials));
      for (int trial = 0; trial < trials; ++trial) {
        auto adv = owner.make(0x9E3779B9u + static_cast<std::uint64_t>(trial));
        const auto metrics =
            sim::run_session(*policy, *adv, Opportunity{u, p}, params);
        works.push_back(static_cast<double>(metrics.banked_work));
      }
      const util::Summary summary(std::move(works));
      out.add_row({pname, owner.name, util::Table::fmt(summary.mean(), 6),
                   util::Table::fmt(summary.quantile(0.05), 6),
                   util::Table::fmt(summary.quantile(0.95), 6),
                   util::Table::fmt(static_cast<long long>(guaranteed))});
      ctx.write_csv_row({pname, owner.name, util::Table::fmt(summary.mean(), 9),
                         util::Table::fmt(summary.quantile(0.05), 9),
                         util::Table::fmt(static_cast<long long>(guaranteed))});
    }
    out.add_rule();
  }
  ctx.table(out, "U = " + std::to_string(u) + ", p = " + std::to_string(p) +
                     ", c = " + std::to_string(params.c) + ", " +
                     std::to_string(trials) + " trials/cell");
  ctx.text(
      "Shape checks (E8):\n"
      "  * single-block has the best expectation under benign owners but a\n"
      "    worthless guarantee — the §1.1 tension in one row;\n"
      "  * the guideline policies' expected work dominates their guarantee\n"
      "    and concentrates (p5 close to mean): insurance priced at the\n"
      "    setup overhead only.");
}

}  // namespace

const harness::Experiment& experiment_stochastic() {
  static const harness::Experiment e{
      "E8", "stochastic", "Stochastic owners: expected vs guaranteed output",
      "Monte-Carlo expected work of each policy under Poisson, Pareto, and "
      "uniform owners on the discrete-event simulator, next to the minimax "
      "guarantee — what worst-case insurance costs against benign owners.",
      run};
  return e;
}

}  // namespace nowsched::bench
