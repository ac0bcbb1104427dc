// E16 — policy racing: adaptive budget allocation vs fixed allocation on
// the SAME verdict, plus the adversarial regret hunt.
//
// Section 1 races (policy, region) arms under all three allocation modes
// with one (δ, ε) criterion. kUniform is the fixed-allocation baseline —
// every arm pulled every round until the leader separates — so the
// budget-to-verdict ratio uniform_pulls / lucb_pulls is measured INSIDE one
// engine, one scoring path, one scenario stream: the only difference is who
// gets pulled. Racing pays off exactly when most arms are clearly bad; the
// arm set here plants that shape (dp-optimal and guidelines across easy and
// hostile owner regions).
//
// Section 2 runs race::hunt_regret over a guideline-policy root region and
// reports the worst mean-regret (region, policy) pairs — the regions where
// the closed-form guidelines give up the most guaranteed work vs the DP
// optimum. Regret is exact (solver-side), so every number here is
// deterministic and diffable across runs.
#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/harness.h"

#include "race/policy_race.h"
#include "race/regret_hunt.h"
#include "solver/solve_cache.h"
#include "util/thread_pool.h"

namespace nowsched::bench {
namespace {

// Race regions are kept NARROW (tight c and lifespan ranges) so the
// within-arm scenario variance does not drown the between-policy gaps —
// wide-open regions need orders of magnitude more pulls before any
// allocation rule can separate arms.
race::Region bench_region(const std::string& name, sim::OwnerKind owner,
                          Ticks max_lifespan) {
  race::Region region;
  region.name = name;
  region.domain.owners = {owner};
  region.domain.min_c = 8;
  region.domain.max_c = 16;
  region.domain.min_lifespan = max_lifespan / 2;
  region.domain.max_lifespan = max_lifespan;
  region.domain.min_interrupts = 1;
  region.domain.max_interrupts = 3;
  region.domain.contract_classes = 6;
  region.domain.class_fraction = 0.5;
  return region;
}

struct RaceCell {
  race::PolicyRaceResult result;
  double wall_ms = 0.0;
};

constexpr double kDelta = 0.05;
constexpr double kEpsilon = 0.1;

RaceCell run_mode(race::Mode mode, const std::vector<race::Region>& regions,
                  const std::vector<race::PolicyArm>& arms, std::size_t batch,
                  std::size_t cap, util::ThreadPool* pool) {
  race::PolicyRaceOptions options;
  options.race.mode = mode;
  options.race.delta = kDelta;
  options.race.epsilon = kEpsilon;
  options.race.batch = batch;
  options.race.max_total_pulls = cap;
  // Successive halving is fixed-budget by construction; give it a spend in
  // the same ballpark as what LUCB needs to reach its (delta, epsilon) stop,
  // so the table compares like against like.
  options.race.budget = cap / 4;
  options.seed = 0xE16;
  options.batch.pool = pool;
  solver::SolveCache cache;
  options.batch.shared_cache = &cache;
  race::PolicyRace race(regions, arms, options);
  RaceCell cell;
  cell.wall_ms = harness::time_best_of_ms(1, [&] { cell.result = race.run(); });
  return cell;
}

void run(harness::Context& ctx) {
  const util::Flags& flags = ctx.flags();
  const Ticks max_u = flags.get_int("u", ctx.quick() ? 512 : 1024);
  const std::size_t batch = flags.get_count("batch", 8);
  const std::size_t cap = flags.get_count("cap", ctx.quick() ? 16384 : 32768);
  const std::size_t threads = flags.get_count("threads", 4);
  util::ThreadPool pool(threads);

  // ------------------------------------------------------------------
  // Section 1: the same verdict under three allocation modes.
  // ------------------------------------------------------------------
  const std::vector<race::Region> regions = {
      bench_region("poisson", sim::OwnerKind::kPoisson, max_u),
      bench_region("bursty", sim::OwnerKind::kBursty, max_u)};
  const std::vector<race::PolicyArm> arms = {
      {sim::PolicyKind::kDpOptimal, 0},      {sim::PolicyKind::kEqualized, 0},
      {sim::PolicyKind::kAdaptivePaper, 0},  {sim::PolicyKind::kDpOptimal, 1},
      {sim::PolicyKind::kEqualized, 1},      {sim::PolicyKind::kAdaptivePaper, 1}};

  ctx.csv({"mode", "arms", "total_pulls", "rounds", "confident", "best_arm",
           "confident_verdicts", "wall_ms"});
  util::Table race_table(
      {"mode", "pulls", "rounds", "confident", "best arm", "wall ms"});

  std::size_t lucb_pulls = 0, uniform_pulls = 0;
  std::size_t lucb_best = 0, uniform_best = 0;
  for (const race::Mode mode :
       {race::Mode::kLucb, race::Mode::kUniform, race::Mode::kSuccessiveHalving}) {
    const RaceCell cell = run_mode(mode, regions, arms, batch, cap, &pool);
    const race::RaceResult& r = cell.result.race;
    const std::string best = race::arm_label(arms[r.best], regions);
    std::size_t confident_verdicts = 0;
    for (const race::VerdictRecord& v : cell.result.verdicts) {
      if (v.confident) ++confident_verdicts;
    }
    if (mode == race::Mode::kLucb) {
      lucb_pulls = r.total_pulls;
      lucb_best = r.best;
    }
    if (mode == race::Mode::kUniform) {
      uniform_pulls = r.total_pulls;
      uniform_best = r.best;
    }

    ctx.write_csv_row({race::to_string(mode), std::to_string(arms.size()),
                       std::to_string(r.total_pulls), std::to_string(r.rounds),
                       r.confident ? "1" : "0", best,
                       std::to_string(confident_verdicts),
                       util::Table::fmt(cell.wall_ms, 5)});
    race_table.add_row({race::to_string(mode),
                        util::Table::fmt(static_cast<unsigned long long>(r.total_pulls)),
                        util::Table::fmt(static_cast<unsigned long long>(r.rounds)),
                        r.confident ? "yes" : "no", best,
                        util::Table::fmt(cell.wall_ms, 5)});
  }
  if (lucb_best != uniform_best) {
    throw std::logic_error(
        "policy racing: adaptive and fixed allocation disagreed on the best "
        "arm — determinism or bounds bug");
  }
  const double budget_ratio =
      lucb_pulls > 0
          ? static_cast<double>(uniform_pulls) / static_cast<double>(lucb_pulls)
          : 0.0;
  ctx.metric("lucb_pulls", static_cast<double>(lucb_pulls));
  ctx.metric("uniform_pulls", static_cast<double>(uniform_pulls));
  ctx.metric("budget_ratio_uniform_over_lucb", budget_ratio);

  ctx.table(race_table,
            std::to_string(arms.size()) +
                " (policy, region) arms, shared (delta=" +
                util::Table::fmt(kDelta, 2) + ", epsilon=" +
                util::Table::fmt(kEpsilon, 2) + ") stopping rule, batch " +
                std::to_string(batch) + ", cap " + std::to_string(cap) +
                " pulls");

  // ------------------------------------------------------------------
  // Section 2: the regret hunt — where guidelines give up the most.
  // ------------------------------------------------------------------
  race::Region root = bench_region("all", sim::OwnerKind::kPoisson, max_u);
  root.domain.contract_classes = 0;  // hunt the raw contract space
  const std::vector<sim::PolicyKind> hunted = {
      sim::PolicyKind::kEqualized, sim::PolicyKind::kAdaptivePaper,
      sim::PolicyKind::kNonAdaptiveRestart};
  race::RegretHuntOptions hunt_options;
  hunt_options.probes_per_region = flags.get_count("probes", ctx.quick() ? 8 : 24);
  hunt_options.rounds = flags.get_count("rounds", ctx.quick() ? 2 : 4);
  hunt_options.beam = 2;
  hunt_options.seed = 0x4E6;

  solver::SolveCache cache;
  race::RegretHuntResult hunt;
  const double hunt_ms = harness::time_best_of_ms(
      1, [&] { hunt = race::hunt_regret(root, hunted, hunt_options, cache); });

  util::Table hunt_table(
      {"region", "policy", "mean regret", "worst regret", "probes"});
  const std::size_t shown = std::min<std::size_t>(hunt.ranked.size(), 6);
  for (std::size_t i = 0; i < shown; ++i) {
    const race::RegionRegret& rr = hunt.ranked[i];
    hunt_table.add_row(
        {rr.region.name, sim::to_string(rr.policy),
         util::Table::fmt(rr.regret.mean, 5), util::Table::fmt(rr.worst_regret, 5),
         util::Table::fmt(static_cast<unsigned long long>(rr.regret.n))});
  }
  ctx.metric("hunt_scenarios", static_cast<double>(hunt.scenarios_evaluated));
  ctx.metric("hunt_worst_mean_regret",
             hunt.ranked.empty() ? 0.0 : hunt.ranked.front().regret.mean);
  ctx.metric("hunt_wall_ms", hunt_ms);

  ctx.table(hunt_table,
            "regret hunt over " + std::to_string(hunt.scenarios_evaluated) +
                " exact-regret probes (beam " + std::to_string(hunt_options.beam) +
                ", " + std::to_string(hunt_options.rounds) +
                " split rounds); regret normalized by lifespan");
  std::string verdict_text =
      "Reading: `budget_ratio_uniform_over_lucb` is how many sims fixed\n"
      "allocation spends per sim the adaptive race spends to reach the SAME\n"
      "verdict under the same stopping rule — the racing win. Successive\n"
      "halving shows the budgeted-elimination profile on the same arms. The\n"
      "hunt table lists where the closed-form guidelines trail the DP\n"
      "optimum worst (exact solver-side regret, deterministic).";
  if (!hunt.verdicts.empty()) {
    verdict_text += "\n\nWorst-region verdict record:\n";
    verdict_text += race::to_verdict_string(hunt.verdicts.front());
  }
  ctx.text(verdict_text);
}

}  // namespace

const harness::Experiment& experiment_policy_racing() {
  static const harness::Experiment e{
      "E16", "policy_racing",
      "Policy racing: adaptive vs fixed simulation budgets, and regret hunting",
      "Races (policy, scenario-region) arms with successive halving and "
      "LUCB-style best-arm identification against the fixed-allocation "
      "baseline under one (delta, epsilon) stopping rule, reporting the "
      "budget-to-verdict ratio; then hunts the generated scenario space for "
      "the regions where each guideline policy's exact regret against the DP "
      "optimum is worst.",
      run};
  return e;
}

}  // namespace nowsched::bench
