// E12 — farm scaling: a network of borrowed workstations draining one shared
// task bag (the §1 setting, at production scale). Sweeps the farm size and
// reports both the model outputs (total banked work, makespan, DES events —
// deterministic, fixed seeds) and this machine's wall clock per farm run.
#include <memory>
#include <vector>

#include "harness/harness.h"

#include "adversary/stochastic.h"
#include "core/equalized.h"
#include "sim/farm.h"
#include "sim/taskbag.h"

namespace nowsched::bench {
namespace {

void run(harness::Context& ctx) {
  const util::Flags& flags = ctx.flags();
  const Params params{flags.get_int("c", 16)};
  const Ticks u = flags.get_int("u", 16 * 1024);
  const int p = static_cast<int>(flags.get_int("p", 2));
  const int reps = ctx.quick() ? 1 : 3;

  ctx.csv({"stations", "banked_total", "makespan", "events", "tasks_left",
           "wall_ms", "stations_per_sec"});

  auto policy = std::make_shared<EqualizedGuidelinePolicy>();
  const std::vector<std::size_t> farm_sizes =
      ctx.quick() ? std::vector<std::size_t>{1, 4, 8}
                  : std::vector<std::size_t>{1, 2, 4, 8, 16, 32, 64};

  util::Table out({"stations", "banked total", "makespan", "events", "wall ms",
                   "stations/s"});
  for (std::size_t stations : farm_sizes) {
    auto build_farm = [&] {
      std::vector<sim::WorkstationConfig> cfgs;
      cfgs.reserve(stations);
      for (std::size_t i = 0; i < stations; ++i) {
        sim::WorkstationConfig cfg;
        // Assemble via append rather than operator+: string concatenation of
        // a literal with std::to_string trips a GCC 12 -Wrestrict false
        // positive (GCC bug 105651) when inlined under -O2. Retested on GCC
        // 12.2: still fires — keep until the toolchain reaches GCC 13.
        cfg.name = "b";
        cfg.name += std::to_string(i);
        cfg.opportunity = Opportunity{u, p};
        cfg.params = params;
        cfg.policy = policy;
        cfg.owner = std::make_shared<adversary::PoissonAdversary>(3000.0, 7 + i);
        cfgs.push_back(std::move(cfg));
      }
      return cfgs;
    };

    // Model outputs once (deterministic), wall clock best-of-reps.
    auto cfgs = build_farm();
    auto bag = sim::TaskBag::uniform(stations * 2048, 11);
    const auto result = sim::run_farm(cfgs, bag);

    const double ms = harness::time_best_of_ms(reps, [&] {
      auto timed_cfgs = build_farm();
      auto timed_bag = sim::TaskBag::uniform(stations * 2048, 11);
      sim::run_farm(timed_cfgs, timed_bag);
    });

    const double per_sec =
        ms > 0 ? static_cast<double>(stations) / (ms / 1000.0) : 0.0;
    ctx.write_csv_row({static_cast<double>(stations),
                       static_cast<double>(result.aggregate.banked_work),
                       static_cast<double>(result.makespan),
                       static_cast<double>(result.events),
                       static_cast<double>(result.tasks_left), ms, per_sec});
    out.add_row({util::Table::fmt(static_cast<unsigned long long>(stations)),
                 util::Table::fmt(static_cast<long long>(result.aggregate.banked_work)),
                 util::Table::fmt(static_cast<long long>(result.makespan)),
                 util::Table::fmt(static_cast<unsigned long long>(result.events)),
                 util::Table::fmt(ms, 5), util::Table::fmt(per_sec, 5)});
    if (stations == farm_sizes.back()) {
      ctx.metric("largest_farm_stations", static_cast<double>(stations));
      ctx.metric("largest_farm_wall_ms", ms);
      ctx.metric("largest_farm_stations_per_sec", per_sec);
    }
  }
  ctx.table(out, "equalized policy, U = " + std::to_string(u) + ", p = " +
                     std::to_string(p) + ", Poisson owners, shared bag of 2048 "
                     "tasks/station");
  ctx.text(
      "Reading: banked work and events scale linearly with the farm (each\n"
      "workstation's contract is independent; only the bag is shared), so\n"
      "stations/s holding steady across the sweep means the DES core costs\n"
      "O(events) with no superlinear queue or bag contention.");
}

}  // namespace

const harness::Experiment& experiment_farm_scaling() {
  static const harness::Experiment e{
      "E12", "farm_scaling", "Farm scaling: shared task bag across workstations",
      "Farm-size sweep of the discrete-event simulator in the paper's §1 "
      "setting — many borrowed workstations draining one shared task bag — "
      "reporting deterministic model outputs (banked work, makespan, events) "
      "alongside this machine's wall clock per farm run.",
      run};
  return e;
}

}  // namespace nowsched::bench
