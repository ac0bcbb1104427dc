// Overnight render farm on borrowed workstations — the data-parallel
// workload the paper's introduction motivates.
//
// A studio borrows colleagues' machines overnight to render animation
// frames. Each machine has a draconian contract: if its owner comes back
// (laptop unplugged, console reclaimed), every frame in flight is lost.
// Frames are indivisible tasks of varying cost; each period ships a batch of
// frames to the workstation and collects the results (setup cost c per
// round trip).
//
//   ./render_farm --stations=6 --frames=4000 --seed=1
//
// Compares the naive "send half the night's work at once" plan against the
// paper's guidelines across identical owner behaviour (recorded traces).
#include <iostream>
#include <memory>

#include "nowsched.h"

using namespace nowsched;

namespace {

struct PlanResult {
  std::string name;
  sim::FarmResult farm;
};

PlanResult run_plan(const std::string& name, const PolicyPtr& policy,
                    std::size_t stations, std::size_t frames, std::uint64_t seed,
                    const Params& params) {
  // Heterogeneous contracts: desktops (long lifespans, patient owners) and
  // laptops (short lifespans, twitchy owners). Owner processes are seeded
  // identically across plans so the comparison is apples-to-apples.
  std::vector<sim::WorkstationConfig> cfgs;
  util::Rng rng(seed);
  for (std::size_t i = 0; i < stations; ++i) {
    sim::WorkstationConfig cfg;
    const bool laptop = (i % 2 == 1);
    cfg.name = (laptop ? "laptop-" : "desktop-") + std::to_string(i);
    cfg.params = params;
    cfg.opportunity =
        Opportunity{laptop ? 16 * 2048 : 16 * 8192, laptop ? 4 : 2};
    cfg.policy = policy;
    cfg.owner = std::make_shared<adversary::ParetoSessionAdversary>(
        laptop ? 4000.0 : 20000.0, 1.3, rng.next());
    cfg.start_time = static_cast<Ticks>(rng.next_below(500));  // staggered logins
    cfgs.push_back(std::move(cfg));
  }
  util::Rng task_rng(seed ^ 0xABCD);
  auto bag = sim::TaskBag::random(frames, 40, 360, task_rng);
  return {name, sim::run_farm(cfgs, bag)};
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const Params params{flags.get_int("c", 16)};
  const auto stations = flags.get_count("stations", 6);
  const auto frames = flags.get_count("frames", 4000);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));

  std::cout << "Render farm: " << stations << " borrowed workstations, " << frames
            << " frames (seed " << seed << ")\n\n";

  std::vector<PlanResult> results;
  results.push_back(run_plan("single-block (ship everything at once)",
                             std::make_shared<SingleBlockPolicy>(), stations, frames,
                             seed, params));
  results.push_back(run_plan("fixed-chunk 16c (folk wisdom)",
                             std::make_shared<FixedChunkPolicy>(16.0), stations, frames,
                             seed, params));
  results.push_back(run_plan("adaptive guideline (§3.2)",
                             std::make_shared<AdaptiveGuidelinePolicy>(), stations,
                             frames, seed, params));
  results.push_back(run_plan("equalized guideline (§4.2)",
                             std::make_shared<EqualizedGuidelinePolicy>(), stations,
                             frames, seed, params));

  util::Table out({"plan", "frames done", "frame work", "lost work", "comm", "frag",
                   "interrupts"},
                  {util::Align::kLeft, util::Align::kRight, util::Align::kRight,
                   util::Align::kRight, util::Align::kRight, util::Align::kRight,
                   util::Align::kRight});
  for (const auto& r : results) {
    const auto& m = r.farm.aggregate;
    out.add_row({r.name, util::Table::fmt(static_cast<long long>(m.tasks_completed)),
                 util::Table::fmt(static_cast<long long>(m.task_work)),
                 util::Table::fmt(static_cast<long long>(m.lost_work)),
                 util::Table::fmt(static_cast<long long>(m.comm_overhead)),
                 util::Table::fmt(static_cast<long long>(m.fragmentation)),
                 util::Table::fmt(static_cast<long long>(m.interrupts))});
  }
  out.print(std::cout, "Overnight results (ticks of frame work banked)");

  std::cout << "\nPer-workstation detail for the equalized plan:\n";
  const auto& eq = results.back().farm;
  for (std::size_t i = 0; i < eq.per_workstation.size(); ++i) {
    std::cout << "  station " << i << ": " << eq.per_workstation[i].to_string() << "\n";
  }
  std::cout << "\nThe guideline plans keep nearly all their completed-period work\n"
               "under owner churn; the single-block plan forfeits every machine\n"
               "whose owner returned before dawn.\n";
  return 0;
}
