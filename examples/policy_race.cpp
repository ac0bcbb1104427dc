// policy_race — race scheduling policies against each other over generated
// scenario regions from the command line, or hunt the scenario space for
// the regions where a guideline policy's exact regret against the DP
// optimum is worst. Verdict records use the same strict text format the
// library round-trips bit-exactly (`nowsched-verdict v1`), so a saved file
// IS the reproducible claim.
//
//   policy_race                                  # race the default arm set
//   policy_race --mode=sh --budget=4096          # successive halving
//   policy_race --policies=equalized,adaptive-paper --owners=bursty
//   policy_race --out=verdicts.txt               # save the verdict records
//   policy_race --hunt --probes=16 --rounds=3    # adversarial regret hunt
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "nowsched.h"

using namespace nowsched;

namespace {

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> parts;
  std::stringstream ss(text);
  std::string part;
  while (std::getline(ss, part, ',')) {
    if (!part.empty()) parts.push_back(part);
  }
  return parts;
}

race::Region make_region(const std::string& owner_name, Ticks min_u, Ticks max_u) {
  race::Region region;
  region.name = owner_name;
  region.domain.owners = {sim::owner_kind_from_string(owner_name)};
  region.domain.min_c = 8;
  region.domain.max_c = 16;
  region.domain.min_lifespan = min_u;
  region.domain.max_lifespan = max_u;
  region.domain.min_interrupts = 1;
  region.domain.max_interrupts = 3;
  region.domain.contract_classes = 6;
  region.domain.class_fraction = 0.5;
  return region;
}

int write_verdicts(const std::string& path,
                   const std::vector<race::VerdictRecord>& verdicts) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "policy_race: cannot open " << path << " for writing\n";
    return 1;
  }
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    if (i > 0) out << "\n";
    out << "# verdict " << i + 1 << " of " << verdicts.size() << "\n";
    out << race::to_verdict_string(verdicts[i]);
  }
  std::cout << "wrote " << verdicts.size() << " verdict record"
            << (verdicts.size() == 1 ? "" : "s") << " to " << path << "\n";
  return 0;
}

int run_hunt(const util::Flags& flags) {
  race::Region root = make_region(flags.get("owners", "poisson"),
                                  64, flags.get_int("max-u", 1024));
  root.name = "all";
  root.domain.contract_classes = 0;  // hunt the raw contract space

  std::vector<sim::PolicyKind> policies;
  for (const std::string& name :
       split_csv(flags.get("policies", "equalized,adaptive-paper,nonadaptive-restart"))) {
    policies.push_back(sim::policy_kind_from_string(name));
  }

  race::RegretHuntOptions options;
  options.probes_per_region = flags.get_count("probes", 16);
  options.rounds = flags.get_count("rounds", 3);
  options.beam = flags.get_count("beam", 2);
  options.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));

  solver::SolveCache cache;
  const race::RegretHuntResult hunt =
      race::hunt_regret(root, policies, options, cache);

  std::cout << "regret hunt: " << hunt.scenarios_evaluated
            << " exact-regret probes (" << options.rounds << " split rounds, beam "
            << options.beam << ")\n\n";
  util::Table table({"region", "policy", "mean regret", "worst regret", "probes"});
  const std::size_t shown = std::min<std::size_t>(hunt.ranked.size(), 10);
  for (std::size_t i = 0; i < shown; ++i) {
    const race::RegionRegret& rr = hunt.ranked[i];
    table.add_row({rr.region.name, sim::to_string(rr.policy),
                   util::Table::fmt(rr.regret.mean, 5),
                   util::Table::fmt(rr.worst_regret, 5),
                   util::Table::fmt(static_cast<unsigned long long>(rr.regret.n))});
  }
  std::cout << table.to_string() << "\n";

  if (!hunt.ranked.empty()) {
    std::cout << "worst single scenario (replayable with scenario_fuzz --replay):\n"
              << sim::to_replay_string(hunt.ranked.front().worst) << "\n";
  }

  const std::string out = flags.get("out", "");
  if (!out.empty()) return write_verdicts(out, hunt.verdicts);
  if (!hunt.verdicts.empty()) {
    std::cout << "top verdict record (save all with --out=<file>):\n"
              << race::to_verdict_string(hunt.verdicts.front());
  }
  return 0;
}

int run_race(const util::Flags& flags) {
  const std::string mode_name = flags.get("mode", "lucb");
  race::Mode mode = race::Mode::kLucb;
  if (mode_name == "sh" || mode_name == "successive-halving") {
    mode = race::Mode::kSuccessiveHalving;
  } else if (mode_name == "uniform") {
    mode = race::Mode::kUniform;
  } else if (mode_name != "lucb") {
    std::cerr << "policy_race: unknown --mode=" << mode_name
              << " (expected lucb, sh, or uniform)\n";
    return 1;
  }

  const Ticks max_u = flags.get_int("max-u", 1024);
  std::vector<race::Region> regions;
  for (const std::string& owner : split_csv(flags.get("owners", "poisson,bursty"))) {
    regions.push_back(make_region(owner, max_u / 2, max_u));
  }
  std::vector<race::PolicyArm> arms;
  for (const std::string& name :
       split_csv(flags.get("policies", "dp-optimal,equalized,adaptive-paper"))) {
    const sim::PolicyKind policy = sim::policy_kind_from_string(name);
    for (std::size_t r = 0; r < regions.size(); ++r) {
      arms.push_back({policy, r});
    }
  }

  race::PolicyRaceOptions options;
  options.race.mode = mode;
  options.race.delta = flags.get_double("delta", 0.05);
  options.race.epsilon = flags.get_double("epsilon", 0.1);
  options.race.batch = flags.get_count("batch", 8);
  options.race.budget = flags.get_count("budget", 4096);
  options.race.max_total_pulls = flags.get_count("cap", 16384);
  options.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  util::ThreadPool pool(flags.get_count("threads", 4));
  options.batch.pool = &pool;
  solver::SolveCache solve_cache;
  options.batch.shared_cache = &solve_cache;

  race::PolicyRace policy_race(regions, arms, options);
  const race::PolicyRaceResult result = policy_race.run();
  const race::RaceResult& r = result.race;

  std::cout << "policy_race: " << arms.size() << " arms, mode "
            << race::to_string(mode) << ", delta " << options.race.delta
            << ", epsilon " << options.race.epsilon << ", seed " << options.seed
            << "\n";
  std::cout << "verdict: best arm " << race::arm_label(arms[r.best], regions)
            << (r.confident ? " (confident)" : " (budget exhausted, NOT confident)")
            << " after " << r.total_pulls << " pulls / " << r.rounds
            << " rounds\n\n";

  util::Table table({"arm", "mean", "lower", "upper", "pulls", "eliminated"});
  for (std::size_t i = 0; i < r.arms.size(); ++i) {
    const race::ArmOutcome& arm = r.arms[i];
    table.add_row({race::arm_label(arms[i], regions),
                   util::Table::fmt(arm.stats.mean, 5),
                   util::Table::fmt(arm.lower, 5), util::Table::fmt(arm.upper, 5),
                   util::Table::fmt(static_cast<unsigned long long>(arm.stats.n)),
                   arm.round_eliminated == 0
                       ? std::string("-")
                       : "round " + std::to_string(arm.round_eliminated)});
  }
  std::cout << table.to_string() << "\n";
  const solver::SolveCacheStats cache = solve_cache.stats();
  std::cout << "solve cache: " << cache.hits << " hits / " << cache.misses
            << " misses\n";

  const std::string out = flags.get("out", "");
  if (!out.empty()) return write_verdicts(out, result.verdicts);
  if (!result.verdicts.empty()) {
    std::cout << "\ntop verdict record (save all with --out=<file>):\n"
              << race::to_verdict_string(result.verdicts.front());
  }
  return 0;
}

}  // namespace

int main(int argc, const char* const* argv) {
  const util::Flags flags(argc, argv);
  if (flags.get_bool("hunt", false)) return run_hunt(flags);
  return run_race(flags);
}
