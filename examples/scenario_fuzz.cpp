// scenario_fuzz — drive generated workloads end to end from the command
// line: draw a seed-deterministic batch of scenarios (every policy, every
// owner process, contract classes, correlated farms), run it through
// sim::BatchRunner, and print the per-owner/per-policy breakdown plus the
// solve-cache behaviour. Any scenario can be exported as a replay record
// and re-run alone — the same text format the conformance suite emits for
// minimized failures (see README "Fuzzing & replaying failures").
//
//   scenario_fuzz --cases=256 --seed=42 --max-u=8192 --farms
//   scenario_fuzz --cases=64 --dump=7          # print scenario #7 as replay text
//   scenario_fuzz --replay=repro.scenario      # run one serialized scenario
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "nowsched.h"

using namespace nowsched;

namespace {

int run_replay(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "scenario_fuzz: cannot open replay file " << path << "\n";
    return 1;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const sim::ScenarioSpec spec = sim::scenario_from_replay(buffer.str());

  const auto policy = sim::make_policy(spec);
  const auto owner = sim::make_owner(spec);
  const sim::SessionMetrics metrics =
      sim::run_session(*policy, *owner,
                       Opportunity{spec.lifespan, spec.max_interrupts}, spec.params);
  std::cout << "replayed " << to_string(spec.policy) << " vs " << to_string(spec.owner)
            << " (c=" << spec.params.c << ", U=" << spec.lifespan
            << ", p=" << spec.max_interrupts << ")\n  " << metrics.to_string() << "\n";
  return 0;
}

}  // namespace

int main(int argc, const char* const* argv) {
  const util::Flags flags(argc, argv);

  const std::string replay = flags.get("replay", "");
  if (!replay.empty()) return run_replay(replay);

  const auto cases = flags.get_count("cases", 128);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const bool farms = flags.get_bool("farms", false);
  const long long dump = flags.get_int("dump", -1);

  sim::ScenarioDomain domain;
  domain.max_lifespan = flags.get_int("max-u", 8192);
  domain.max_interrupts = static_cast<int>(flags.get_int("max-p", 6));
  domain.contract_classes = flags.get_count("classes", 6);
  sim::ScenarioGenerator gen(domain, seed);

  if (dump >= 0) {
    std::cout << sim::to_replay_string(gen.at(static_cast<std::uint64_t>(dump)));
    return 0;
  }

  std::vector<sim::ScenarioSpec> specs;
  while (specs.size() < cases) {
    if (farms) {
      for (auto& spec : gen.farm_group(domain.farm_size)) specs.push_back(spec);
    } else {
      specs.push_back(gen.next());
    }
  }
  specs.resize(cases);

  util::ThreadPool pool(flags.get_count("threads", 4));
  solver::SolveCache cache;
  sim::BatchOptions options;
  options.pool = &pool;
  options.shared_cache = &cache;
  sim::BatchRunner runner(options);
  const sim::BatchResult result = runner.run(specs);

  std::map<std::string, std::pair<std::size_t, Ticks>> by_owner;
  std::map<std::string, std::pair<std::size_t, Ticks>> by_policy;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    auto& o = by_owner[to_string(specs[i].owner)];
    o.first += 1;
    o.second += result.per_scenario[i].banked_work;
    auto& p = by_policy[to_string(specs[i].policy)];
    p.first += 1;
    p.second += result.per_scenario[i].banked_work;
  }

  std::cout << "scenario_fuzz: " << cases << " generated sessions (seed " << seed
            << (farms ? ", correlated farms" : "") << ")\n";
  std::cout << "aggregate: " << result.aggregate.to_string() << "\n";
  std::cout << "solve cache: " << result.cache.hits << " hits / "
            << result.cache.misses << " misses ("
            << result.cache.hit_rate() * 100.0 << "% hit rate), "
            << result.cache.resident_bytes / 1024 << " KiB resident\n";
  std::cout << "\nby owner process:\n";
  for (const auto& [name, stat] : by_owner) {
    std::cout << "  " << name << ": " << stat.first << " sessions, banked "
              << stat.second << "\n";
  }
  std::cout << "\nby policy:\n";
  for (const auto& [name, stat] : by_policy) {
    std::cout << "  " << name << ": " << stat.first << " sessions, banked "
              << stat.second << "\n";
  }
  std::cout << "\nexport any scenario with --dump=<i>; re-run one with "
               "--replay=<file>.\n";
  return 0;
}
