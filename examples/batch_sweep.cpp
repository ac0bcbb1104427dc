// Batch sweep: run a whole population of cycle-stealing sessions at once.
//
//   ./batch_sweep --sessions=512 --keys=8 --c=32 --u=4096 --p=3 --threads=4
//
// A production scheduler does not solve one contract at a time — it serves
// thousands of sessions drawn from a handful of contract classes. This
// example builds such a mix, runs it twice through sim::BatchRunner (naive
// per-session re-solving vs the sharded solve cache), and prints the
// aggregate work banked, the cache hit rate, and the throughput difference.
// The aggregates of the two runs are identical by the determinism contract.
#include <chrono>
#include <iostream>
#include <vector>

#include "nowsched.h"

using namespace nowsched;

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const std::size_t sessions = flags.get_count("sessions", 512);
  const std::size_t keys = flags.get_count("keys", 8);
  const Params params{flags.get_int("c", 32)};
  const Ticks base_u = flags.get_int("u", 4096);
  const int p = static_cast<int>(flags.get_int("p", 3));
  const std::size_t threads = flags.get_count("threads", 4);

  // The scenario mix: dp-optimal policies over `keys` contract classes, so
  // sessions sharing a class share one canonical W(p)[L] solve.
  std::vector<sim::ScenarioSpec> specs;
  specs.reserve(sessions);
  for (std::size_t i = 0; i < sessions; ++i) {
    sim::ScenarioSpec spec;
    spec.policy = sim::PolicyKind::kDpOptimal;
    spec.owner = sim::OwnerKind::kPoisson;
    spec.owner_a = 3000.0;
    spec.params = params;
    spec.lifespan = base_u + static_cast<Ticks>(i % keys) * 512;
    spec.max_interrupts = p;
    spec.seed = 0xB00 + i;
    specs.push_back(spec);
  }

  util::ThreadPool pool(threads);
  auto timed_run = [&](bool cached) {
    solver::SolveCache cache;
    sim::BatchOptions options;
    options.pool = &pool;
    options.shared_cache = cached ? &cache : nullptr;
    sim::BatchRunner runner(options);
    const auto start = std::chrono::steady_clock::now();
    const sim::BatchResult result = runner.run(specs);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    std::cout << (cached ? "cached" : "naive ") << ": " << sessions << " sessions in "
              << ms << " ms (" << static_cast<double>(sessions) / (ms / 1000.0)
              << " sessions/s), banked " << result.aggregate.banked_work
              << " ticks, hit rate " << result.cache.hit_rate() << "\n";
    return result.aggregate.banked_work;
  };

  std::cout << sessions << " dp-optimal sessions over " << keys
            << " contract classes, c = " << params.c << ", p = " << p << ", "
            << threads << " threads\n";
  const Ticks naive = timed_run(false);
  const Ticks cached = timed_run(true);
  if (naive != cached) {
    std::cerr << "determinism contract broken: aggregates differ\n";
    return 1;
  }
  std::cout << "aggregates identical — cache changes who solves, never the result\n";
  return 0;
}
