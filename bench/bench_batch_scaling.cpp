// E13 — batch scaling: sim::BatchRunner driving a large mix of dp-optimal
// sessions, sweeping pool threads × solve-cache tier. The cache-friendly mix
// (many sessions over few distinct canonical solver inputs) is the shape a
// production service sees — thousands of contracts drawn from a handful of
// (c, U, p) classes — and the quantity under test is sessions/sec. The four
// modes walk the tiering ladder of solver/table_store.h: `naive` re-solves
// per session, `cold-ram` fills a fresh RAM cache, `warm-ram` reruns on the
// already-hot cache, and `mapped` starts a cold RAM cache over a pre-baked
// read-only persistent store (every miss answered by an mmap read, zero
// solves). The aggregate metrics are asserted bit-identical across every
// (threads, mode) cell, so this bench doubles as a live determinism check —
// including across persistence tiers — on real workloads.
#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/harness.h"

#include "sim/batch_runner.h"
#include "solver/solve_cache.h"
#include "solver/table_store.h"
#include "util/thread_pool.h"

namespace nowsched::bench {
namespace {

std::vector<sim::ScenarioSpec> make_mix(std::size_t sessions, std::size_t keys,
                                        Ticks base_u, Ticks step_u, int p, Ticks c) {
  std::vector<sim::ScenarioSpec> specs;
  specs.reserve(sessions);
  for (std::size_t i = 0; i < sessions; ++i) {
    sim::ScenarioSpec spec;
    spec.policy = sim::PolicyKind::kDpOptimal;
    spec.owner = sim::OwnerKind::kPoisson;
    spec.owner_a = 3000.0;
    spec.params = Params{c};
    spec.lifespan = base_u + static_cast<Ticks>(i % keys) * step_u;
    spec.max_interrupts = p;
    spec.seed = 0x9E00 + i;
    specs.push_back(spec);
  }
  return specs;
}

void run(harness::Context& ctx) {
  const util::Flags& flags = ctx.flags();
  const Ticks c = flags.get_int("c", 32);
  const int p = static_cast<int>(flags.get_int("p", ctx.quick() ? 3 : 4));
  const std::size_t keys = flags.get_count("keys", ctx.quick() ? 4 : 8);
  const std::size_t sessions = flags.get_count("sessions", ctx.quick() ? 96 : 1024);
  const Ticks base_u = flags.get_int("u", ctx.quick() ? 2048 : 4096);
  const Ticks step_u = flags.get_int("step", 512);
  const int reps = ctx.quick() ? 1 : 2;

  const auto specs = make_mix(sessions, keys, base_u, step_u, p, c);
  const std::vector<std::size_t> thread_counts =
      ctx.quick() ? std::vector<std::size_t>{1, 2, 4}
                  : std::vector<std::size_t>{1, 2, 4, 8};

  // Bake the persistent store once so every `mapped` cell below mounts it
  // read-only and warm: misses become mmap reads instead of solves.
  harness::ScratchDir store_dir("e13-store");
  {
    solver::SolveCache::Options bake_options;
    bake_options.store = std::make_shared<solver::MappedTableStore>(
        solver::MappedTableStore::Options{store_dir.path(), false});
    solver::SolveCache bake_cache(bake_options);
    sim::BatchOptions bake;
    bake.shared_cache = &bake_cache;
    sim::BatchRunner(bake).run(specs);
  }
  auto warm_store = std::make_shared<solver::MappedTableStore>(
      solver::MappedTableStore::Options{store_dir.path(), /*read_only=*/true});

  const std::vector<std::string> modes = {"naive", "cold-ram", "warm-ram",
                                          "mapped"};

  ctx.csv({"threads", "mode", "sessions", "wall_ms", "sessions_per_sec",
           "hit_rate", "store_hits", "banked_total"});
  util::Table out({"threads", "mode", "wall ms", "sessions/s", "hit rate",
                   "store hits", "banked total"});

  // Every cell must report this aggregate; the first run sets it.
  Ticks banked_reference = -1;
  double naive_per_sec_1t = 0.0, cold_per_sec_1t = 0.0;
  double warm_per_sec_1t = 0.0, mapped_per_sec_1t = 0.0;
  double best_per_sec = 0.0, hit_rate = 0.0;

  for (std::size_t threads : thread_counts) {
    util::ThreadPool pool(threads);
    for (const std::string& mode : modes) {
      // `warm-ram` keeps one cache hot across reps (the timed run hits RAM
      // for every key); `cold-ram` and `mapped` get a fresh default-sized
      // cache per rep so it starts cold and the hit rate is the
      // deterministic (sessions − keys) / sessions of one batch; `naive`
      // runs without a cache.
      solver::SolveCache::Options cache_options;
      if (mode == "mapped") cache_options.store = warm_store;
      sim::BatchOptions opts;
      opts.pool = &pool;
      std::unique_ptr<solver::SolveCache> warm_cache;
      if (mode == "warm-ram") {
        warm_cache = std::make_unique<solver::SolveCache>(cache_options);
        opts.shared_cache = warm_cache.get();
        sim::BatchRunner(opts).run(specs);  // warm-up: not timed
      }

      sim::BatchResult result;
      const double ms = harness::time_best_of_ms(reps, [&] {
        sim::BatchOptions run_opts = opts;
        std::unique_ptr<solver::SolveCache> cold_cache;
        if (mode == "cold-ram" || mode == "mapped") {
          cold_cache = std::make_unique<solver::SolveCache>(cache_options);
          run_opts.shared_cache = cold_cache.get();
        }
        sim::BatchRunner runner(run_opts);
        result = runner.run(specs);
      });

      if (banked_reference < 0) banked_reference = result.aggregate.banked_work;
      if (result.aggregate.banked_work != banked_reference) {
        throw std::logic_error(
            "batch aggregate diverged across threads/cache tiers: determinism "
            "contract broken");
      }
      if (mode == "mapped" && result.cache.store_hits == 0) {
        throw std::logic_error(
            "mapped mode answered no miss from the baked store");
      }

      const double per_sec =
          ms > 0 ? static_cast<double>(sessions) / (ms / 1000.0) : 0.0;
      const double rate = mode == "naive" ? 0.0 : result.cache.hit_rate();
      if (threads == 1) {
        if (mode == "naive") naive_per_sec_1t = per_sec;
        if (mode == "cold-ram") cold_per_sec_1t = per_sec;
        if (mode == "warm-ram") warm_per_sec_1t = per_sec;
        if (mode == "mapped") mapped_per_sec_1t = per_sec;
      }
      if (mode != "naive") {
        best_per_sec = std::max(best_per_sec, per_sec);
        if (mode == "cold-ram") hit_rate = rate;
      }

      ctx.write_csv_row({std::to_string(threads), mode, std::to_string(sessions),
                         util::Table::fmt(ms, 5), util::Table::fmt(per_sec, 5),
                         util::Table::fmt(rate, 4),
                         std::to_string(result.cache.store_hits),
                         std::to_string(static_cast<long long>(
                             result.aggregate.banked_work))});
      out.add_row({util::Table::fmt(static_cast<unsigned long long>(threads)), mode,
                   util::Table::fmt(ms, 5), util::Table::fmt(per_sec, 5),
                   util::Table::fmt(rate, 4),
                   util::Table::fmt(static_cast<unsigned long long>(
                       result.cache.store_hits)),
                   util::Table::fmt(static_cast<long long>(
                       result.aggregate.banked_work))});
    }
  }

  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  ctx.metric("cache_hit_rate", hit_rate);
  ctx.metric("speedup_vs_naive", ratio(cold_per_sec_1t, naive_per_sec_1t));
  ctx.metric("warm_ram_speedup_vs_naive",
             ratio(warm_per_sec_1t, naive_per_sec_1t));
  ctx.metric("mapped_speedup_vs_naive",
             ratio(mapped_per_sec_1t, naive_per_sec_1t));
  ctx.metric("mapped_over_cold_ram", ratio(mapped_per_sec_1t, cold_per_sec_1t));
  ctx.metric("best_sessions_per_sec", best_per_sec);

  ctx.table(out, std::to_string(sessions) + " dp-optimal sessions over " +
                     std::to_string(keys) + " solver keys, c = " + std::to_string(c) +
                     ", p = " + std::to_string(p) + ", Poisson owners");
  ctx.text(
      "Reading: `naive` re-solves W(p)[U] per session; `cold-ram` resolves\n"
      "each of the " + std::to_string(keys) + " canonical keys once and shares\n"
      "the table (hit rate (sessions − keys) / sessions); `warm-ram` reruns\n"
      "the batch on the already-hot cache (every session a RAM hit);\n"
      "`mapped` starts a COLD RAM cache over a pre-baked read-only persistent\n"
      "store, so every miss is answered by an mmap read and zero tables are\n"
      "solved — the warm-start deployment shape. `mapped_over_cold_ram` is\n"
      "the headline warm-start win (solves avoided entirely); the 1-thread\n"
      "cold-ram/naive ratio remains the pure RAM-cache win. Every cell\n"
      "reproduced the same aggregate banked work — the batch is\n"
      "bit-deterministic across thread counts and cache tiers by contract.");
}

}  // namespace

const harness::Experiment& experiment_batch_scaling() {
  static const harness::Experiment e{
      "E13", "batch_scaling",
      "Batch scaling: many-session engine across the solve-cache tiers",
      "Throughput of sim::BatchRunner on a cache-friendly scenario mix — many "
      "dp-optimal sessions over few distinct canonical solver inputs — "
      "sweeping pool threads against the full cache-tier ladder (naive, "
      "cold RAM, warm RAM, pre-baked mapped store) and asserting the batch "
      "aggregate is bit-identical in every cell.",
      run};
  return e;
}

}  // namespace nowsched::bench
