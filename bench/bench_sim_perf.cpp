// E11 — simulator throughput: single sessions, dp-optimal sessions (built
// prefix versus whole episodes), guideline sessions (built versus memoized
// opening episode) and task-bag packing. Self-timed on the harness clock;
// the farm-scale sweep lives in E12 (bench_farm_scaling).
#include <memory>
#include <string>
#include <vector>

#include "harness/harness.h"

#include "adversary/stochastic.h"
#include "adversary/trace.h"
#include "core/equalized.h"
#include "core/guidelines.h"
#include "sim/batch_runner.h"
#include "sim/session.h"
#include "sim/taskbag.h"
#include "solver/extract.h"
#include "solver/fast_solver.h"

namespace nowsched::bench {
namespace {

/// Forwards to a policy and counts the periods it builds.
class CountingPolicy final : public SchedulingPolicy {
 public:
  explicit CountingPolicy(const SchedulingPolicy& inner) : inner_(inner) {}
  std::string name() const override { return inner_.name(); }
  EpisodeSchedule episode(Ticks residual, int interrupts_left,
                          const Params& params) const override {
    return counted(inner_.episode(residual, interrupts_left, params));
  }
  EpisodeSchedule episode_prefix(Ticks residual, int interrupts_left,
                                 const Params& params, Ticks until) const override {
    return counted(inner_.episode_prefix(residual, interrupts_left, params, until));
  }
  std::size_t built() const noexcept { return built_; }

 private:
  EpisodeSchedule counted(EpisodeSchedule episode) const {
    built_ += episode.size();
    return episode;
  }
  const SchedulingPolicy& inner_;
  mutable std::size_t built_ = 0;
};

void run(harness::Context& ctx) {
  const int reps = ctx.quick() ? 1 : 3;

  // 1. Full sessions: model-only and with a task bag attached.
  {
    const int sessions = ctx.quick() ? 100 : 1000;
    const Opportunity opp{16 * 4096, 4};
    const AdaptiveGuidelinePolicy adaptive;
    const EqualizedGuidelinePolicy equalized;

    const double model_ms = harness::time_best_of_ms(reps, [&] {
      adversary::PoissonAdversary owner(500.0, 42);
      for (int i = 0; i < sessions; ++i) {
        owner.reset(42);
        sim::run_session(adaptive, owner, opp, Params{16});
      }
    });
    const double bag_ms = harness::time_best_of_ms(reps, [&] {
      adversary::PoissonAdversary owner(500.0, 42);
      for (int i = 0; i < sessions; ++i) {
        owner.reset(42);
        auto bag = sim::TaskBag::uniform(4096, 13);
        sim::run_session(equalized, owner, opp, Params{16}, &bag);
      }
    });
    harness::write_perf_row(ctx, "session_model_only", static_cast<double>(sessions), model_ms,
           static_cast<double>(sessions));
    harness::write_perf_row(ctx, "session_with_taskbag", static_cast<double>(sessions), bag_ms,
           static_cast<double>(sessions));
    ctx.metric("sessions_per_sec_model_only",
               model_ms > 0 ? sessions / (model_ms / 1000.0) : 0.0);

    util::Table out({"variant", "sessions", "ms", "us/session"});
    out.add_row({"model only", util::Table::fmt(static_cast<long long>(sessions)),
                 util::Table::fmt(model_ms, 5),
                 util::Table::fmt(model_ms * 1000.0 / sessions, 5)});
    out.add_row({"with task bag", util::Table::fmt(static_cast<long long>(sessions)),
                 util::Table::fmt(bag_ms, 5),
                 util::Table::fmt(bag_ms * 1000.0 / sessions, 5)});
    ctx.table(out, "single sessions, U = 65536, p = 4, Poisson owner");
  }

  // 2. dp-optimal sessions. The Poisson owner is oblivious, so a session
  // builds each interrupted episode only through the killed period; behind
  // a RecordingAdversary (schedule-aware) it builds every episode whole.
  // Both runs bank the same work; the table is solved outside the clock.
  // The owner's mean gap is U / 8, so its four interrupts spread over the
  // lifespan instead of all landing in the first episodes' opening periods.
  {
    const int sessions = ctx.quick() ? 100 : 1000;
    const Opportunity opp{16 * 4096, 4};
    const Params params{16};
    const double mean_gap = static_cast<double>(opp.lifespan) / 8;
    const solver::OptimalPolicy optimal(std::make_shared<const solver::ValueTable>(
        solver::solve_fast(opp.max_interrupts, opp.lifespan, params)));

    util::Table out({"episodes built", "sessions", "ms", "us/session",
                     "periods built/session", "periods run/session"});
    for (const bool whole : {false, true}) {
      const auto session = [&](const SchedulingPolicy& policy,
                               adversary::PoissonAdversary& owner) {
        owner.reset(42);
        if (!whole) return sim::run_session(policy, owner, opp, params);
        adversary::RecordingAdversary recorded(owner);
        return sim::run_session(policy, recorded, opp, params);
      };
      const double ms = harness::time_best_of_ms(reps, [&] {
        adversary::PoissonAdversary owner(mean_gap, 42);
        for (int i = 0; i < sessions; ++i) session(optimal, owner);
      });
      // One untimed session counts the periods (every session is the same).
      const CountingPolicy counting(optimal);
      adversary::PoissonAdversary owner(mean_gap, 42);
      const sim::SessionMetrics m = session(counting, owner);
      const std::size_t run = m.periods_completed + m.periods_killed;
      harness::write_perf_row(ctx, whole ? "dp_optimal_whole_episodes" : "dp_optimal_prefix",
                              static_cast<double>(sessions), ms,
                              static_cast<double>(sessions));
      out.add_row({whole ? "whole (recorded owner)" : "prefix (oblivious owner)",
                   util::Table::fmt(static_cast<long long>(sessions)),
                   util::Table::fmt(ms, 5), util::Table::fmt(ms * 1000.0 / sessions, 5),
                   util::Table::fmt(static_cast<unsigned long long>(counting.built())),
                   util::Table::fmt(static_cast<unsigned long long>(run))});
    }
    ctx.table(out, "dp-optimal sessions, U = 65536, p = 4, c = 16, Poisson owner (mean gap U/8)");
  }

  // 3. Guideline sessions, whose episodes are built from real-valued
  // lengths rounded to ticks. Without a cache every session builds its
  // opening episode; with one, the opening is memoized by an untimed warm-up
  // run and only the later episodes are built. One thread, no task bag.
  {
    const int sessions = ctx.quick() ? 200 : 2000;
    std::vector<sim::ScenarioSpec> specs(static_cast<std::size_t>(sessions));
    util::Table out({"policy", "opening", "sessions", "ms", "us/session"});
    for (const auto& [kind, slug] :
         {std::pair{sim::PolicyKind::kEqualized, "equalized"},
          std::pair{sim::PolicyKind::kAdaptivePaper, "adaptive_paper"}}) {
      for (std::size_t i = 0; i < specs.size(); ++i) {
        specs[i].policy = kind;
        specs[i].owner = sim::OwnerKind::kPoisson;
        specs[i].owner_a = 65536.0 / 8;
        specs[i].params = Params{16};
        specs[i].lifespan = 65536;
        specs[i].max_interrupts = 4;
        specs[i].seed = i;
      }
      for (const bool memoized : {false, true}) {
        solver::SolveCache cache;
        sim::BatchOptions options;
        if (memoized) options.shared_cache = &cache;
        sim::BatchRunner runner(options);
        if (memoized) runner.run(specs);
        const double ms = harness::time_best_of_ms(reps, [&] { runner.run(specs); });
        const std::string opening = memoized ? "memoized" : "built";
        harness::write_perf_row(ctx, std::string(slug) + "_session_" + opening + "_opening",
                                static_cast<double>(sessions), ms,
                                static_cast<double>(sessions));
        out.add_row({slug, opening, util::Table::fmt(static_cast<long long>(sessions)),
                     util::Table::fmt(ms, 5), util::Table::fmt(ms * 1000.0 / sessions, 5)});
      }
    }
    ctx.table(out, "guideline sessions, U = 65536, p = 4, c = 16, Poisson owner (mean gap U/8)");
  }

  // 4. Task-bag packing: draining a bag through batched take/complete.
  {
    const std::size_t tasks = ctx.quick() ? (1u << 12) : (1u << 14);
    const double ms = harness::time_best_of_ms(reps, [&] {
      auto bag = sim::TaskBag::uniform(tasks, 7);
      while (!bag.done()) {
        auto batch = bag.take_batch(700);
        bag.mark_completed(batch);
      }
    });
    harness::write_perf_row(ctx, "taskbag_packing", static_cast<double>(tasks), ms,
           static_cast<double>(tasks));
    util::Table out({"tasks", "ms", "tasks/s"});
    out.add_row({util::Table::fmt(static_cast<unsigned long long>(tasks)),
                 util::Table::fmt(ms, 5),
                 util::Table::fmt(ms > 0 ? static_cast<double>(tasks) / (ms / 1000.0)
                                         : 0.0,
                                  5)});
    ctx.table(out, "task-bag packing (batch = 700 ticks)");
  }
}

}  // namespace

const harness::Experiment& experiment_sim_perf() {
  static const harness::Experiment e{
      "E11", "sim_perf", "Simulator throughput baselines",
      "Wall-clock baselines for the discrete-event simulator: full scheduling "
      "sessions with and without a task bag attached, dp-optimal sessions "
      "building only the periods the owner reaches versus whole episodes, "
      "equalized and adaptive-paper sessions with a built versus a memoized "
      "opening episode, and task-bag packing throughput.",
      run};
  return e;
}

}  // namespace nowsched::bench
