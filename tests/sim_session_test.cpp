#include "sim/session.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "adversary/heuristics.h"
#include "adversary/stochastic.h"
#include "adversary/trace.h"
#include "core/baselines.h"
#include "core/guidelines.h"
#include "sim/scenario_gen.h"
#include "solver/policy_eval.h"

namespace nowsched::sim {
namespace {

constexpr Params kParams{16};

/// Converts a solver BestResponse into an absolute-time interrupt trace by
/// replaying the policy's episodes move by move.
adversary::InterruptTrace to_trace(const solver::BestResponse& br,
                                   const SchedulingPolicy& policy, Ticks lifespan,
                                   int p, const Params& params) {
  adversary::InterruptTrace trace;
  Ticks consumed = 0;
  Ticks l = lifespan;
  int q = p;
  for (const auto& move : br.moves) {
    const auto episode = policy.episode(l, q, params);
    if (!move.killed) break;
    const Ticks tick = episode.end(*move.killed);
    trace.append(consumed + tick);
    consumed += tick;
    l -= tick;
    --q;
  }
  return trace;
}

TEST(Session, UninterruptedRunBanksAllWork) {
  adversary::NoOpAdversary owner;
  AdaptiveGuidelinePolicy policy;
  const Opportunity opp{1000, 3};
  const auto metrics = run_session(policy, owner, opp, kParams);
  const auto episode = policy.episode(1000, 3, kParams);
  EXPECT_EQ(metrics.banked_work, episode.work_if_uninterrupted(kParams));
  EXPECT_EQ(metrics.interrupts, 0);
  EXPECT_EQ(metrics.episodes, 1u);
  EXPECT_EQ(metrics.periods_completed, episode.size());
  EXPECT_EQ(metrics.lifespan_used, 1000);
}

TEST(Session, LifespanConservation) {
  // banked + comm + killed-capacity bookkeeping must add back to U.
  adversary::FirstPeriodAdversary owner;
  AdaptiveGuidelinePolicy policy;
  const auto metrics = run_session(policy, owner, Opportunity{2000, 2}, kParams);
  EXPECT_EQ(metrics.lifespan_used, 2000);
  EXPECT_EQ(metrics.interrupts, 2);
  EXPECT_EQ(metrics.episodes, 3u);  // 2 interrupted + 1 final
}

TEST(Session, ZeroLifespanFinishesImmediately) {
  adversary::NoOpAdversary owner;
  SingleBlockPolicy policy;
  const auto metrics = run_session(policy, owner, Opportunity{0, 1}, kParams);
  EXPECT_EQ(metrics.banked_work, 0);
  EXPECT_EQ(metrics.episodes, 0u);
}

TEST(Session, MinimaxTraceReproducesAnalyticGuaranteedWork) {
  // The keystone integration check: the DES run under the solver's optimal
  // adversary play must bank EXACTLY the analytic guaranteed work.
  const AdaptiveGuidelinePolicy policy;
  for (Ticks u : {Ticks{500}, Ticks{1000}, Ticks{1777}}) {
    for (int p : {0, 1, 2, 3}) {
      const auto br = solver::best_response(policy, u, p, kParams);
      adversary::TraceAdversary owner(to_trace(br, policy, u, p, kParams));
      const auto metrics = run_session(policy, owner, Opportunity{u, p}, kParams);
      EXPECT_EQ(metrics.banked_work, br.value) << "u=" << u << " p=" << p;
      EXPECT_EQ(metrics.lifespan_used, u);
    }
  }
}

TEST(Session, MinimaxTraceReproducesAnalyticForBaselines) {
  const FixedChunkPolicy chunks(3.0);
  const GeometricPolicy geo(2.0, 2.0);
  for (const SchedulingPolicy* policy :
       {static_cast<const SchedulingPolicy*>(&chunks),
        static_cast<const SchedulingPolicy*>(&geo)}) {
    const Ticks u = 1200;
    const int p = 2;
    const auto br = solver::best_response(*policy, u, p, kParams);
    adversary::TraceAdversary owner(to_trace(br, *policy, u, p, kParams));
    const auto metrics = run_session(*policy, owner, Opportunity{u, p}, kParams);
    EXPECT_EQ(metrics.banked_work, br.value) << policy->name();
  }
}

TEST(Session, HeuristicOwnersNeverPushBelowGuaranteed) {
  // The guaranteed value is a floor across ALL owner behaviours.
  const AdaptiveGuidelinePolicy policy;
  const Ticks u = 1500;
  const int p = 2;
  const Ticks floor_value = solver::evaluate_policy(policy, u, p, kParams);
  adversary::FirstPeriodAdversary first;
  adversary::LargestPeriodAdversary largest;
  adversary::ObservationAdversary observed;
  adversary::NoOpAdversary noop;
  for (adversary::Adversary* owner :
       {static_cast<adversary::Adversary*>(&first),
        static_cast<adversary::Adversary*>(&largest),
        static_cast<adversary::Adversary*>(&observed),
        static_cast<adversary::Adversary*>(&noop)}) {
    const auto metrics = run_session(policy, *owner, Opportunity{u, p}, kParams);
    EXPECT_GE(metrics.banked_work, floor_value) << owner->name();
  }
}

TEST(Session, StochasticOwnersRespectInterruptBudget) {
  AdaptiveGuidelinePolicy policy;
  adversary::PoissonAdversary owner(100.0, 31);
  for (int p : {0, 1, 2, 5}) {
    owner.reset(static_cast<std::uint64_t>(p) * 7 + 1);
    const auto metrics = run_session(policy, owner, Opportunity{3000, p}, kParams);
    EXPECT_LE(metrics.interrupts, p);
    EXPECT_EQ(metrics.lifespan_used, 3000);
  }
}

TEST(Session, TaskBagDrainsAndAccountsFragmentation) {
  adversary::NoOpAdversary owner;
  AdaptiveGuidelinePolicy policy;
  auto bag = TaskBag::uniform(40, 7);
  const auto metrics = run_session(policy, owner, Opportunity{1000, 2}, kParams, &bag);
  // Every completed task's work is counted once; fragmentation is what the
  // periods could have held but tasks didn't fill.
  EXPECT_EQ(metrics.task_work, bag.completed_work());
  EXPECT_EQ(metrics.tasks_completed, bag.completed());
  EXPECT_EQ(metrics.task_work + metrics.fragmentation, metrics.banked_work);
}

TEST(Session, KilledBatchesReturnToBag) {
  adversary::FirstPeriodAdversary owner;
  AdaptiveGuidelinePolicy policy;
  auto bag = TaskBag::uniform(1000, 3);  // plenty of tasks
  const auto metrics = run_session(policy, owner, Opportunity{800, 2}, kParams, &bag);
  // Conservation: completed + pending == total tasks.
  EXPECT_EQ(bag.completed() + bag.pending(), 1000u);
  EXPECT_EQ(metrics.tasks_completed, bag.completed());
  EXPECT_GT(metrics.lost_work, 0);
}

TEST(Session, PolicyNotSpanningResidualIsAnError) {
  // A policy returning a schedule shorter than the residual violates §2.2.
  class BrokenPolicy final : public SchedulingPolicy {
   public:
    std::string name() const override { return "broken"; }
    EpisodeSchedule episode(Ticks residual, int, const Params&) const override {
      return EpisodeSchedule({std::max<Ticks>(1, residual / 2)});
    }
  };
  BrokenPolicy policy;
  adversary::NoOpAdversary owner;
  EXPECT_THROW(run_session(policy, owner, Opportunity{100, 1}, kParams),
               std::logic_error);
}

TEST(SessionActor, UninterruptedEventsAreThePeriodEndsFromTheStartTime) {
  adversary::NoOpAdversary owner;
  AdaptiveGuidelinePolicy policy;
  const Ticks t0 = 500;
  SessionActor actor(policy, owner, Opportunity{1000, 3}, kParams);
  actor.start(t0);
  std::vector<Ticks> times;
  while (const auto t = actor.next_event()) {
    times.push_back(*t);
    actor.step();
  }
  const auto episode = policy.episode(1000, 3, kParams);
  ASSERT_EQ(times.size(), episode.size());
  for (std::size_t k = 0; k < episode.size(); ++k) {
    EXPECT_EQ(times[k], t0 + episode.end(k)) << "period " << k;
  }
  EXPECT_TRUE(actor.finished());
  EXPECT_FALSE(actor.paused());
  EXPECT_EQ(actor.metrics().lifespan_used, 1000);
}

TEST(SessionActor, EventTimesRiseAndEndAtTheLifespanUnderInterrupts) {
  // One event per completed period and per interrupt, strictly later than
  // the one before; the last lands where the lifespan runs out.
  adversary::FirstPeriodAdversary owner;
  AdaptiveGuidelinePolicy policy;
  const Ticks t0 = 77;
  SessionActor actor(policy, owner, Opportunity{2000, 2}, kParams);
  actor.start(t0);
  std::vector<Ticks> times;
  while (const auto t = actor.next_event()) {
    times.push_back(*t);
    actor.step();
  }
  const SessionMetrics& m = actor.metrics();
  EXPECT_EQ(m.interrupts, 2);
  ASSERT_EQ(times.size(), m.periods_completed + static_cast<std::size_t>(m.interrupts));
  EXPECT_GT(times.front(), t0);
  for (std::size_t i = 1; i < times.size(); ++i) {
    EXPECT_GT(times[i], times[i - 1]) << "event " << i;
  }
  EXPECT_EQ(times.back(), t0 + 2000);
  EXPECT_TRUE(actor.finished());
}

TEST(SessionActor, StepWithoutAPendingEventThrows) {
  adversary::FirstPeriodAdversary owner;
  AdaptiveGuidelinePolicy policy;

  SessionActor empty(policy, owner, Opportunity{0, 1}, kParams);
  empty.start(10);
  EXPECT_FALSE(empty.next_event().has_value());
  EXPECT_TRUE(empty.finished());
  EXPECT_THROW(empty.step(), std::logic_error);

  SessionActor paused(policy, owner, Opportunity{2000, 2}, kParams);
  paused.pause_after_interrupts(1);
  paused.start(0);
  while (paused.next_event()) paused.step();
  EXPECT_TRUE(paused.paused());
  EXPECT_FALSE(paused.finished());
  EXPECT_EQ(paused.metrics().interrupts, 1);
  EXPECT_THROW(paused.step(), std::logic_error);
}

/// FNV-1a over every SessionMetrics field, in field-table order.
std::uint64_t fold_metrics(std::uint64_t h, const SessionMetrics& m) {
  std::string text;
  util::write_fields(text, kSessionMetricsFields, m);
  for (const unsigned char ch : text) {
    h ^= ch;
    h *= 0x100000001B3ull;
  }
  return h;
}

TEST(Session, GoldenDigestAcrossEveryPolicyAndOwner) {
  // Pins every metric of a generated batch that covers every PolicyKind x
  // OwnerKind, once model-level through BatchRunner and once with a random
  // task bag and (for every other scenario) intra-period checkpoints. Any
  // change to the session's event order, an owner's arrival stream or the
  // accounting moves one of the two digests.
  const PolicyKind policies[] = {PolicyKind::kEqualized, PolicyKind::kAdaptivePaper,
                                 PolicyKind::kNonAdaptiveRestart,
                                 PolicyKind::kDpOptimal};
  const OwnerKind owners[] = {OwnerKind::kPoisson,         OwnerKind::kPareto,
                              OwnerKind::kUniform,         OwnerKind::kMarkovModulated,
                              OwnerKind::kInhomogeneous,   OwnerKind::kBursty,
                              OwnerKind::kCorrelatedShock};
  std::vector<ScenarioSpec> specs;
  for (const PolicyKind policy : policies) {
    for (const OwnerKind owner : owners) {
      ScenarioDomain domain;
      domain.policies = {policy};
      domain.owners = {owner};
      ScenarioGenerator gen(domain, 0x601DE5);
      for (const ScenarioSpec& spec : gen.batch(8)) specs.push_back(spec);
    }
  }

  BatchRunner runner;
  const BatchResult batch = runner.run(specs);
  std::uint64_t model = 0xCBF29CE484222325ull;
  for (const SessionMetrics& m : batch.per_scenario) model = fold_metrics(model, m);

  std::uint64_t tasks = 0xCBF29CE484222325ull;
  Ticks interrupts = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto policy = make_policy(specs[i]);
    const auto owner = make_owner(specs[i]);
    util::Rng rng(specs[i].seed);
    auto bag = TaskBag::random(400, 1, 40, rng);
    std::optional<Checkpointing> checkpointing;
    if (i % 2 == 1) checkpointing = Checkpointing{25, 2};
    const SessionMetrics m =
        run_session(*policy, *owner,
                    Opportunity{specs[i].lifespan, specs[i].max_interrupts},
                    specs[i].params, &bag, checkpointing);
    tasks = fold_metrics(tasks, m);
    interrupts += m.interrupts;
  }
  ASSERT_GT(batch.aggregate.interrupts, 0);  // the owners actually fired
  ASSERT_GT(interrupts, 0);
  EXPECT_EQ(model, 0xd3c94213bfd199a4ull) << std::hex << model;
  EXPECT_EQ(tasks, 0x942d96a2a063863eull) << std::hex << tasks;
}

TEST(SessionMetrics, MergeAddsFields) {
  SessionMetrics a, b;
  a.banked_work = 10;
  a.interrupts = 1;
  a.episodes = 2;
  b.banked_work = 5;
  b.interrupts = 2;
  b.episodes = 1;
  a.merge(b);
  EXPECT_EQ(a.banked_work, 15);
  EXPECT_EQ(a.interrupts, 3);
  EXPECT_EQ(a.episodes, 3u);
}

TEST(SessionMetrics, ToStringMentionsKeyFields) {
  SessionMetrics m;
  m.banked_work = 42;
  const auto str = m.to_string();
  EXPECT_NE(str.find("banked=42"), std::string::npos);
  EXPECT_NE(str.find("interrupts="), std::string::npos);
}

}  // namespace
}  // namespace nowsched::sim
