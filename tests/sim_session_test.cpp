#include "sim/session.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "adversary/heuristics.h"
#include "adversary/stochastic.h"
#include "adversary/trace.h"
#include "core/baselines.h"
#include "core/guidelines.h"
#include "sim/scenario_gen.h"
#include "solver/extract.h"
#include "solver/fast_solver.h"
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

/// Plays episode {30, 20, 10} on a 60-tick lifespan (run at c = 10); any
/// other residual runs as one block.
class ThreePeriodPolicy final : public SchedulingPolicy {
 public:
  std::string name() const override { return "three-period"; }
  EpisodeSchedule episode(Ticks residual, int, const Params&) const override {
    return residual == 60 ? EpisodeSchedule({30, 20, 10}) : EpisodeSchedule({residual});
  }
};

constexpr Params kThreePeriodParams{10};

TEST(Session, MidPeriodInterruptKillsItsPeriodAndConsumesItsTick) {
  // Episode {30, 20, 10} at c = 10: period 0 is ticks 1..30, period 1 ticks
  // 31..50. An interrupt anywhere in period 1, its last instant included,
  // kills period 1 after period 0 banked its 20; one at tick 30 kills period
  // 0 and banks nothing. The interrupt consumes exactly its own tick of
  // lifespan, so a mid-period hit leaves the rest of the session more
  // residual than a last-instant one (Observation (a)).
  const ThreePeriodPolicy policy;
  const Params params = kThreePeriodParams;
  struct Case {
    Ticks tick;
    Ticks banked;  ///< banked before the interrupt
    Ticks lost;    ///< capacity of the killed period
    std::size_t completed;
  };
  for (const Case& c : {Case{31, 20, 10, 1}, Case{35, 20, 10, 1}, Case{50, 20, 10, 1},
                        Case{30, 0, 20, 0}}) {
    const std::string what = "interrupt at tick " + std::to_string(c.tick);
    adversary::TraceAdversary owner(adversary::InterruptTrace({c.tick}));
    SessionActor actor(policy, owner, Opportunity{60, 1}, params);
    actor.start(0);
    SessionMetrics before;
    while (actor.metrics().interrupts == 0) {
      ASSERT_TRUE(actor.next_event().has_value()) << what;
      before = actor.metrics();
      actor.step();
    }
    const SessionMetrics after = actor.metrics();
    EXPECT_EQ(before.banked_work, c.banked) << what;
    EXPECT_EQ(after.banked_work, c.banked) << what;
    EXPECT_EQ(after.periods_completed, c.completed) << what;
    EXPECT_EQ(after.periods_killed, 1u) << what;
    EXPECT_EQ(after.lost_work, c.lost) << what;
    EXPECT_EQ(after.lifespan_used - before.lifespan_used, c.tick) << what;

    // The rest runs uninterrupted as one block of the 60 - tick left.
    while (actor.next_event()) actor.step();
    EXPECT_EQ(actor.metrics().banked_work, c.banked + (60 - c.tick - 10)) << what;
    EXPECT_EQ(actor.metrics().lifespan_used, 60) << what;
  }
}

// --- outcomes ---------------------------------------------------------------
// One episode's outcome under each kind of interrupt, read off the
// simulator: the work it banks and the residual lifespan it leaves. The
// expected values come from EpisodeSchedule's own prefix accounting.

/// Steps a ThreePeriodPolicy session on (60, 1) against one interrupt at
/// `tick` until that interrupt has been handled; returns its metrics.
SessionMetrics outcome_of_interrupt_at(Ticks tick) {
  const ThreePeriodPolicy policy;
  adversary::TraceAdversary owner(adversary::InterruptTrace({tick}));
  SessionActor actor(policy, owner, Opportunity{60, 1}, kThreePeriodParams);
  actor.start(0);
  while (actor.metrics().interrupts == 0) actor.step();
  return actor.metrics();
}

/// Index of the period of `episode` that contains 1-based tick `tick`.
std::size_t period_containing(const EpisodeSchedule& episode, Ticks tick) {
  std::size_t k = 0;
  while (episode.end(k) < tick) ++k;
  return k;
}

TEST(Outcomes, UninterruptedEpisode) {
  const ThreePeriodPolicy policy;
  const EpisodeSchedule episode = policy.episode(60, 1, kThreePeriodParams);
  adversary::NoOpAdversary owner;
  const SessionMetrics m =
      run_session(policy, owner, Opportunity{60, 1}, kThreePeriodParams);
  EXPECT_EQ(m.interrupts, 0);
  EXPECT_EQ(m.banked_work, 20 + 10 + 0);
  EXPECT_EQ(m.banked_work, episode.work_if_uninterrupted(kThreePeriodParams));
  EXPECT_EQ(m.periods_completed, 3u);
  EXPECT_EQ(m.comm_overhead, 30);
  EXPECT_EQ(m.lost_work, 0);
  EXPECT_EQ(m.lifespan_used, 60);  // no residual left
}

TEST(Outcomes, InterruptAtPeriodEndBanksPrefixOnly) {
  // Killing period 1 at its last instant (tick 50) banks period 0's 20 and
  // loses period 1's 10; period 2 never begins. The 10 ticks left run as one
  // block that is all overhead, so the session ends on 20.
  const SessionMetrics at = outcome_of_interrupt_at(50);
  EXPECT_EQ(at.banked_work, 20);
  EXPECT_EQ(at.periods_completed, 1u);
  EXPECT_EQ(at.periods_killed, 1u);
  EXPECT_EQ(at.lost_work, 10);
  EXPECT_EQ(60 - at.lifespan_used, 10);  // T_2 = 50 consumed

  const ThreePeriodPolicy policy;
  adversary::TraceAdversary owner(adversary::InterruptTrace({50}));
  const SessionMetrics whole =
      run_session(policy, owner, Opportunity{60, 1}, kThreePeriodParams);
  EXPECT_EQ(whole.banked_work, 20);
  EXPECT_EQ(whole.episodes, 2u);
  EXPECT_EQ(whole.lifespan_used, 60);
}

TEST(Outcomes, InterruptFirstPeriodBanksNothing) {
  const SessionMetrics at = outcome_of_interrupt_at(30);
  EXPECT_EQ(at.banked_work, 0);
  EXPECT_EQ(at.periods_completed, 0u);
  EXPECT_EQ(at.lost_work, 20);
  EXPECT_EQ(60 - at.lifespan_used, 30);

  // The first-period heuristic owner strikes at the same instant.
  const ThreePeriodPolicy policy;
  adversary::FirstPeriodAdversary owner;
  SessionActor actor(policy, owner, Opportunity{60, 1}, kThreePeriodParams);
  actor.start(0);
  ASSERT_EQ(actor.next_event(), std::optional<Ticks>(30));
  actor.step();
  EXPECT_EQ(actor.metrics().interrupts, 1);
  EXPECT_EQ(actor.metrics().banked_work, 0);
  EXPECT_EQ(actor.metrics().lifespan_used, 30);
}

TEST(Outcomes, InterruptAtTimeFindsContainingPeriod) {
  // Every tick of the episode: the interrupt kills the period containing it
  // and banks exactly the periods before it.
  const EpisodeSchedule episode =
      ThreePeriodPolicy().episode(60, 1, kThreePeriodParams);
  for (Ticks tick = 1; tick <= 60; ++tick) {
    const std::size_t k = period_containing(episode, tick);
    const SessionMetrics at = outcome_of_interrupt_at(tick);
    EXPECT_EQ(at.periods_completed, k) << "tick " << tick;
    EXPECT_EQ(at.periods_killed, 1u) << "tick " << tick;
    EXPECT_EQ(at.banked_work, episode.banked_work(k, kThreePeriodParams))
        << "tick " << tick;
    EXPECT_EQ(at.lost_work, positive_sub(episode.period(k), kThreePeriodParams.c))
        << "tick " << tick;
    EXPECT_EQ(60 - at.lifespan_used, 60 - tick) << "tick " << tick;
  }
  // Tick 31 opens period 1 (ticks 31..50).
  EXPECT_EQ(outcome_of_interrupt_at(31).banked_work, 20);
  EXPECT_EQ(60 - outcome_of_interrupt_at(31).lifespan_used, 60 - 31);
}

TEST(Outcomes, LastInstantTickMatchesPeriodEndSemantics) {
  // An interrupt at a period's last instant is the event handled at that
  // instant, in place of the period end: the period is killed, never banked,
  // exactly as if the owner had struck at its first tick.
  const ThreePeriodPolicy policy;
  const EpisodeSchedule episode = policy.episode(60, 1, kThreePeriodParams);
  for (std::size_t k = 0; k < episode.size(); ++k) {
    const std::string what = "period " + std::to_string(k);
    adversary::TraceAdversary owner(adversary::InterruptTrace({episode.end(k)}));
    SessionActor actor(policy, owner, Opportunity{60, 1}, kThreePeriodParams);
    actor.start(0);
    while (actor.metrics().periods_completed < k) actor.step();
    ASSERT_EQ(actor.next_event(), std::optional<Ticks>(episode.end(k))) << what;
    actor.step();
    const SessionMetrics last = actor.metrics();
    EXPECT_EQ(last.interrupts, 1) << what;
    EXPECT_EQ(last.periods_completed, k) << what;
    EXPECT_EQ(last.banked_work, episode.banked_work(k, kThreePeriodParams)) << what;
    EXPECT_EQ(last.lifespan_used, episode.end(k)) << what;

    const SessionMetrics first = outcome_of_interrupt_at(episode.start(k) + 1);
    EXPECT_EQ(last.banked_work, first.banked_work) << what;
    EXPECT_EQ(last.lost_work, first.lost_work) << what;
    EXPECT_EQ(last.periods_completed, first.periods_completed) << what;
  }
}

TEST(Outcomes, MidPeriodInterruptIsDominated) {
  // Observation (a): against any tick inside a period, the owner does at
  // least as well by waiting for the period's last instant. Same banked
  // work when it strikes, strictly less residual left whenever it waited,
  // and never more work for the whole session.
  const ThreePeriodPolicy policy;
  const EpisodeSchedule episode = policy.episode(60, 1, kThreePeriodParams);
  const auto whole_session = [&](Ticks tick) {
    adversary::TraceAdversary owner(adversary::InterruptTrace({tick}));
    return run_session(policy, owner, Opportunity{60, 1}, kThreePeriodParams);
  };
  for (Ticks tick = 1; tick <= 60; ++tick) {
    const Ticks end = episode.end(period_containing(episode, tick));
    const SessionMetrics mid = outcome_of_interrupt_at(tick);
    const SessionMetrics last = outcome_of_interrupt_at(end);
    EXPECT_EQ(mid.banked_work, last.banked_work) << "tick " << tick;
    if (tick < end) {
      EXPECT_GT(60 - mid.lifespan_used, 60 - last.lifespan_used) << "tick " << tick;
    }
    EXPECT_GE(whole_session(tick).banked_work, whole_session(end).banked_work)
        << "tick " << tick;
  }
  EXPECT_EQ(whole_session(35).banked_work, 20 + (25 - 10));
  EXPECT_EQ(whole_session(50).banked_work, 20);
}

TEST(Outcomes, BoundsChecked) {
  // An owner must strike during the episode, at a tick in [1, total].
  class FixedTickAdversary final : public adversary::Adversary {
   public:
    explicit FixedTickAdversary(Ticks tick) : tick_(tick) {}
    std::string name() const override { return "fixed-tick"; }
    std::optional<Ticks> plan_interrupt(const EpisodeSchedule&,
                                        const adversary::EpisodeContext&) override {
      return tick_;
    }

   private:
    Ticks tick_;
  };
  const ThreePeriodPolicy policy;
  for (const Ticks tick : {Ticks{-1}, Ticks{0}, Ticks{61}}) {
    FixedTickAdversary owner(tick);
    EXPECT_THROW(run_session(policy, owner, Opportunity{60, 1}, kThreePeriodParams),
                 std::logic_error)
        << "tick " << tick;
  }
  FixedTickAdversary at_the_end(60);
  const SessionMetrics m =
      run_session(policy, at_the_end, Opportunity{60, 1}, kThreePeriodParams);
  EXPECT_EQ(m.interrupts, 1);
  EXPECT_EQ(m.banked_work, 20 + 10);
  EXPECT_EQ(m.lifespan_used, 60);
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

  SessionActor done(policy, owner, Opportunity{2000, 2}, kParams);
  done.start(0);
  while (done.next_event()) done.step();
  EXPECT_TRUE(done.finished());
  EXPECT_EQ(done.metrics().interrupts, 2);
  EXPECT_THROW(done.step(), std::logic_error);
}

TEST(SessionActor, NextEventIsEmptyOnlyOnceFinished) {
  // A session has no other way to stop: across generated scenarios, after
  // start and after every step, an actor has a pending event exactly when
  // it has not finished, and stepping it to the end reproduces run_session.
  ScenarioDomain domain;
  domain.min_lifespan = 256;
  domain.max_lifespan = 8192;
  domain.max_interrupts = 5;
  domain.policies = {PolicyKind::kEqualized, PolicyKind::kAdaptivePaper,
                     PolicyKind::kNonAdaptiveRestart};
  ScenarioGenerator gen(domain, 0xE7E7);
  Ticks interrupts = 0;
  for (const ScenarioSpec& spec : gen.batch(64)) {
    const auto policy = make_policy(spec);
    const auto owner = make_owner(spec);
    const Opportunity opp{spec.lifespan, spec.max_interrupts};
    SessionActor actor(*policy, *owner, opp, spec.params);
    actor.start(0);
    std::size_t steps = 0;
    while (true) {
      ASSERT_EQ(actor.next_event().has_value(), !actor.finished())
          << to_replay_string(spec) << "after " << steps << " steps";
      if (actor.finished()) break;
      actor.step();
      ++steps;
    }
    const SessionMetrics& m = actor.metrics();
    EXPECT_EQ(steps, m.periods_completed + static_cast<std::size_t>(m.interrupts));
    EXPECT_EQ(m.lifespan_used, spec.lifespan);
    interrupts += m.interrupts;

    const auto fresh_owner = make_owner(spec);
    const SessionMetrics again = run_session(*policy, *fresh_owner, opp, spec.params);
    EXPECT_EQ(again.banked_work, m.banked_work) << to_replay_string(spec);
    EXPECT_EQ(again.interrupts, m.interrupts) << to_replay_string(spec);
  }
  EXPECT_GT(interrupts, 0);  // the owners actually fired
}

/// Every SessionMetrics field, in field-table order.
std::string metrics_text(const SessionMetrics& m) {
  std::string text;
  util::write_fields(text, kSessionMetricsFields, m);
  return text;
}

/// FNV-1a over metrics_text(m).
std::uint64_t fold_metrics(std::uint64_t h, const SessionMetrics& m) {
  for (const unsigned char ch : metrics_text(m)) {
    h ^= ch;
    h *= 0x100000001B3ull;
  }
  return h;
}

TEST(Session, GoldenDigestAcrossEveryPolicyAndOwner) {
  // Pins every metric of a generated batch per PolicyKind, covering every
  // OwnerKind, once model-level through BatchRunner and once with a random
  // task bag and (for every other scenario) intra-period checkpoints. Any
  // change to the session's event order, an owner's arrival stream or the
  // accounting moves a digest; a change to one policy's episodes moves only
  // that policy's row.
  struct PolicyDigests {
    PolicyKind policy;
    std::uint64_t model;
    std::uint64_t tasks;
  };
  const PolicyDigests pins[] = {
      {PolicyKind::kEqualized, 0x2934a7e0f9cfd3acull, 0x1d7ae9618523df05ull},
      {PolicyKind::kAdaptivePaper, 0xd32eefffcd440b15ull, 0x7823fee7593d476aull},
      {PolicyKind::kNonAdaptiveRestart, 0xb2d90ee842f7ba00ull, 0x2bfdc1c17472fc8aull},
      {PolicyKind::kDpOptimal, 0x55331fa4499725a1ull, 0x6baed895598259a2ull},
  };
  const OwnerKind owners[] = {OwnerKind::kPoisson,         OwnerKind::kPareto,
                              OwnerKind::kUniform,         OwnerKind::kMarkovModulated,
                              OwnerKind::kInhomogeneous,   OwnerKind::kBursty,
                              OwnerKind::kCorrelatedShock};
  for (const PolicyDigests& pin : pins) {
    std::vector<ScenarioSpec> specs;
    for (const OwnerKind owner : owners) {
      ScenarioDomain domain;
      domain.policies = {pin.policy};
      domain.owners = {owner};
      ScenarioGenerator gen(domain, 0x601DE5);
      for (const ScenarioSpec& spec : gen.batch(8)) specs.push_back(spec);
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
    SCOPED_TRACE(to_string(pin.policy));
    ASSERT_GT(batch.aggregate.interrupts, 0);  // the owners actually fired
    ASSERT_GT(interrupts, 0);
    EXPECT_EQ(model, pin.model) << std::hex << model;
    EXPECT_EQ(tasks, pin.tasks) << std::hex << tasks;
  }
}

/// Wraps a policy and counts the periods it hands out, by entry point.
class CountingPolicy final : public SchedulingPolicy {
 public:
  explicit CountingPolicy(const SchedulingPolicy& inner) : inner_(inner) {}
  std::string name() const override { return inner_.name(); }
  EpisodeSchedule episode(Ticks residual, int interrupts_left,
                          const Params& params) const override {
    EpisodeSchedule e = inner_.episode(residual, interrupts_left, params);
    whole_periods += e.size();
    return e;
  }
  EpisodeSchedule episode_prefix(Ticks residual, int interrupts_left,
                                 const Params& params, Ticks until) const override {
    EpisodeSchedule e = inner_.episode_prefix(residual, interrupts_left, params, until);
    prefix_periods += e.size();
    prefix_calls += 1;
    return e;
  }

  mutable std::size_t whole_periods = 0;
  mutable std::size_t prefix_periods = 0;
  mutable std::size_t prefix_calls = 0;

 private:
  const SchedulingPolicy& inner_;
};

std::vector<ScenarioSpec> dp_optimal_specs(OwnerKind owner) {
  ScenarioDomain domain;
  domain.policies = {PolicyKind::kDpOptimal};
  domain.owners = {owner};
  domain.min_interrupts = 1;
  ScenarioGenerator gen(domain, 0x9F3E);
  return gen.batch(12);
}

TEST(SessionPrefix, ObliviousOwnersGetNoPeriodPastTheKilledOne) {
  // Every owner the batch runner makes is oblivious: the session plans its
  // interrupt first, so each interrupted episode is built through the killed
  // period and no further, and only an uninterrupted episode is built whole.
  // Every period built is therefore run. Wrapping the same owner in a
  // RecordingAdversary (schedule-aware) makes the session build whole
  // episodes instead; the metrics must not change.
  const OwnerKind owners[] = {OwnerKind::kPoisson,         OwnerKind::kPareto,
                              OwnerKind::kUniform,         OwnerKind::kMarkovModulated,
                              OwnerKind::kInhomogeneous,   OwnerKind::kBursty,
                              OwnerKind::kCorrelatedShock};
  for (const OwnerKind kind : owners) {
    std::size_t prefix_calls = 0, built = 0, built_whole = 0;
    for (const ScenarioSpec& spec : dp_optimal_specs(kind)) {
      const auto policy = make_policy(spec);
      const Opportunity opp{spec.lifespan, spec.max_interrupts};

      const CountingPolicy counted(*policy);
      const auto owner = make_owner(spec);
      const SessionMetrics m = run_session(counted, *owner, opp, spec.params);
      EXPECT_EQ(counted.whole_periods + counted.prefix_periods,
                m.periods_completed + m.periods_killed)
          << to_replay_string(spec);
      EXPECT_EQ(counted.prefix_calls, static_cast<std::size_t>(m.interrupts))
          << to_replay_string(spec);

      const CountingPolicy counted_whole(*policy);
      const auto inner = make_owner(spec);
      adversary::RecordingAdversary recorded(*inner);
      const SessionMetrics whole = run_session(counted_whole, recorded, opp, spec.params);
      EXPECT_EQ(counted_whole.prefix_calls, 0u) << to_replay_string(spec);
      EXPECT_EQ(metrics_text(whole), metrics_text(m)) << to_replay_string(spec);

      prefix_calls += counted.prefix_calls;
      built += counted.whole_periods + counted.prefix_periods;
      built_whole += counted_whole.whole_periods;
    }
    EXPECT_GT(prefix_calls, 0u) << to_string(kind);  // the owner actually fired
    EXPECT_LT(built, built_whole) << to_string(kind);
  }
}

TEST(SessionPrefix, ScheduleAwareOwnersGetWholeEpisodes) {
  // The heuristic owners read the committed episode, so the session builds
  // each one whole before it asks them.
  const solver::OptimalPolicy policy(
      std::make_shared<const solver::ValueTable>(solver::solve_fast(4, 8192, kParams)));
  adversary::FirstPeriodAdversary first;
  adversary::LargestPeriodAdversary largest;
  adversary::ObservationAdversary observation;
  std::size_t built = 0, run = 0;
  for (adversary::Adversary* owner :
       std::initializer_list<adversary::Adversary*>{&first, &largest, &observation}) {
    const CountingPolicy counted(policy);
    const SessionMetrics m = run_session(counted, *owner, Opportunity{8192, 4}, kParams);
    EXPECT_GT(m.interrupts, 0) << owner->name();
    EXPECT_EQ(counted.prefix_calls, 0u) << owner->name();
    built += counted.whole_periods;
    run += m.periods_completed + m.periods_killed;
  }
  EXPECT_GT(built, run);  // the killed periods were not the episodes' last
}

TEST(SessionPrefix, PrefixMustReachTheInterrupt) {
  // A prefix that ends before the interrupt's tick, or runs past the
  // residual, is a policy bug the session refuses.
  class BadPrefixPolicy final : public SchedulingPolicy {
   public:
    explicit BadPrefixPolicy(EpisodeSchedule prefix) : prefix_(std::move(prefix)) {}
    std::string name() const override { return "bad-prefix"; }
    EpisodeSchedule episode(Ticks residual, int, const Params&) const override {
      return EpisodeSchedule({residual});
    }
    EpisodeSchedule episode_prefix(Ticks, int, const Params&, Ticks) const override {
      return prefix_;
    }

   private:
    EpisodeSchedule prefix_;
  };
  for (const std::vector<Ticks>& periods :
       {std::vector<Ticks>{29}, std::vector<Ticks>{30, 31}}) {
    const BadPrefixPolicy policy{EpisodeSchedule(periods)};
    adversary::TraceAdversary owner(adversary::InterruptTrace({30}));
    EXPECT_THROW(run_session(policy, owner, Opportunity{60, 1}, kThreePeriodParams),
                 std::logic_error);
  }
  const BadPrefixPolicy exact{EpisodeSchedule({30})};
  adversary::TraceAdversary owner(adversary::InterruptTrace({30}));
  const SessionMetrics m =
      run_session(exact, owner, Opportunity{60, 1}, kThreePeriodParams);
  EXPECT_EQ(m.interrupts, 1);
  EXPECT_EQ(m.periods_killed, 1u);
  EXPECT_EQ(m.lifespan_used, 60);
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
