#include "sim/checkpoint.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>

#include "adversary/heuristics.h"
#include "adversary/processes.h"
#include "adversary/trace.h"
#include "core/baselines.h"
#include "core/equalized.h"
#include "core/guidelines.h"
#include "sim/scenario_gen.h"
#include "sim/session.h"

namespace nowsched::sim {
namespace {

constexpr Params kParams{16};

TEST(CheckpointMath, CompletedPeriodPaysPerCycleOverhead) {
  const Checkpointing ckpt{100, 10};
  // w = 330: 3 full cycles of 110 -> 3 checkpoints paid.
  EXPECT_EQ(checkpointed_period_work(330, ckpt), 330 - 30);
  // w = 99: no checkpoint needed before the period-end one.
  EXPECT_EQ(checkpointed_period_work(99, ckpt), 99);
  EXPECT_EQ(checkpointed_period_work(0, ckpt), 0);
}

TEST(CheckpointMath, SalvageCountsCompletedCheckpointsOnly) {
  const Checkpointing ckpt{100, 10};
  EXPECT_EQ(checkpoint_salvage(0, ckpt), 0);
  EXPECT_EQ(checkpoint_salvage(99, ckpt), 0);     // mid first segment
  EXPECT_EQ(checkpoint_salvage(110, ckpt), 100);  // one checkpoint done
  EXPECT_EQ(checkpoint_salvage(219, ckpt), 100);  // second not yet complete
  EXPECT_EQ(checkpoint_salvage(220, ckpt), 200);
}

TEST(CheckpointMath, ZeroCostCheckpointsSalvageEverythingInUnits) {
  const Checkpointing ckpt{50, 0};
  EXPECT_EQ(checkpointed_period_work(500, ckpt), 500);
  EXPECT_EQ(checkpoint_salvage(275, ckpt), 250);  // floor to checkpoint units
}

TEST(CheckpointMath, RejectsInvalidParameters) {
  EXPECT_THROW(checkpointed_period_work(10, Checkpointing{0, 5}), std::invalid_argument);
  EXPECT_THROW(checkpoint_salvage(10, Checkpointing{5, -1}), std::invalid_argument);
}

TEST(CheckpointSession, NoInterruptsOnlyCostsOverhead) {
  adversary::NoOpAdversary owner;
  SingleBlockPolicy policy;
  const Checkpointing ckpt{100, 10};
  const auto with = run_session(policy, owner, Opportunity{1016, 1}, kParams, nullptr,
                                ckpt);
  const auto without = run_session(policy, owner, Opportunity{1016, 1}, kParams);
  // Raw capacity 1000 -> 9 full cycles of 110 -> 90 ticks of overhead.
  EXPECT_EQ(without.banked_work, 1000);
  EXPECT_EQ(with.banked_work, 1000 - 90);
  EXPECT_EQ(with.salvaged_work, 0);
}

TEST(CheckpointSession, InterruptSalvagesCheckpointedPrefix) {
  // Single block of 1016 (capacity 1000), interrupted at absolute tick 600:
  // productive elapsed = 600 − 16 = 584 -> 5 checkpoints -> salvage 500.
  SingleBlockPolicy policy;
  adversary::TraceAdversary owner(adversary::InterruptTrace({600}));
  const Checkpointing ckpt{100, 10};
  const auto metrics = run_session(policy, owner, Opportunity{1016, 1}, kParams,
                                   nullptr, ckpt);
  EXPECT_EQ(metrics.salvaged_work, 500);
  // After the interrupt, residual 416 runs as a fresh single block:
  // capacity 400, 3 cycles -> 30 overhead -> 370 banked.
  EXPECT_EQ(metrics.banked_work, 500 + 370);
  EXPECT_EQ(metrics.lost_work, 1000 - 500);
}

TEST(CheckpointSession, DraconianModelIsTheDefault) {
  SingleBlockPolicy policy;
  adversary::TraceAdversary owner(adversary::InterruptTrace({600}));
  const auto metrics = run_session(policy, owner, Opportunity{1016, 1}, kParams);
  EXPECT_EQ(metrics.salvaged_work, 0);
  EXPECT_EQ(metrics.lost_work, 1000);
}

TEST(CheckpointSession, CheaperCheckpointsNeverHurtUnderFixedTrace) {
  // Against identical interrupts, salvage is monotone in checkpoint density
  // for the single-block policy (pure salvage, same overhead structure).
  SingleBlockPolicy policy;
  const Ticks u = 4096;
  Ticks prev_banked = -1;
  for (Ticks interval : {1024, 512, 256, 128, 64}) {
    adversary::TraceAdversary owner(adversary::InterruptTrace({2000}));
    const auto metrics = run_session(policy, owner, Opportunity{u, 1}, kParams,
                                     nullptr, Checkpointing{interval, 0});
    EXPECT_GE(metrics.banked_work, prev_banked) << "interval=" << interval;
    prev_banked = metrics.banked_work;
  }
}

TEST(CheckpointSession, GuidelineStillWorksWithCheckpointing) {
  AdaptiveGuidelinePolicy policy;
  adversary::FirstPeriodAdversary owner;
  const auto metrics = run_session(policy, owner, Opportunity{2000, 2}, kParams,
                                   nullptr, Checkpointing{64, 4});
  EXPECT_EQ(metrics.lifespan_used, 2000);
  EXPECT_GT(metrics.banked_work, 0);
}

TEST(CheckpointSession, RejectsInvalidSpec) {
  SingleBlockPolicy policy;
  adversary::NoOpAdversary owner;
  EXPECT_THROW(run_session(policy, owner, Opportunity{100, 0}, kParams, nullptr,
                           Checkpointing{0, 1}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Continuation: after any interrupt, the rest of a session is a fresh session
// on (residual lifespan, interrupts left) against the owner's trace re-based
// by the consumed lifespan. The traces come from the generated owner
// processes (adversary/processes.h), not hand-written interrupt lists.
// ---------------------------------------------------------------------------

void expect_metrics_equal(const SessionMetrics& a, const SessionMetrics& b,
                          const std::string& what) {
  EXPECT_EQ(a.banked_work, b.banked_work) << what;
  EXPECT_EQ(a.task_work, b.task_work) << what;
  EXPECT_EQ(a.comm_overhead, b.comm_overhead) << what;
  EXPECT_EQ(a.lost_work, b.lost_work) << what;
  EXPECT_EQ(a.salvaged_work, b.salvaged_work) << what;
  EXPECT_EQ(a.fragmentation, b.fragmentation) << what;
  EXPECT_EQ(a.lifespan_used, b.lifespan_used) << what;
  EXPECT_EQ(a.interrupts, b.interrupts) << what;
  EXPECT_EQ(a.episodes, b.episodes) << what;
  EXPECT_EQ(a.periods_completed, b.periods_completed) << what;
  EXPECT_EQ(a.periods_killed, b.periods_killed) << what;
  EXPECT_EQ(a.tasks_completed, b.tasks_completed) << what;
}

/// `trace` re-based for a session that starts after `used` consumed ticks:
/// times <= used were handled before and drop; the rest shift down by used.
adversary::InterruptTrace rebased(const adversary::InterruptTrace& trace, Ticks used) {
  adversary::InterruptTrace out;
  for (const Ticks t : trace.times()) {
    if (t > used) out.append(t - used);
  }
  return out;
}

/// Steps a session against `trace` to its k-th interrupt, runs a fresh
/// session on what is left against the re-based trace, and expects the two
/// parts to add up to `full`, the whole session's metrics. Returns the
/// lifespan the first part used.
Ticks expect_continuation(const SchedulingPolicy& policy,
                          const adversary::InterruptTrace& trace, Opportunity opp,
                          Params params, int k, const SessionMetrics& full,
                          const std::string& what) {
  adversary::TraceAdversary replay(trace);
  SessionActor actor(policy, replay, opp, params);
  actor.start(0);
  while (actor.metrics().interrupts < k) actor.step();
  SessionMetrics merged = actor.metrics();
  // The actor has already begun the episode after interrupt k, and the tail
  // session counts that episode again.
  if (!actor.finished()) merged.episodes -= 1;
  const Ticks used = merged.lifespan_used;
  adversary::TraceAdversary tail(rebased(trace, used));
  merged.merge(run_session(policy, tail,
                           Opportunity{opp.lifespan - used, opp.max_interrupts - k},
                           params));
  expect_metrics_equal(merged, full, what);
  return used;
}

TEST(SessionContinuation, TailAfterEveryInterruptIsAFreshSession) {
  // Owner behaviour comes from the generated process adversaries: record
  // each one's interrupt trace against the policy, then check after EVERY
  // interrupt k that the metrics up to k plus a fresh session on the rest
  // reproduce the whole session's metrics field-for-field.
  const EqualizedGuidelinePolicy equalized;
  const AdaptiveGuidelinePolicy adaptive;
  const Opportunity opp{6000, 4};
  const Params params{16};

  std::vector<std::unique_ptr<adversary::Adversary>> owners;
  owners.push_back(std::make_unique<adversary::MarkovModulatedAdversary>(
      2000.0, 120.0, 1500.0, 600.0, 0xA1));
  owners.push_back(std::make_unique<adversary::InhomogeneousPoissonAdversary>(
      900.0, 0.8, 2500.0, 1.0, 0xB2));
  owners.push_back(
      std::make_unique<adversary::BurstyAdversary>(1200.0, 1.2, 3.0, 40.0, 0xC3));
  owners.push_back(std::make_unique<adversary::CorrelatedShockAdversary>(
      800.0, 0.9, 0xD4, 0xE5));

  for (auto& owner : owners) {
    for (const SchedulingPolicy* policy :
         {static_cast<const SchedulingPolicy*>(&equalized),
          static_cast<const SchedulingPolicy*>(&adaptive)}) {
      owner->reset(0x5EED);
      adversary::RecordingAdversary recorder(*owner);
      const SessionMetrics full = run_session(*policy, recorder, opp, params);
      const adversary::InterruptTrace trace = recorder.trace();
      ASSERT_GT(full.interrupts, 0) << owner->name() << ": trace never fired — "
                                    << "the continuation would be vacuous";

      for (int k = 1; k <= full.interrupts; ++k) {
        expect_continuation(*policy, trace, opp, params, k, full,
                            owner->name() + " + " + policy->name() +
                                " after interrupt " + std::to_string(k));
      }
    }
  }
}

TEST(SessionContinuation, InterruptAtTheLastTickLeavesAnEmptyTail) {
  // The second interrupt lands on the lifespan's last tick: the session
  // ends there with no episode after it, and the tail is a session on zero
  // lifespan that adds nothing.
  const EqualizedGuidelinePolicy policy;
  const Opportunity opp{6000, 3};
  adversary::TraceAdversary owner(adversary::InterruptTrace({1000, 6000}));
  const SessionMetrics full = run_session(policy, owner, opp, kParams);
  ASSERT_EQ(full.interrupts, 2);
  ASSERT_EQ(full.lifespan_used, 6000);
  const adversary::InterruptTrace trace({1000, 6000});
  EXPECT_EQ(expect_continuation(policy, trace, opp, kParams, 1, full, "k = 1"), 1000);
  EXPECT_EQ(expect_continuation(policy, trace, opp, kParams, 2, full, "k = 2"), 6000);

  adversary::NoOpAdversary none;
  const SessionMetrics empty = run_session(policy, none, Opportunity{0, 1}, kParams);
  EXPECT_EQ(empty.episodes, 0u);
  EXPECT_EQ(empty.lifespan_used, 0);
}

TEST(SessionContinuation, TraceEntriesPastTheBudgetAreIgnoredByTheTail) {
  // The owner's trace outlasts the interrupt budget: once p interrupts are
  // spent the whole session ignores the rest, and so must the tail, which
  // runs with no interrupts left against a trace that still has entries.
  const AdaptiveGuidelinePolicy policy;
  const Opportunity opp{6000, 2};
  const adversary::InterruptTrace trace({700, 1900, 2600, 4100, 5300});
  adversary::TraceAdversary owner(trace);
  const SessionMetrics full = run_session(policy, owner, opp, kParams);
  ASSERT_EQ(full.interrupts, 2);
  EXPECT_EQ(expect_continuation(policy, trace, opp, kParams, 1, full, "k = 1"), 700);
  const Ticks used = expect_continuation(policy, trace, opp, kParams, 2, full, "k = 2");
  EXPECT_EQ(used, 1900);
  EXPECT_EQ(rebased(trace, used).times().size(), 3u);
}

// ---------------------------------------------------------------------------
// The scenario replay format ("nowsched-scenario v1").
// ---------------------------------------------------------------------------

TEST(ScenarioReplay, ReplayEncoderOutputIsPinnedByteForByte) {
  ScenarioSpec spec;
  spec.policy = PolicyKind::kDpOptimal;
  spec.owner = OwnerKind::kMarkovModulated;
  spec.owner_a = 0.1;  // no short decimal form: exercises %.17g
  spec.owner_b = 1.5;
  spec.owner_c = 250.0;
  spec.owner_d = -2.25;
  spec.params = Params{16};
  spec.lifespan = 4096;
  spec.max_interrupts = 3;
  spec.seed = 18446744073709551615ull;
  spec.group_seed = 42;
  EXPECT_EQ(to_replay_string(spec), R"(nowsched-scenario v1
policy=dp-optimal
owner=markov
owner_a=0.10000000000000001
owner_b=1.5
owner_c=250
owner_d=-2.25
c=16
lifespan=4096
max_interrupts=3
seed=18446744073709551615
group_seed=42
)");
}

TEST(ScenarioReplay, ReplayParserRejectsNonFiniteNumbers) {
  // "nan" and "inf" parse whole-string through strtod but poison every
  // range check downstream (a NaN response probability hangs the shock
  // sampler), so the replay parser refuses them outright.
  const auto record = [](const std::string& owner_a) {
    return "nowsched-scenario v1\npolicy=equalized\nowner=poisson\nowner_a=" +
           owner_a + "\nc=16\nlifespan=100\nmax_interrupts=1\nseed=1\n";
  };
  EXPECT_NO_THROW(scenario_from_replay(record("250")));
  EXPECT_THROW(scenario_from_replay(record("nan")), std::invalid_argument);
  EXPECT_THROW(scenario_from_replay(record("inf")), std::invalid_argument);
}

TEST(ScenarioReplay, GeneratedScenarioTracesSurviveReplayFormat) {
  // End-to-end with the scenario layer: a generated spec's serialized form
  // rebuilds a spec whose session produces identical metrics.
  ScenarioDomain domain;
  domain.min_lifespan = 512;
  domain.max_lifespan = 4096;
  domain.max_interrupts = 4;
  domain.policies = {PolicyKind::kEqualized, PolicyKind::kAdaptivePaper};
  ScenarioGenerator gen(domain, 0x7E57);
  for (int i = 0; i < 16; ++i) {
    const ScenarioSpec spec = gen.next();
    const ScenarioSpec back = scenario_from_replay(to_replay_string(spec));
    EXPECT_EQ(back.owner, spec.owner);
    EXPECT_EQ(back.seed, spec.seed);
    EXPECT_EQ(back.lifespan, spec.lifespan);
    EXPECT_EQ(back.owner_a, spec.owner_a);  // bit-exact double round trip
    EXPECT_EQ(back.owner_d, spec.owner_d);
  }
}

TEST(ScenarioReplay, ReplayParserRejectsOutOfRangeAndDuplicateKeys) {
  const std::string record =
      "nowsched-scenario v1\npolicy=equalized\nowner=poisson\nc=16\n"
      "lifespan=100\nseed=1\nmax_interrupts=";
  EXPECT_EQ(scenario_from_replay(record + "2147483647\n").max_interrupts, 2147483647);
  // 2^32 + 1 must not narrow to p = 1: a different contract than recorded.
  EXPECT_THROW(scenario_from_replay(record + "4294967297\n"), std::invalid_argument);
  // Which of two seed= lines a reader keeps must never decide the scenario
  // being reproduced.
  EXPECT_THROW(scenario_from_replay(record + "1\nseed=2\n"), std::invalid_argument);
}

TEST(ScenarioReplay, ReplayParserRejectsValuesOutsideTheFieldType) {
  // Each number is read as its field's own type, whole-string: a value that
  // does not fit or carries trailing text is an error, never a wrap-around
  // or a truncation that replays a different scenario.
  const auto record = [](const std::string& key, const std::string& value) {
    std::string text = "nowsched-scenario v1\npolicy=equalized\nowner=poisson\n";
    for (const auto& [k, v] : {std::pair<std::string, std::string>{"c", "16"},
                               {"lifespan", "100"},
                               {"max_interrupts", "1"},
                               {"seed", "1"}}) {
      text += k + "=" + (k == key ? value : v) + "\n";
    }
    return text;
  };
  EXPECT_EQ(scenario_from_replay(record("seed", "18446744073709551615")).seed,
            18446744073709551615ull);
  EXPECT_THROW(scenario_from_replay(record("seed", "18446744073709551616")),
               std::invalid_argument);
  EXPECT_THROW(scenario_from_replay(record("seed", "-1")), std::invalid_argument);
  EXPECT_THROW(scenario_from_replay(record("lifespan", "12abc")), std::invalid_argument);
  EXPECT_THROW(scenario_from_replay(record("lifespan", "")), std::invalid_argument);
  EXPECT_THROW(scenario_from_replay(record("lifespan", "9223372036854775808")),
               std::invalid_argument);
  EXPECT_THROW(scenario_from_replay(record("c", "1.5")), std::invalid_argument);
  EXPECT_THROW(scenario_from_replay(record("max_interrupts", "-2147483649")),
               std::invalid_argument);
}

}  // namespace
}  // namespace nowsched::sim
