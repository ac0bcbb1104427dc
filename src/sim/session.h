// One cycle-stealing opportunity, simulated end to end.
//
// SessionActor is a state machine that steps itself through its events:
//   episode start -> (period end)* -> interrupt | episode exhausted -> ...
// It never has more than one event pending (the end of the current period,
// or the owner's planned interrupt when that lands first), so the caller
// drives it with `while (actor.next_event()) actor.step();` — run_farm
// interleaves many actors the same way on one clock.
// Interrupt semantics follow the model exactly: an interrupt during period k
// kills that period's work; periods checkpoint (B returns results) at their
// ends, and the periods after k never run. So with an oblivious owner the
// actor plans the interrupt first and asks the policy only for the episode's
// prefix through period k (SchedulingPolicy::episode_prefix); a
// schedule-aware owner sees the whole episode before it plans. With a TaskBag attached, each period carries a greedily packed batch
// of indivisible tasks; killed batches return to the bag.
//
// A session runs start to finish. After an interrupt the rest of it depends
// only on (residual lifespan, interrupts left), so it equals a fresh session
// on that pair against the owner's trace re-based by the consumed lifespan;
// the `continuation` conformance check and SessionContinuation.* assert it.
//
// run_session() is the standalone convenience wrapper.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "adversary/adversary.h"
#include "core/policy.h"
#include "core/types.h"
#include "sim/checkpoint.h"
#include "sim/metrics.h"
#include "sim/taskbag.h"

namespace nowsched::sim {

class SessionActor {
 public:
  /// `bag` may be nullptr (pure model-level accounting). `checkpointing`
  /// enables the intra-period checkpoint extension (sim/checkpoint.h);
  /// the paper's draconian model is the default (nullopt). Lifetime of all
  /// referenced objects must cover the simulation run.
  SessionActor(const SchedulingPolicy& policy, adversary::Adversary& adversary,
               Opportunity opportunity, Params params, TaskBag* bag = nullptr,
               std::optional<Checkpointing> checkpointing = std::nullopt);

  /// Begins the session at absolute time `now` (plans its first episode).
  void start(Ticks now);

  /// Absolute time of the pending event; nullopt once finished.
  std::optional<Ticks> next_event() const noexcept { return next_event_; }

  /// Runs the pending event (a period end or the planned interrupt) and
  /// plans the next one. Requires next_event().
  void step();

  /// True once the session has ended (then next_event() is nullopt). The
  /// continuation tests read it to tell whether the actor already began the
  /// episode after its last interrupt.
  bool finished() const noexcept { return finished_; }

  const SessionMetrics& metrics() const noexcept { return metrics_; }

 private:
  void begin_episode(Ticks now);
  void begin_period();
  void finish_period();
  void handle_interrupt();

  // Configuration.
  const SchedulingPolicy& policy_;
  adversary::Adversary& adversary_;
  adversary::ObliviousAdversary* oblivious_;  ///< adversary_, when it is oblivious
  Opportunity opportunity_;
  Params params_;
  TaskBag* bag_;
  std::optional<Checkpointing> checkpointing_;

  // Episode state.
  EpisodeSchedule episode_;
  Ticks episode_start_abs_ = 0;   ///< absolute time at episode start
  Ticks opportunity_start_ = 0;   ///< absolute time at session start
  Ticks residual_ = 0;
  int interrupts_left_ = 0;
  std::size_t current_period_ = 0;
  std::optional<Ticks> interrupt_tick_;  ///< episode-relative, 1-based
  std::vector<Task> in_flight_;
  Ticks in_flight_capacity_ = 0;

  // The one pending event: its absolute time, and whether it is the planned
  // interrupt (else the end of period current_period_).
  std::optional<Ticks> next_event_;
  bool next_is_interrupt_ = false;

  SessionMetrics metrics_;
  bool finished_ = false;
};

/// Runs a single session to completion, starting at time 0.
SessionMetrics run_session(const SchedulingPolicy& policy,
                           adversary::Adversary& adversary, Opportunity opportunity,
                           Params params, TaskBag* bag = nullptr,
                           std::optional<Checkpointing> checkpointing = std::nullopt);

}  // namespace nowsched::sim
