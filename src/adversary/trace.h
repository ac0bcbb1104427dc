// Interrupt traces: record/replay of owner interruptions in absolute
// opportunity time. Used to (1) replay the minimax best response inside the
// simulator and check it reproduces the analytic guaranteed work, and
// (2) compare policies on identical owner behaviour.
#pragma once

#include <utility>
#include <vector>

#include "adversary/adversary.h"

namespace nowsched::adversary {

/// Absolute opportunity times (1-based ticks) at which the owner interrupts.
/// Must be strictly increasing.
class InterruptTrace {
 public:
  InterruptTrace() = default;
  explicit InterruptTrace(std::vector<Ticks> times_abs);

  const std::vector<Ticks>& times() const noexcept { return times_; }
  std::size_t size() const noexcept { return times_.size(); }
  void append(Ticks time_abs);

 private:
  std::vector<Ticks> times_;
};

/// Replays a trace: its arrivals are the recorded times, so the next one
/// fires when it falls inside the current episode. Interrupts that fall into
/// "dead" time (e.g. the trace was recorded against a different policy) are
/// skipped.
class TraceAdversary final : public ArrivalAdversary {
 public:
  explicit TraceAdversary(InterruptTrace trace) : trace_(std::move(trace)) {}
  std::string name() const override { return "trace-replay"; }

 private:
  Ticks next_arrival(Ticks /*previous*/) override {
    return next_ < trace_.size() ? trace_.times()[next_++] : kNever;
  }
  void restart(std::uint64_t /*seed*/) override { next_ = 0; }

  InterruptTrace trace_;
  std::size_t next_ = 0;  ///< index of the next recorded time to arm
};

/// Records every interrupt another adversary issues (decorator). It wraps
/// either kind of owner through the schedule-aware entry, so it stays
/// schedule-aware itself: a session under it builds whole episodes even when
/// the wrapped owner is oblivious.
class RecordingAdversary final : public Adversary {
 public:
  explicit RecordingAdversary(Adversary& inner) : inner_(inner) {}
  std::string name() const override { return inner_.name() + "+recorded"; }
  std::optional<Ticks> plan_interrupt(const EpisodeSchedule& episode,
                                      const EpisodeContext& ctx) override;
  void reset(std::uint64_t seed) override;

  const InterruptTrace& trace() const noexcept { return trace_; }

 private:
  Adversary& inner_;
  InterruptTrace trace_;
};

}  // namespace nowsched::adversary
