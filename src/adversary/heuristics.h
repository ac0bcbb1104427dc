// Deterministic, schedule-aware adversary heuristics mirroring §4.1's
// Observations: interrupts at last instants, spent early, never wasted on a
// lifespan that cannot produce work. They read the committed episode, so a
// session builds it whole before asking them.
#pragma once

#include "adversary/adversary.h"

namespace nowsched::adversary {

/// Never interrupts (the a = 0 realisation; Prop 4.1(b) baseline).
class NoOpAdversary final : public Adversary {
 public:
  std::string name() const override { return "no-op"; }
  std::optional<Ticks> plan_interrupt(const EpisodeSchedule&,
                                      const EpisodeContext&) override {
    return std::nullopt;
  }
};

/// Kills the FIRST period of every episode at its last instant — the
/// harshest "always interrupt immediately" owner (cf. Obs (b): the adversary
/// always interrupts while it can).
class FirstPeriodAdversary final : public Adversary {
 public:
  std::string name() const override { return "kill-first-period"; }
  std::optional<Ticks> plan_interrupt(const EpisodeSchedule& episode,
                                      const EpisodeContext& ctx) override;
};

/// Kills the longest period (ties: earliest) at its last instant — a greedy
/// "maximize wasted lifespan" owner.
class LargestPeriodAdversary final : public Adversary {
 public:
  std::string name() const override { return "kill-largest-period"; }
  std::optional<Ticks> plan_interrupt(const EpisodeSchedule& episode,
                                      const EpisodeContext& ctx) override;
};

/// Obs (c)-guided: kills, at its last instant, the latest period that still
/// begins before residual − p·c (leaving itself future leverage); skips the
/// episode when the residual is already unproductive (residual <= c).
class ObservationAdversary final : public Adversary {
 public:
  std::string name() const override { return "observation-guided"; }
  std::optional<Ticks> plan_interrupt(const EpisodeSchedule& episode,
                                      const EpisodeContext& ctx) override;
};

}  // namespace nowsched::adversary
