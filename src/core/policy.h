// SchedulingPolicy: the strategy interface of the cycle-stealing game.
//
// A policy sees only what the paper's owner of A sees (§2.2): the residual
// lifespan and how many interrupts may still occur. It commits to an
// episode-schedule; the next decision point is the next interrupt.
#pragma once

#include <memory>
#include <string>

#include "core/schedule.h"
#include "core/types.h"

namespace nowsched {

class SchedulingPolicy {
 public:
  virtual ~SchedulingPolicy() = default;

  /// Identifier used in benches and EXPERIMENTS.md.
  virtual std::string name() const = 0;

  /// Episode-schedule for the coming episode. Must sum to exactly
  /// `residual`; `interrupts_left` >= 0 is the bound on future interrupts.
  /// Called only with residual >= 1.
  virtual EpisodeSchedule episode(Ticks residual, int interrupts_left,
                                  const Params& params) const = 0;

  /// The leading periods of episode(residual, interrupts_left, params),
  /// through the first period whose end is >= `until` (1 <= until <=
  /// residual): all a session runs when the owner interrupts during tick
  /// `until`. An override may return more leading periods than that, never
  /// fewer; the default returns the whole episode.
  virtual EpisodeSchedule episode_prefix(Ticks residual, int interrupts_left,
                                         const Params& params,
                                         Ticks /*until*/) const {
    return episode(residual, interrupts_left, params);
  }
};

using PolicyPtr = std::shared_ptr<const SchedulingPolicy>;

}  // namespace nowsched
