// Schedule diagnostics: the quantities an operator (or a bench) wants to see
// about a proposed episode-schedule before committing a contract to it.
#pragma once

#include <cstddef>
#include <string>

#include "core/schedule.h"
#include "core/types.h"

namespace nowsched {

struct ScheduleDiagnostics {
  std::size_t periods = 0;
  Ticks total = 0;
  Ticks min_period = 0;
  Ticks max_period = 0;
  double mean_period = 0.0;

  /// Periods exceeding c (Thm 4.1 "fully productive" count).
  std::size_t productive_periods = 0;
  /// Periods inside the Thm 4.2 immune band (c, 2c].
  std::size_t immune_band_periods = 0;

  /// Setup paid if the episode completes: Σ min(t_i, c).
  Ticks setup_overhead = 0;
  /// Σ (t_i ⊖ c).
  Ticks uninterrupted_work = 0;
  /// setup_overhead / total.
  double overhead_fraction = 0.0;
  /// Largest single-interrupt loss: max over k of (work in period k) + the
  /// lifespan beyond banked use, i.e. the worst kill's destroyed capacity.
  Ticks worst_kill_loss = 0;

  std::string to_string() const;
};

ScheduleDiagnostics analyze(const EpisodeSchedule& sched, const Params& params);

/// max − min of kill_option_profile_p1 (core/closed_form.h) restricted to
/// the first `periods − immune_tail` options (0 when fewer than 2 such
/// options).
Ticks equalization_spread_p1(const EpisodeSchedule& sched, Ticks lifespan,
                             const Params& params, std::size_t immune_tail = 2);

}  // namespace nowsched
