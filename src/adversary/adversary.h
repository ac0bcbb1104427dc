// Owner-interrupt models ("adversaries") for the simulator.
//
// The paper's game-theoretic adversary is malicious and schedule-aware
// (§4: "a game against a malicious adversary"); real owners are oblivious
// stochastic processes. Both implement this interface: at the start of each
// episode the adversary decides where (if anywhere) inside it the interrupt
// lands. A schedule-aware owner sees the committed episode-schedule first.
// An oblivious owner (ObliviousAdversary) decides from the EpisodeContext
// alone, so a session asks it before the episode is built and builds only
// the periods up to the one the interrupt kills (§2.2: the schedule after
// it never runs). Oblivious owners whose returns form a point process in
// absolute opportunity time derive from ArrivalAdversary, which owns the
// one rule for firing them.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>

#include "core/schedule.h"
#include "core/types.h"

namespace nowsched::adversary {

/// Episode-start context visible to the adversary.
struct EpisodeContext {
  Ticks episode_start = 0;  ///< absolute opportunity time at episode start
  Ticks residual = 0;       ///< residual lifespan (== episode total)
  int interrupts_left = 0;  ///< interrupts the owner may still use
  Params params;
};

class Adversary {
 public:
  virtual ~Adversary() = default;

  virtual std::string name() const = 0;

  /// 1-based tick in [1, episode.total()] *during* which the owner
  /// interrupts (consuming that many ticks of lifespan and killing the
  /// period containing the tick), or nullopt to let the episode run.
  /// Called only when interrupts_left > 0.
  virtual std::optional<Ticks> plan_interrupt(const EpisodeSchedule& episode,
                                              const EpisodeContext& ctx) = 0;

  /// Re-seed / reset internal state before a fresh opportunity.
  virtual void reset(std::uint64_t /*seed*/) {}
};

/// An owner that does not read the schedule: its interrupt depends on the
/// EpisodeContext alone, where ctx.residual is the episode total.
class ObliviousAdversary : public Adversary {
 public:
  /// 1-based tick in [1, ctx.residual] during which the owner interrupts,
  /// or nullopt. Called only when interrupts_left > 0.
  virtual std::optional<Ticks> plan_interrupt(const EpisodeContext& ctx) = 0;

  /// The schedule-aware entry: the episode is not read.
  std::optional<Ticks> plan_interrupt(const EpisodeSchedule& /*episode*/,
                                      const EpisodeContext& ctx) final {
    return plan_interrupt(ctx);
  }
};

/// An owner whose returns are a point process in absolute opportunity time,
/// so the stream is consistent across episode boundaries. One arrival is
/// armed at a time: arrivals at or before an episode's start fell into
/// earlier episodes or between them and are skipped; the armed arrival
/// interrupts the episode it lands in, and the next one is armed. The first
/// arrival is armed at the first plan_interrupt, so a subclass's RNG draws
/// happen in stream order.
class ArrivalAdversary : public ObliviousAdversary {
 public:
  /// An arrival time that never comes (past every episode).
  static constexpr Ticks kNever = std::numeric_limits<Ticks>::max() / 2;

  using ObliviousAdversary::plan_interrupt;
  std::optional<Ticks> plan_interrupt(const EpisodeContext& ctx) final {
    while (armed_ <= ctx.episode_start) armed_ = next_arrival(armed_);
    const Ticks offset = armed_ - ctx.episode_start;
    if (offset > ctx.residual) return std::nullopt;  // beyond this episode
    armed_ = next_arrival(armed_);  // the arrival fires; arm the next one
    return offset;
  }

  void reset(std::uint64_t seed) final {
    armed_ = 0;
    restart(seed);
  }

 protected:
  /// The first arrival strictly after `previous` (0 before the first), or
  /// kNever. Called only with previous < kNever.
  virtual Ticks next_arrival(Ticks previous) = 0;

  /// Restores the process to its freshly constructed state under `seed`.
  virtual void restart(std::uint64_t seed) = 0;

  /// The arrival a continuous `gap` after `previous`: at least one tick.
  static Ticks tick_after_gap(Ticks previous, double gap) noexcept {
    return std::min(kNever, previous + std::max<Ticks>(1, to_tick(gap)));
  }

  /// The arrival at continuous clock time `t`, kept strictly after
  /// `previous` (arrivals under a tick apart land on consecutive ticks).
  static Ticks tick_at_time(Ticks previous, double t) noexcept {
    return std::max(previous + 1, to_tick(t));
  }

 private:
  /// Rounds to the tick grid, saturated at kNever: a time past the tick
  /// range means the owner never returns (std::llround of an out-of-range
  /// value is unspecified, and callers' max(previous + 1, .) would turn it
  /// into the next tick).
  static Ticks to_tick(double t) noexcept {
    return t < static_cast<double>(kNever) ? static_cast<Ticks>(std::llround(t))
                                           : kNever;
  }

  Ticks armed_ = 0;  ///< the armed arrival; 0 before the first is armed
};

}  // namespace nowsched::adversary
