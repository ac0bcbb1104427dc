// Generative interrupt processes beyond the fixed i.i.d. owners of
// stochastic.h — the adversary side of the scenario-generation subsystem
// (DESIGN.md §8).
//
// The paper's optimality claims are worst-case over ALL interrupt patterns,
// so a simulation layer that only ever samples homogeneous Poisson/Pareto
// owners has barely opened the workload space. These processes add the
// structured non-i.i.d. behaviour real owner populations show:
//
//   * MarkovModulatedAdversary — a 2-state MMPP (calm/busy regimes with
//     their own arrival rates and exponential dwell times): owners whose
//     activity level itself evolves;
//   * InhomogeneousPoissonAdversary — a sinusoidally rate-modulated Poisson
//     process sampled by Lewis–Shedler thinning against the peak rate:
//     diurnal owner-return cycles;
//   * BurstyAdversary — heavy-tailed (Pareto) gaps between bursts, each
//     burst a short exponential-gap cluster of arrivals: the "owner comes
//     back, touches the machine five times, leaves for the night" shape;
//   * CorrelatedShockAdversary — stations of a farm group share one
//     Poisson shock stream (derived from a group seed) and each responds
//     to a shock with some probability from a private stream: correlated
//     failures across a heterogeneous farm (power events, lab meetings).
//
// All four are ArrivalAdversary point processes (adversary.h), like the
// Poisson and Pareto owners of stochastic.h: each only says when its next
// arrival comes, in absolute opportunity time, and every stream is
// seed-deterministic (util::Rng, no global state) so any scenario
// reproduces from its spec.
#pragma once

#include "adversary/adversary.h"
#include "util/rng.h"

namespace nowsched::adversary {

/// 2-state Markov-modulated Poisson process. State 0 ("calm") emits
/// arrivals with mean gap `calm_gap`; state 1 ("busy") with mean gap
/// `busy_gap`; dwell times in each state are exponential with means
/// `calm_dwell` / `busy_dwell`. All four parameters are in ticks and must
/// be positive. The chain starts in the calm state.
class MarkovModulatedAdversary final : public ArrivalAdversary {
 public:
  MarkovModulatedAdversary(double calm_gap, double busy_gap, double calm_dwell,
                           double busy_dwell, std::uint64_t seed);
  std::string name() const override { return "markov-owner"; }

 private:
  Ticks next_arrival(Ticks previous) override;
  void restart(std::uint64_t seed) override;
  double calm_gap_;
  double busy_gap_;
  double calm_dwell_;
  double busy_dwell_;
  util::Rng rng_;
  int state_ = 0;                  ///< 0 calm, 1 busy
  double state_end_abs_ = 0.0;     ///< when the current dwell expires
  double clock_abs_ = 0.0;         ///< process time (continuous, pre-rounding)
};

/// Inhomogeneous Poisson process with rate
///   lambda(t) = (1 / mean_gap) * (1 + depth * sin(2*pi*t / period + phase)),
/// sampled by thinning against the peak rate (1 + depth) / mean_gap.
/// Requires mean_gap > 0, depth in [0, 1], period > 0 (depth 0 degenerates
/// to the homogeneous Poisson owner, which the tests exploit).
class InhomogeneousPoissonAdversary final : public ArrivalAdversary {
 public:
  InhomogeneousPoissonAdversary(double mean_gap, double depth, double period,
                                double phase, std::uint64_t seed);
  std::string name() const override { return "inhomogeneous-owner"; }

 private:
  Ticks next_arrival(Ticks previous) override;
  void restart(std::uint64_t seed) override;
  double mean_gap_;
  double depth_;
  double period_;
  double phase_;
  util::Rng rng_;
  double clock_abs_ = 0.0;
};

/// Bursty owner-return process: gaps BETWEEN bursts are Pareto(scale,
/// shape) (heavy-tailed absences), each burst then delivers
/// 1 + Geometric(1 / mean_burst) arrivals separated by exponential gaps of
/// mean `intra_gap`. Requires scale > 0, shape > 0, mean_burst >= 1,
/// intra_gap > 0.
class BurstyAdversary final : public ArrivalAdversary {
 public:
  BurstyAdversary(double scale, double shape, double mean_burst, double intra_gap,
                  std::uint64_t seed);
  std::string name() const override { return "bursty-owner"; }

 private:
  Ticks next_arrival(Ticks previous) override;
  void restart(std::uint64_t seed) override;
  double scale_;
  double shape_;
  double mean_burst_;
  double intra_gap_;
  util::Rng rng_;
  double clock_abs_ = 0.0;
  int burst_left_ = 0;  ///< arrivals remaining in the current burst
};

/// Correlated farm failures: every station constructed with the same
/// `group_seed` sees the IDENTICAL Poisson shock stream (mean gap
/// `shock_gap`); a station responds to each shock with probability
/// `response_prob` drawn from its private `seed` stream. Stations of a
/// group therefore fail together (response_prob -> 1 collapses them onto
/// one failure pattern) while staying individually stochastic.
/// Requires shock_gap > 0 and response_prob in [0, 1].
class CorrelatedShockAdversary final : public ArrivalAdversary {
 public:
  CorrelatedShockAdversary(double shock_gap, double response_prob,
                           std::uint64_t group_seed, std::uint64_t seed);
  std::string name() const override { return "correlated-shock-owner"; }

 private:
  Ticks next_arrival(Ticks previous) override;
  void restart(std::uint64_t seed) override;
  double shock_gap_;
  double response_prob_;
  std::uint64_t group_seed_;
  util::Rng shock_rng_;    ///< shared stream: identical across the group
  util::Rng private_rng_;  ///< per-station response coin
  double shock_clock_abs_ = 0.0;
};

}  // namespace nowsched::adversary
