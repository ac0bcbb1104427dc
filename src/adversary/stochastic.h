// Stochastic owner models. Real workstation owners are not malicious; they
// return at random times. These processes drive the Monte-Carlo experiments
// (bench_stochastic) that connect the guaranteed-output submodel studied
// here to the expected-output submodel of the companion paper [9].
#pragma once

#include "adversary/adversary.h"
#include "util/rng.h"

namespace nowsched::adversary {

/// Poisson owner: interrupts arrive as a Poisson process with mean
/// inter-arrival `mean_gap` ticks, measured in absolute opportunity time
/// (memorylessness makes the process consistent across episodes).
class PoissonAdversary final : public ArrivalAdversary {
 public:
  PoissonAdversary(double mean_gap_ticks, std::uint64_t seed);
  std::string name() const override { return "poisson-owner"; }

 private:
  Ticks next_arrival(Ticks previous) override;
  void restart(std::uint64_t seed) override { rng_ = util::Rng(seed); }
  double mean_gap_;
  util::Rng rng_;
};

/// Pareto-session owner: absence durations are Pareto(x_m, alpha) — heavy
/// tails model "stepped out for coffee vs. gone for the night" (the classic
/// NOW workload observation). Each arrival is an interrupt.
class ParetoSessionAdversary final : public ArrivalAdversary {
 public:
  ParetoSessionAdversary(double scale_ticks, double shape, std::uint64_t seed);
  std::string name() const override { return "pareto-owner"; }

 private:
  Ticks next_arrival(Ticks previous) override;
  void restart(std::uint64_t seed) override { rng_ = util::Rng(seed); }
  double scale_;
  double shape_;
  util::Rng rng_;
};

/// Uniform-position owner: with probability `prob` per episode, interrupts
/// at a uniformly random tick of the episode. A simple null model.
class UniformEpisodeAdversary final : public ObliviousAdversary {
 public:
  UniformEpisodeAdversary(double prob, std::uint64_t seed);
  std::string name() const override { return "uniform-owner"; }
  using ObliviousAdversary::plan_interrupt;
  std::optional<Ticks> plan_interrupt(const EpisodeContext& ctx) override;
  void reset(std::uint64_t seed) override;

 private:
  double prob_;
  util::Rng rng_;
};

}  // namespace nowsched::adversary
