#include "adversary/stochastic.h"

#include <stdexcept>

namespace nowsched::adversary {

PoissonAdversary::PoissonAdversary(double mean_gap_ticks, std::uint64_t seed)
    : mean_gap_(mean_gap_ticks), rng_(seed) {
  // Negated form so a NaN gap fails too (NaN passes x <= 0.0).
  if (!(mean_gap_ticks > 0.0)) {
    throw std::invalid_argument("PoissonAdversary: mean gap must be positive");
  }
}

Ticks PoissonAdversary::next_arrival(Ticks previous) {
  return tick_after_gap(previous, rng_.exponential(1.0 / mean_gap_));
}

ParetoSessionAdversary::ParetoSessionAdversary(double scale_ticks, double shape,
                                               std::uint64_t seed)
    : scale_(scale_ticks), shape_(shape), rng_(seed) {
  if (!(scale_ticks > 0.0) || !(shape > 0.0)) {
    throw std::invalid_argument("ParetoSessionAdversary: bad scale/shape");
  }
}

Ticks ParetoSessionAdversary::next_arrival(Ticks previous) {
  return tick_after_gap(previous, rng_.pareto(scale_, shape_));
}

UniformEpisodeAdversary::UniformEpisodeAdversary(double prob, std::uint64_t seed)
    : prob_(prob), rng_(seed) {
  if (!(prob >= 0.0 && prob <= 1.0)) {
    throw std::invalid_argument("UniformEpisodeAdversary: prob in [0,1]");
  }
}

void UniformEpisodeAdversary::reset(std::uint64_t seed) { rng_ = util::Rng(seed); }

std::optional<Ticks> UniformEpisodeAdversary::plan_interrupt(const EpisodeContext& ctx) {
  if (ctx.residual < 1 || !rng_.bernoulli(prob_)) return std::nullopt;
  return rng_.uniform_int(1, ctx.residual);
}

}  // namespace nowsched::adversary
