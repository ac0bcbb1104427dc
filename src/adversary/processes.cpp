#include "adversary/processes.h"

#include <cmath>
#include <stdexcept>

namespace nowsched::adversary {

namespace {

constexpr double kTwoPi = 6.283185307179586476925286766559;

}  // namespace

// ---------------------------------------------------------------------------
// MarkovModulatedAdversary
// ---------------------------------------------------------------------------

MarkovModulatedAdversary::MarkovModulatedAdversary(double calm_gap, double busy_gap,
                                                   double calm_dwell, double busy_dwell,
                                                   std::uint64_t seed)
    : calm_gap_(calm_gap),
      busy_gap_(busy_gap),
      calm_dwell_(calm_dwell),
      busy_dwell_(busy_dwell),
      rng_(seed) {
  // Negated-form checks so NaN parameters fail too (NaN passes x <= 0.0).
  if (!(calm_gap > 0.0) || !(busy_gap > 0.0) || !(calm_dwell > 0.0) ||
      !(busy_dwell > 0.0)) {
    throw std::invalid_argument(
        "MarkovModulatedAdversary: gaps and dwell times must be positive");
  }
  state_end_abs_ = rng_.exponential(1.0 / calm_dwell_);
}

void MarkovModulatedAdversary::restart(std::uint64_t seed) {
  rng_ = util::Rng(seed);
  state_ = 0;
  clock_abs_ = 0.0;
  state_end_abs_ = rng_.exponential(1.0 / calm_dwell_);
}

Ticks MarkovModulatedAdversary::next_arrival(Ticks previous) {
  // Walk dwell segments until an arrival lands inside one. Discarding the
  // unexpired candidate at a state switch is exact: the exponential is
  // memoryless, so the post-switch process does not remember it.
  for (;;) {
    const double gap = rng_.exponential(1.0 / (state_ == 0 ? calm_gap_ : busy_gap_));
    const double candidate = clock_abs_ + gap;
    if (candidate <= state_end_abs_) {
      clock_abs_ = candidate;
      return tick_at_time(previous, clock_abs_);
    }
    clock_abs_ = state_end_abs_;
    state_ = 1 - state_;
    state_end_abs_ =
        clock_abs_ + rng_.exponential(1.0 / (state_ == 0 ? calm_dwell_ : busy_dwell_));
  }
}

// ---------------------------------------------------------------------------
// InhomogeneousPoissonAdversary
// ---------------------------------------------------------------------------

InhomogeneousPoissonAdversary::InhomogeneousPoissonAdversary(double mean_gap,
                                                             double depth,
                                                             double period, double phase,
                                                             std::uint64_t seed)
    : mean_gap_(mean_gap), depth_(depth), period_(period), phase_(phase), rng_(seed) {
  if (!(mean_gap > 0.0) || !(depth >= 0.0 && depth <= 1.0) || !(period > 0.0)) {
    throw std::invalid_argument(
        "InhomogeneousPoissonAdversary: need mean_gap > 0, depth in [0,1], "
        "period > 0");
  }
}

void InhomogeneousPoissonAdversary::restart(std::uint64_t seed) {
  rng_ = util::Rng(seed);
  clock_abs_ = 0.0;
}

Ticks InhomogeneousPoissonAdversary::next_arrival(Ticks previous) {
  // Lewis–Shedler thinning: candidates arrive at the constant peak rate;
  // each is accepted with probability lambda(t) / peak. The acceptance test
  // consumes exactly one uniform per candidate, so the stream is a pure
  // function of (parameters, seed).
  const double peak_rate = (1.0 + depth_) / mean_gap_;
  for (;;) {
    clock_abs_ += rng_.exponential(peak_rate);
    const double lambda_t =
        (1.0 + depth_ * std::sin(kTwoPi * clock_abs_ / period_ + phase_)) / mean_gap_;
    if (rng_.uniform01() * peak_rate <= lambda_t) {
      return tick_at_time(previous, clock_abs_);
    }
  }
}

// ---------------------------------------------------------------------------
// BurstyAdversary
// ---------------------------------------------------------------------------

BurstyAdversary::BurstyAdversary(double scale, double shape, double mean_burst,
                                 double intra_gap, std::uint64_t seed)
    : scale_(scale),
      shape_(shape),
      mean_burst_(mean_burst),
      intra_gap_(intra_gap),
      rng_(seed) {
  if (!(scale > 0.0) || !(shape > 0.0) || !(mean_burst >= 1.0) ||
      !(intra_gap > 0.0)) {
    throw std::invalid_argument(
        "BurstyAdversary: need scale > 0, shape > 0, mean_burst >= 1, "
        "intra_gap > 0");
  }
}

void BurstyAdversary::restart(std::uint64_t seed) {
  rng_ = util::Rng(seed);
  clock_abs_ = 0.0;
  burst_left_ = 0;
}

Ticks BurstyAdversary::next_arrival(Ticks previous) {
  if (burst_left_ > 0) {
    // Inside a burst: short exponential gap to the next touch.
    --burst_left_;
    clock_abs_ += rng_.exponential(1.0 / intra_gap_);
  } else {
    // Between bursts: heavy-tailed absence, then a burst of
    // 1 + Geometric(1 / mean_burst) arrivals (mean total = mean_burst).
    clock_abs_ += rng_.pareto(scale_, shape_);
    burst_left_ = 0;
    if (mean_burst_ > 1.0) {
      const double q = 1.0 - 1.0 / mean_burst_;  // P(one more arrival)
      const double u = rng_.uniform01();
      const double extra = std::floor(std::log1p(-u) / std::log(q));
      // Cap the burst so a pathological uniform draw cannot stall the sim.
      burst_left_ = static_cast<int>(std::min(extra, 64.0));
    }
  }
  return tick_at_time(previous, clock_abs_);
}

// ---------------------------------------------------------------------------
// CorrelatedShockAdversary
// ---------------------------------------------------------------------------

CorrelatedShockAdversary::CorrelatedShockAdversary(double shock_gap,
                                                   double response_prob,
                                                   std::uint64_t group_seed,
                                                   std::uint64_t seed)
    : shock_gap_(shock_gap),
      response_prob_(response_prob),
      group_seed_(group_seed),
      shock_rng_(group_seed),
      private_rng_(seed) {
  if (!(shock_gap > 0.0) || !(response_prob >= 0.0 && response_prob <= 1.0)) {
    throw std::invalid_argument(
        "CorrelatedShockAdversary: need shock_gap > 0 and response_prob in "
        "[0, 1]");
  }
}

void CorrelatedShockAdversary::restart(std::uint64_t seed) {
  shock_rng_ = util::Rng(group_seed_);
  private_rng_ = util::Rng(seed);
  shock_clock_abs_ = 0.0;
}

Ticks CorrelatedShockAdversary::next_arrival(Ticks previous) {
  // Exactly one shared draw and one private draw per shock, responded or
  // not — so every member of the group walks the shared stream in lockstep
  // and sees identical shock times regardless of its own response pattern.
  if (response_prob_ <= 0.0) return kNever;  // never responds
  for (;;) {
    shock_clock_abs_ += shock_rng_.exponential(1.0 / shock_gap_);
    const bool respond = private_rng_.bernoulli(response_prob_);
    if (respond) return tick_at_time(previous, shock_clock_abs_);
  }
}

}  // namespace nowsched::adversary
