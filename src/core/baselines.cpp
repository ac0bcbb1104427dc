#include "core/baselines.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace nowsched {

EpisodeSchedule SingleBlockPolicy::episode(Ticks residual, int /*interrupts_left*/,
                                           const Params& /*params*/) const {
  return EpisodeSchedule({residual});
}

FixedChunkPolicy::FixedChunkPolicy(double chunk_in_c) : chunk_in_c_(chunk_in_c) {
  if (chunk_in_c <= 0.0) {
    throw std::invalid_argument("FixedChunkPolicy: chunk size must be positive");
  }
}

std::string FixedChunkPolicy::name() const {
  return "fixed-chunk-" + std::to_string(chunk_in_c_).substr(0, 4) + "c";
}

EpisodeSchedule FixedChunkPolicy::episode(Ticks residual, int /*interrupts_left*/,
                                          const Params& params) const {
  const auto chunk = std::max<Ticks>(
      1, static_cast<Ticks>(std::llround(chunk_in_c_ * static_cast<double>(params.c))));
  std::vector<Ticks> periods;
  Ticks left = residual;
  while (left >= 2 * chunk) {
    periods.push_back(chunk);
    left -= chunk;
  }
  periods.push_back(left);  // remainder chunk in [chunk, 2*chunk)
  return EpisodeSchedule(std::move(periods));
}

GeometricPolicy::GeometricPolicy(double divisor, double floor_in_c)
    : divisor_(divisor), floor_in_c_(floor_in_c) {
  if (divisor <= 1.0) throw std::invalid_argument("GeometricPolicy: divisor must be > 1");
  if (floor_in_c <= 0.0) {
    throw std::invalid_argument("GeometricPolicy: floor must be positive");
  }
}

std::string GeometricPolicy::name() const {
  return "geometric-1/" + std::to_string(divisor_).substr(0, 3);
}

EpisodeSchedule GeometricPolicy::episode(Ticks residual, int /*interrupts_left*/,
                                         const Params& params) const {
  const auto floor_len = std::max<Ticks>(
      1, static_cast<Ticks>(std::llround(floor_in_c_ * static_cast<double>(params.c))));
  std::vector<Ticks> periods;
  Ticks left = residual;
  double next = static_cast<double>(residual) / divisor_;
  while (left > 0) {
    auto len = static_cast<Ticks>(std::llround(next));
    len = std::max(len, floor_len);
    if (len >= left || left - len < floor_len) {
      periods.push_back(left);  // merge the tail into one final period
      break;
    }
    periods.push_back(len);
    left -= len;
    next /= divisor_;
  }
  return EpisodeSchedule(std::move(periods));
}

}  // namespace nowsched
