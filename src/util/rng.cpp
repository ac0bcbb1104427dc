#include "util/rng.h"

#include <cassert>
#include <cmath>

#include "util/hash.h"

namespace nowsched::util {

std::uint64_t Rng::next() noexcept {
  // Canonical SplitMix64: golden-ratio counter through the shared finalizer
  // (util/hash.h owns the mixer constants; one definition, one stream).
  return hash_mix(state_ += 0x9E3779B97F4A7C15ull);
}

std::uint64_t Rng::next_below(std::uint64_t bound) noexcept {
  if (bound == 0) return 0;
  // Lemire 2019: unbiased multiply-shift with rejection.
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(bound);
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (lo < threshold) {
      x = next();
      m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(bound);
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  assert(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  // span == 0 means the full 64-bit range [INT64_MIN, INT64_MAX].
  if (span == 0) return static_cast<std::int64_t>(next());
  return lo + static_cast<std::int64_t>(next_below(span));
}

double Rng::uniform01() noexcept {
  // 53 random mantissa bits -> uniform on [0,1) with full double resolution.
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform01();
}

double Rng::exponential(double lambda) noexcept {
  assert(lambda > 0.0);
  // 1 - U in (0,1] avoids log(0).
  return -std::log1p(-uniform01()) / lambda;
}

double Rng::pareto(double x_m, double alpha) noexcept {
  assert(x_m > 0.0 && alpha > 0.0);
  const double u = 1.0 - uniform01();  // (0, 1]
  return x_m / std::pow(u, 1.0 / alpha);
}

bool Rng::bernoulli(double p) noexcept { return uniform01() < p; }

}  // namespace nowsched::util
