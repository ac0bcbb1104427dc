// Deterministic random number generation for simulations and property tests.
//
// We intentionally avoid std::mt19937 + std::uniform_*_distribution in
// experiment code: their exact output is implementation-defined across
// standard libraries, which would make EXPERIMENTS.md numbers unstable.
// SplitMix64 is tiny, fast, and has a published reference output stream.
#pragma once

#include <cstdint>
#include <limits>

namespace nowsched::util {

/// SplitMix64 PRNG (Steele, Lea, Flood 2014). Passes BigCrush when used as
/// a 64-bit generator; used here both directly and to seed streams.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) noexcept : state_(seed) {}

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  /// Next raw 64-bit value.
  std::uint64_t next() noexcept;
  result_type operator()() noexcept { return next(); }

  /// Uniform integer in [0, bound) using Lemire's multiply-shift rejection.
  /// bound == 0 returns 0.
  std::uint64_t next_below(std::uint64_t bound) noexcept;

  /// Uniform integer in [lo, hi] inclusive; requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Uniform double in [0, 1).
  double uniform01() noexcept;

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;

  /// Exponential with rate lambda (> 0).
  double exponential(double lambda) noexcept;

  /// Pareto (type I) with scale x_m > 0 and shape alpha > 0.
  double pareto(double x_m, double alpha) noexcept;

  /// Bernoulli trial with success probability p in [0, 1].
  bool bernoulli(double p) noexcept;

 private:
  std::uint64_t state_;
};

}  // namespace nowsched::util
