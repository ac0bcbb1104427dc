// Streaming and batch statistics used by the experiment harnesses.
#pragma once

#include <cstddef>
#include <vector>

#include "util/welford.h"

namespace nowsched::util {

/// Numerically stable streaming mean/variance (util::Welford) with min/max.
class Accumulator {
 public:
  void add(double x) noexcept;

  std::size_t count() const noexcept { return moments_.n; }
  double mean() const noexcept { return moments_.mean; }
  /// Unbiased sample variance; 0 when fewer than two samples.
  double variance() const noexcept { return moments_.variance(); }
  double stddev() const noexcept { return moments_.stddev(); }
  double min() const noexcept { return moments_.n ? min_ : 0.0; }
  double max() const noexcept { return moments_.n ? max_ : 0.0; }

 private:
  Welford moments_;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Batch summary with quantiles. Input copied and sorted once.
class Summary {
 public:
  explicit Summary(std::vector<double> samples);

  std::size_t count() const noexcept { return sorted_.size(); }
  double mean() const noexcept { return mean_; }
  double stddev() const noexcept { return stddev_; }
  double min() const noexcept;
  double max() const noexcept;
  /// Linear-interpolation quantile, q in [0, 1].
  double quantile(double q) const;

 private:
  std::vector<double> sorted_;
  double mean_ = 0.0;
  double stddev_ = 0.0;
};

/// Least-squares fit of y = a + b*x. Returns {a, b}; b = 0 when degenerate.
struct LinearFit {
  double intercept = 0.0;
  double slope = 0.0;
  double r2 = 0.0;
};
LinearFit fit_linear(const std::vector<double>& x, const std::vector<double>& y);

}  // namespace nowsched::util
