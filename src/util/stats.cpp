#include "util/stats.h"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace nowsched::util {

void Accumulator::add(double x) noexcept {
  if (moments_.n == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  moments_.add(x);
}

Summary::Summary(std::vector<double> samples) : sorted_(std::move(samples)) {
  std::sort(sorted_.begin(), sorted_.end());
  Accumulator acc;
  for (double v : sorted_) acc.add(v);
  mean_ = acc.mean();
  stddev_ = acc.stddev();
}

double Summary::min() const noexcept { return sorted_.empty() ? 0.0 : sorted_.front(); }
double Summary::max() const noexcept { return sorted_.empty() ? 0.0 : sorted_.back(); }

double Summary::quantile(double q) const {
  assert(q >= 0.0 && q <= 1.0);
  if (sorted_.empty()) return 0.0;
  if (sorted_.size() == 1) return sorted_[0];
  const double pos = q * static_cast<double>(sorted_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted_[lo] * (1.0 - frac) + sorted_[hi] * frac;
}

LinearFit fit_linear(const std::vector<double>& x, const std::vector<double>& y) {
  assert(x.size() == y.size());
  LinearFit fit;
  const std::size_t n = x.size();
  if (n < 2) return fit;
  const double nx = static_cast<double>(n);
  const double mx = std::accumulate(x.begin(), x.end(), 0.0) / nx;
  const double my = std::accumulate(y.begin(), y.end(), 0.0) / nx;
  double sxx = 0.0, sxy = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxx += dx * dx;
    sxy += dx * dy;
    syy += dy * dy;
  }
  if (sxx <= 0.0) return fit;
  fit.slope = sxy / sxx;
  fit.intercept = my - fit.slope * mx;
  fit.r2 = syy > 0.0 ? (sxy * sxy) / (sxx * syy) : 1.0;
  return fit;
}

}  // namespace nowsched::util
