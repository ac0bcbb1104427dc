// Mergeable streaming moments — the statistical primitive under the racing
// layer (race/bounds.h) and util::Accumulator.
//
// A Welford is the minimal sufficient statistic (n, mean, M2) of a sample
// stream, updated one observation at a time with Welford's numerically
// stable recurrence and combined across streams with the Chan et al.
// parallel update. Both operations are exact in the algebraic sense: any
// split of one stream into chunks, added chunk-wise and merged in any
// grouping, describes the same sample set (tests/race_bounds_test.cpp pins
// merge associativity and agreement with the two-pass variance).
//
// Kept deliberately tiny — three doubles of state, header-only, aggregate-
// initializable — so per-arm statistics in a race are cheap to copy into
// result records and to reason about in tests. util::Accumulator layers
// min/max bookkeeping on top for the experiment harnesses.
#pragma once

#include <cmath>
#include <cstddef>

namespace nowsched::util {

struct Welford {
  std::size_t n = 0;
  double mean = 0.0;
  double m2 = 0.0;  ///< sum of squared deviations from the running mean

  void add(double x) noexcept {
    ++n;
    const double delta = x - mean;
    mean += delta / static_cast<double>(n);
    m2 += delta * (x - mean);
  }

  /// Chan et al. pairwise combination: *this afterwards describes the union
  /// of both sample sets.
  void merge(const Welford& other) noexcept {
    if (other.n == 0) return;
    if (n == 0) {
      *this = other;
      return;
    }
    const auto n1 = static_cast<double>(n);
    const auto n2 = static_cast<double>(other.n);
    const double delta = other.mean - mean;
    const double total = n1 + n2;
    mean += delta * n2 / total;
    m2 += other.m2 + delta * delta * n1 * n2 / total;
    n += other.n;
  }

  /// Unbiased sample variance; 0 when fewer than two samples.
  double variance() const noexcept {
    return n > 1 ? m2 / static_cast<double>(n - 1) : 0.0;
  }

  double stddev() const noexcept { return std::sqrt(variance()); }
};

}  // namespace nowsched::util
