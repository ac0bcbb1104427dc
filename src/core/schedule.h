// Episode schedules and their work accounting (Rosenberg 1999, §2.2).
//
// An episode-schedule for residual lifespan L is a sequence of period
// lengths t_1..t_m with sum L. Period k begins at T_{k-1} = t_1+..+t_{k-1};
// if it completes it contributes t_k ⊖ c work; if the owner interrupts
// during it, the period's work is lost and the episode ends.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "core/types.h"

namespace nowsched {

class EpisodeSchedule {
 public:
  /// Empty schedule (zero periods, zero lifespan) — the p=0, L=0 base case.
  EpisodeSchedule() = default;

  /// Takes ownership of the period lengths. Every period must be >= 1 tick;
  /// throws std::invalid_argument otherwise.
  explicit EpisodeSchedule(std::vector<Ticks> periods);

  /// L split into m periods as evenly as possible (the first L mod m periods
  /// get the extra tick). Requires 1 <= m <= L.
  static EpisodeSchedule equal_split(Ticks total, std::size_t m);

  /// Builds a schedule from real-valued period lengths, rounded so the sum
  /// is exactly `total` (largest-remainder apportionment; every period >= 1).
  /// The lengths are scaled to sum to `total` and floored; the leftover
  /// ticks go one each to the periods with the largest fractional
  /// remainders, and equal remainders go to the lower index first (a
  /// leftover of m or more first gives every period leftover / m ticks).
  /// Non-positive real lengths are dropped. If the real lengths cannot
  /// accommodate `total` (e.g. all dropped), returns a single period.
  /// Throws std::invalid_argument when `total` < 1 or when a length or the
  /// sum of the positive lengths is not finite.
  static EpisodeSchedule from_real(const std::vector<double>& lengths, Ticks total);

  std::size_t size() const noexcept { return periods_.size(); }
  bool empty() const noexcept { return periods_.empty(); }

  /// Period length t_{k+1} (0-based index k).
  Ticks period(std::size_t k) const { return periods_.at(k); }

  /// T_k, the start time of 0-based period k (T_0 = 0). start(size()) == total.
  Ticks start(std::size_t k) const { return prefix_.at(k); }

  /// End time of 0-based period k, i.e. T_{k+1}.
  Ticks end(std::size_t k) const { return prefix_.at(k + 1); }

  /// Total scheduled lifespan L = sum of period lengths.
  Ticks total() const noexcept { return prefix_.empty() ? 0 : prefix_.back(); }

  std::span<const Ticks> periods() const noexcept { return periods_; }

  /// Work accomplished when no interrupt occurs: sum of (t_i ⊖ c).
  Ticks work_if_uninterrupted(const Params& params) const noexcept;

  /// Work banked by the first k completed periods: sum_{i<k} (t_i ⊖ c).
  /// This is the episode's output when 0-based period k is interrupted.
  Ticks banked_work(std::size_t k, const Params& params) const;

  /// "Productive" (Thm 4.1): every period except possibly the last exceeds c.
  /// Test oracle: pins the postcondition of Thm 4.1's make_productive.
  bool is_productive(const Params& params) const noexcept;

  /// Human-readable rendering "t1,t2,...,tm (sum=L)"; long schedules elided.
  std::string to_string() const;

  friend bool operator==(const EpisodeSchedule& a, const EpisodeSchedule& b) {
    return a.periods_ == b.periods_;
  }

 private:
  void rebuild_prefix();

  std::vector<Ticks> periods_;
  std::vector<Ticks> prefix_;  // prefix_[k] = T_k; size == periods_.size() + 1
};

}  // namespace nowsched
