#include "core/schedule.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace nowsched {

EpisodeSchedule::EpisodeSchedule(std::vector<Ticks> periods)
    : periods_(std::move(periods)) {
  for (Ticks t : periods_) {
    if (t < 1) {
      throw std::invalid_argument("EpisodeSchedule: period lengths must be >= 1 tick");
    }
  }
  rebuild_prefix();
}

void EpisodeSchedule::rebuild_prefix() {
  prefix_.resize(periods_.size() + 1);
  prefix_[0] = 0;
  for (std::size_t i = 0; i < periods_.size(); ++i) {
    prefix_[i + 1] = prefix_[i] + periods_[i];
  }
}

EpisodeSchedule EpisodeSchedule::equal_split(Ticks total, std::size_t m) {
  if (m < 1 || static_cast<Ticks>(m) > total) {
    throw std::invalid_argument("equal_split: need 1 <= m <= total");
  }
  const Ticks base = total / static_cast<Ticks>(m);
  const Ticks extra = total % static_cast<Ticks>(m);
  std::vector<Ticks> periods(m, base);
  for (Ticks i = 0; i < extra; ++i) periods[static_cast<std::size_t>(i)] += 1;
  return EpisodeSchedule(std::move(periods));
}

EpisodeSchedule EpisodeSchedule::from_real(const std::vector<double>& lengths,
                                           Ticks total) {
  if (total < 1) throw std::invalid_argument("from_real: total must be >= 1");

  // Only the positive entries become periods, in order; sum them left to
  // right.
  std::size_t m = 0;
  double sum = 0.0;
  for (double x : lengths) {
    if (!std::isfinite(x)) throw std::invalid_argument("from_real: non-finite length");
    if (x > 0.0) {
      sum += x;
      ++m;
    }
  }
  if (m == 0) return EpisodeSchedule({total});
  if (!std::isfinite(sum)) throw std::invalid_argument("from_real: non-finite sum");

  // Scale so the real lengths sum to `total`, then apportion by largest
  // remainder. Floors can make some periods 0; such periods are bumped to 1
  // and the excess is taken back from the largest periods.
  const double scale = static_cast<double>(total) / sum;
  if (static_cast<Ticks>(m) > total) {
    // More periods than ticks: collapse to the feasible maximum.
    return equal_split(total, static_cast<std::size_t>(total));
  }

  std::vector<Ticks> periods(m);
  std::vector<std::pair<double, std::size_t>> remainders(m);
  Ticks assigned = 0;
  std::size_t k = 0;
  for (double x : lengths) {
    if (!(x > 0.0)) continue;
    const double scaled = x * scale;
    const double fl = std::floor(scaled);
    periods[k] = static_cast<Ticks>(fl);
    remainders[k] = {scaled - fl, k};
    assigned += periods[k];
    ++k;
  }
  // Hand out the leftover ticks: a whole round to every period while at
  // least m are left, then one each to the largest remainders, equal
  // remainders lower index first. Under that total order the receivers are
  // one well-defined set, and selecting it is O(m); no sort is needed.
  const Ticks leftover = total - assigned;
  if (leftover > 0) {
    const Ticks rounds = leftover / static_cast<Ticks>(m);
    const auto extra = static_cast<std::ptrdiff_t>(leftover % static_cast<Ticks>(m));
    if (rounds > 0) {
      for (Ticks& t : periods) t += rounds;
    }
    if (extra > 0) {
      const auto first = remainders.begin();
      std::nth_element(first, first + (extra - 1), remainders.end(),
                       [](const auto& a, const auto& b) {
                         return a.first > b.first ||
                                (a.first == b.first && a.second < b.second);
                       });
      for (auto it = first; it != first + extra; ++it) periods[it->second] += 1;
    }
  }
  // Repair zero-length periods (possible when a real length rounded to 0).
  for (std::size_t i = 0; i < m; ++i) {
    while (periods[i] < 1) {
      auto biggest = std::max_element(periods.begin(), periods.end());
      if (*biggest <= 1) {
        // Cannot repair (total too small for m periods); fall back.
        return equal_split(total, static_cast<std::size_t>(
                                      std::min<Ticks>(static_cast<Ticks>(m), total)));
      }
      *biggest -= 1;
      periods[i] += 1;
    }
  }
  return EpisodeSchedule(std::move(periods));
}

Ticks EpisodeSchedule::work_if_uninterrupted(const Params& params) const noexcept {
  Ticks work = 0;
  for (Ticks t : periods_) work += positive_sub(t, params.c);
  return work;
}

Ticks EpisodeSchedule::banked_work(std::size_t k, const Params& params) const {
  if (k > periods_.size()) {
    throw std::out_of_range("banked_work: period index out of range");
  }
  Ticks work = 0;
  for (std::size_t i = 0; i < k; ++i) work += positive_sub(periods_[i], params.c);
  return work;
}

bool EpisodeSchedule::is_productive(const Params& params) const noexcept {
  if (periods_.empty()) return true;
  for (std::size_t i = 0; i + 1 < periods_.size(); ++i) {
    if (periods_[i] <= params.c) return false;
  }
  return true;
}

std::string EpisodeSchedule::to_string() const {
  std::ostringstream os;
  const std::size_t limit = 12;
  for (std::size_t i = 0; i < periods_.size(); ++i) {
    if (i) os << ',';
    if (periods_.size() > limit && i == limit / 2) {
      os << "...";
      i = periods_.size() - limit / 2 - 1;
      continue;
    }
    os << periods_[i];
  }
  os << " (m=" << periods_.size() << ", sum=" << total() << ")";
  return os.str();
}

}  // namespace nowsched
