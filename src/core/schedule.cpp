#include "core/schedule.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <stdexcept>

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

  // Keep positive entries only, preserving order.
  std::vector<double> pos;
  pos.reserve(lengths.size());
  for (double x : lengths) {
    if (x > 0.0) pos.push_back(x);
  }
  if (pos.empty()) return EpisodeSchedule({total});

  // Scale so the real lengths sum to `total`, then apportion by largest
  // remainder. Floors can make some periods 0; such periods are bumped to 1
  // and the excess is taken back from the largest periods.
  const double sum = std::accumulate(pos.begin(), pos.end(), 0.0);
  const double scale = static_cast<double>(total) / sum;

  const std::size_t m = pos.size();
  if (static_cast<Ticks>(m) > total) {
    // More periods than ticks: collapse to the feasible maximum.
    return equal_split(total, static_cast<std::size_t>(total));
  }

  std::vector<Ticks> periods(m);
  std::vector<std::pair<double, std::size_t>> remainders(m);
  Ticks assigned = 0;
  for (std::size_t i = 0; i < m; ++i) {
    const double scaled = pos[i] * scale;
    const double fl = std::floor(scaled);
    periods[i] = static_cast<Ticks>(fl);
    remainders[i] = {scaled - fl, i};
    assigned += periods[i];
  }
  // Hand out the leftover ticks to the largest fractional remainders.
  std::sort(remainders.begin(), remainders.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  Ticks leftover = total - assigned;
  for (std::size_t j = 0; leftover > 0; j = (j + 1) % m, --leftover) {
    periods[remainders[j].second] += 1;
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
