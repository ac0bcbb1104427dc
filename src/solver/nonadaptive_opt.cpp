#include "solver/nonadaptive_opt.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/guidelines.h"
#include "util/rng.h"

namespace nowsched::solver {

namespace {

constexpr int kMaxRounds = 24;             ///< δ-halving rounds
constexpr std::size_t kPairSamples = 64;   ///< sampled (i, j) pairs per round when m large
constexpr std::uint64_t kSeed = 1;

Ticks evaluate(const std::vector<Ticks>& periods, Ticks lifespan, int p,
               const Params& params) {
  return nonadaptive_guaranteed_work(EpisodeSchedule{std::vector<Ticks>(periods)},
                                     lifespan, p, params);
}

}  // namespace

CommittedSearchResult optimize_committed(Ticks lifespan, int p, const Params& params) {
  const auto seed_sched = nonadaptive_guideline(lifespan, p, params);
  std::vector<Ticks> periods(seed_sched.periods().begin(), seed_sched.periods().end());

  CommittedSearchResult result;
  result.start_value = nonadaptive_guaranteed_work(seed_sched, lifespan, p, params);
  Ticks best = result.start_value;
  util::Rng rng(kSeed);

  Ticks delta = std::max<Ticks>(1, lifespan / std::max<Ticks>(8, 4 * static_cast<Ticks>(
                                                                      periods.size())));
  for (int round = 0; round < kMaxRounds; ++round) {
    bool improved = false;

    // Transfer moves between sampled pairs.
    const std::size_t m = periods.size();
    std::vector<std::pair<std::size_t, std::size_t>> pairs;
    if (m * m <= kPairSamples * 4) {
      for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < m; ++j) {
          if (i != j) pairs.emplace_back(i, j);
        }
      }
    } else {
      for (std::size_t s = 0; s < kPairSamples; ++s) {
        const auto i = static_cast<std::size_t>(rng.next_below(m));
        auto j = static_cast<std::size_t>(rng.next_below(m));
        if (i == j) j = (j + 1) % m;
        pairs.emplace_back(i, j);
      }
      // Always include neighbour transfers — the most useful direction.
      for (std::size_t i = 0; i + 1 < m; ++i) {
        pairs.emplace_back(i, i + 1);
        pairs.emplace_back(i + 1, i);
      }
    }
    for (const auto& [from, to] : pairs) {
      if (periods[from] <= delta) continue;
      periods[from] -= delta;
      periods[to] += delta;
      const Ticks v = evaluate(periods, lifespan, p, params);
      if (v > best) {
        best = v;
        improved = true;
        ++result.improving_moves;
      } else {
        periods[from] += delta;
        periods[to] -= delta;
      }
    }

    // Split moves: halve the largest few periods.
    for (int attempt = 0; attempt < 4; ++attempt) {
      const auto largest = static_cast<std::size_t>(std::distance(
          periods.begin(), std::max_element(periods.begin(), periods.end())));
      if (periods[largest] < 2) break;
      const Ticks t = periods[largest];
      periods[largest] = t / 2;
      periods.insert(periods.begin() + static_cast<std::ptrdiff_t>(largest) + 1,
                     t - t / 2);
      const Ticks v = evaluate(periods, lifespan, p, params);
      if (v > best) {
        best = v;
        improved = true;
        ++result.improving_moves;
      } else {
        periods.erase(periods.begin() + static_cast<std::ptrdiff_t>(largest) + 1);
        periods[largest] = t;
        break;
      }
    }

    // Merge moves: combine the smallest adjacent pair.
    if (periods.size() >= 2) {
      std::size_t arg = 0;
      Ticks smallest_sum = periods[0] + periods[1];
      for (std::size_t i = 1; i + 1 < periods.size(); ++i) {
        if (periods[i] + periods[i + 1] < smallest_sum) {
          smallest_sum = periods[i] + periods[i + 1];
          arg = i;
        }
      }
      const Ticks a = periods[arg], b = periods[arg + 1];
      periods[arg] = a + b;
      periods.erase(periods.begin() + static_cast<std::ptrdiff_t>(arg) + 1);
      const Ticks v = evaluate(periods, lifespan, p, params);
      if (v > best) {
        best = v;
        improved = true;
        ++result.improving_moves;
      } else {
        periods[arg] = a;
        periods.insert(periods.begin() + static_cast<std::ptrdiff_t>(arg) + 1, b);
      }
    }

    if (!improved) {
      if (delta == 1) break;
      delta = std::max<Ticks>(1, delta / 2);
    }
  }

  result.schedule = EpisodeSchedule(std::move(periods));
  result.value = best;
  return result;
}

}  // namespace nowsched::solver
