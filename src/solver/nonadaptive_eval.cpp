#include "solver/nonadaptive_eval.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace nowsched::solver {

namespace {

constexpr Ticks kInf = std::numeric_limits<Ticks>::max() / 4;

}  // namespace

NonAdaptiveBestResponse nonadaptive_best_response(const EpisodeSchedule& sched,
                                                  Ticks lifespan, int p,
                                                  const Params& params) {
  require_valid(params);
  if (sched.total() != lifespan) {
    throw std::invalid_argument(
        "nonadaptive_best_response: schedule must span the lifespan");
  }
  if (p < 0) throw std::invalid_argument("nonadaptive_best_response: p >= 0");

  const std::size_t m = sched.size();
  // f[k][q] = min work over periods k..m-1 with q interrupts left.
  // Options at period k (0-based):
  //   complete:            (t_k ⊖ c) + f[k+1][q]
  //   interrupt (q >= 2):  f[k+1][q-1]
  //   interrupt (q == 1):  (U − T_{k+1}) ⊖ c      (long-period rule fires)
  std::vector<std::vector<Ticks>> f(m + 1,
                                    std::vector<Ticks>(static_cast<std::size_t>(p) + 1));
  for (int q = 0; q <= p; ++q) f[m][static_cast<std::size_t>(q)] = 0;
  for (std::size_t k = m; k-- > 0;) {
    for (int q = 0; q <= p; ++q) {
      Ticks best = positive_sub(sched.period(k), params.c) +
                   f[k + 1][static_cast<std::size_t>(q)];
      if (q >= 2) {
        best = std::min(best, f[k + 1][static_cast<std::size_t>(q - 1)]);
      } else if (q == 1) {
        best = std::min(best,
                        positive_sub(positive_sub(lifespan, sched.end(k)), params.c));
      }
      f[k][static_cast<std::size_t>(q)] = best;
    }
  }

  NonAdaptiveBestResponse out;
  out.value = m == 0 ? 0 : f[0][static_cast<std::size_t>(p)];

  // Walk the argmin to recover the interrupt set.
  std::size_t k = 0;
  int q = p;
  while (k < m) {
    const Ticks target = f[k][static_cast<std::size_t>(q)];
    if (q >= 2 && f[k + 1][static_cast<std::size_t>(q - 1)] == target) {
      out.killed_periods.push_back(k);
      --q;
      ++k;
      continue;
    }
    if (q == 1 &&
        positive_sub(positive_sub(lifespan, sched.end(k)), params.c) == target) {
      out.killed_periods.push_back(k);
      // Long-period remainder; nothing further to decide.
      break;
    }
    ++k;  // period completes
  }
  return out;
}

Ticks nonadaptive_guaranteed_work(const EpisodeSchedule& sched, Ticks lifespan, int p,
                                  const Params& params) {
  return nonadaptive_best_response(sched, lifespan, p, params).value;
}

EqualPeriodSearch best_equal_period_count(Ticks lifespan, int p, const Params& params) {
  require_valid(params);
  if (lifespan < 1) throw std::invalid_argument("best_equal_period_count: lifespan >= 1");
  const double guess = std::sqrt(static_cast<double>(p) * static_cast<double>(lifespan) /
                                 static_cast<double>(params.c));
  const std::size_t max_m = std::min<std::size_t>(
      static_cast<std::size_t>(4.0 * std::ceil(guess)) + 8,
      static_cast<std::size_t>(lifespan));

  EqualPeriodSearch out;
  out.best_value = -kInf;
  out.value_by_m.reserve(max_m);
  for (std::size_t m = 1; m <= max_m; ++m) {
    const auto sched = EpisodeSchedule::equal_split(lifespan, m);
    const Ticks v = nonadaptive_guaranteed_work(sched, lifespan, p, params);
    out.value_by_m.push_back(v);
    if (v > out.best_value) {
      out.best_value = v;
      out.best_m = m;
    }
  }
  return out;
}

}  // namespace nowsched::solver
