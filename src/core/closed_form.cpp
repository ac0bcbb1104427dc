#include "core/closed_form.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "core/bounds.h"

namespace nowsched {

namespace {

double alpha_for(Ticks lifespan, std::size_t m, const Params& params) {
  const double u = static_cast<double>(lifespan);
  const double c = static_cast<double>(params.c);
  const double md = static_cast<double>(m);
  return (u - c) / (md * c) - (md - 1.0) / 2.0;
}

}  // namespace

OptP1 optimal_p1_schedule(Ticks lifespan, const Params& params) {
  require_valid(params);
  if (lifespan < 1) throw std::invalid_argument("opt_p1: lifespan must be >= 1");
  OptP1 out;
  std::size_t m = static_cast<std::size_t>(std::max(
      1.0, std::ceil(bounds::optimal_p1_period_count(static_cast<double>(lifespan),
                                                     static_cast<double>(params.c)))));

  if (lifespan < 2 * (params.c + 1) || m < 2) {
    // Too short for the (1+α)c twin-tail structure; W(1) here is 0 or near 0
    // (Prop 4.1(c): zero for U <= 2c) and a single period is as good.
    out.m = 1;
    out.schedule = EpisodeSchedule({lifespan});
    return out;
  }

  // Keep α in (0, 1]; eq. (5.1) can land one off at band boundaries because
  // of the discretized U.
  double alpha = alpha_for(lifespan, m, params);
  for (int guard = 0; guard < 64 && (alpha <= 0.0 || alpha > 1.0); ++guard) {
    if (alpha <= 0.0 && m > 2) --m;
    else if (alpha > 1.0) ++m;
    else break;
    alpha = alpha_for(lifespan, m, params);
  }
  out.m = m;
  out.alpha = alpha;

  const double c = static_cast<double>(params.c);
  std::vector<double> lengths;
  lengths.reserve(m);
  for (std::size_t k = 1; k + 2 <= m; ++k) {
    lengths.push_back((static_cast<double>(m - k) + alpha) * c);
  }
  lengths.push_back((1.0 + alpha) * c);
  lengths.push_back((1.0 + alpha) * c);
  out.schedule = EpisodeSchedule::from_real(lengths, lifespan);
  return out;
}

std::vector<Ticks> kill_option_profile_p1(const EpisodeSchedule& sched, Ticks lifespan,
                                          const Params& params) {
  std::vector<Ticks> profile;
  profile.reserve(sched.size());
  Ticks banked = 0;
  for (std::size_t k = 0; k < sched.size(); ++k) {
    const Ticks rest = positive_sub(positive_sub(lifespan, sched.end(k)), params.c);
    profile.push_back(banked + rest);
    banked += positive_sub(sched.period(k), params.c);
  }
  return profile;
}

Ticks guaranteed_work_p1(const EpisodeSchedule& sched, Ticks lifespan,
                         const Params& params) {
  if (sched.total() != lifespan) {
    throw std::invalid_argument("guaranteed_work_p1: schedule must span the lifespan");
  }
  Ticks best = sched.work_if_uninterrupted(params);
  for (Ticks option : kill_option_profile_p1(sched, lifespan, params)) {
    best = std::min(best, option);
  }
  return best;
}

}  // namespace nowsched
