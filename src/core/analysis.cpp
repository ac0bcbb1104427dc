#include "core/analysis.h"

#include <algorithm>
#include <sstream>

#include "core/closed_form.h"

namespace nowsched {

std::string ScheduleDiagnostics::to_string() const {
  std::ostringstream os;
  os << "m=" << periods << " total=" << total << " period[" << min_period << ","
     << max_period << "] mean=" << mean_period << " productive=" << productive_periods
     << " immune-band=" << immune_band_periods << " setup=" << setup_overhead << " ("
     << overhead_fraction * 100.0 << "%) work=" << uninterrupted_work
     << " worst-kill=" << worst_kill_loss;
  return os.str();
}

ScheduleDiagnostics analyze(const EpisodeSchedule& sched, const Params& params) {
  require_valid(params);
  ScheduleDiagnostics d;
  d.periods = sched.size();
  d.total = sched.total();
  if (sched.empty()) return d;

  d.min_period = sched.period(0);
  d.max_period = sched.period(0);
  for (std::size_t i = 0; i < sched.size(); ++i) {
    const Ticks t = sched.period(i);
    d.min_period = std::min(d.min_period, t);
    d.max_period = std::max(d.max_period, t);
    d.productive_periods += (t > params.c);
    d.immune_band_periods += (t > params.c && t <= 2 * params.c);
    d.setup_overhead += std::min(t, params.c);
    d.uninterrupted_work += positive_sub(t, params.c);
    d.worst_kill_loss = std::max(d.worst_kill_loss, t);
  }
  d.mean_period = static_cast<double>(d.total) / static_cast<double>(d.periods);
  d.overhead_fraction =
      static_cast<double>(d.setup_overhead) / static_cast<double>(d.total);
  return d;
}

Ticks equalization_spread_p1(const EpisodeSchedule& sched, Ticks lifespan,
                             const Params& params, std::size_t immune_tail) {
  const auto profile = kill_option_profile_p1(sched, lifespan, params);
  if (profile.size() <= immune_tail + 1) return 0;
  const std::size_t n = profile.size() - immune_tail;
  const auto [lo, hi] = std::minmax_element(profile.begin(),
                                            profile.begin() + static_cast<std::ptrdiff_t>(n));
  return *hi - *lo;
}

}  // namespace nowsched
