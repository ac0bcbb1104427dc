#include "core/guidelines.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace nowsched {

namespace {

void require_inputs(Ticks lifespan, int p, const Params& params) {
  require_valid(params);
  if (lifespan < 1) throw std::invalid_argument("guideline: lifespan must be >= 1");
  if (p < 0) throw std::invalid_argument("guideline: p must be >= 0");
}

}  // namespace

// ---------------------------------------------------------------------------
// §3.1
// ---------------------------------------------------------------------------

std::size_t nonadaptive_period_count(Ticks lifespan, int p, const Params& params) {
  require_inputs(lifespan, p, params);
  if (p == 0) return 1;
  const double u = static_cast<double>(lifespan);
  const double c = static_cast<double>(params.c);
  const double m = std::floor(std::sqrt(static_cast<double>(p) * u / c));
  const auto clamped =
      std::max<Ticks>(1, std::min<Ticks>(lifespan, static_cast<Ticks>(m)));
  return static_cast<std::size_t>(clamped);
}

EpisodeSchedule nonadaptive_guideline(Ticks lifespan, int p, const Params& params) {
  return EpisodeSchedule::equal_split(lifespan,
                                      nonadaptive_period_count(lifespan, p, params));
}

// ---------------------------------------------------------------------------
// §3.2
// ---------------------------------------------------------------------------

std::size_t adaptive_tail_count(int p) {
  if (p <= 0) return 0;
  return static_cast<std::size_t>((2 * p + 2) / 3);  // ⌈2p/3⌉
}

std::size_t adaptive_period_count_paper(Ticks lifespan, int p, const Params& params) {
  require_inputs(lifespan, p, params);
  if (p == 0) return 1;
  const double l = static_cast<double>(lifespan);
  const double c = static_cast<double>(params.c);
  const double sqrt_part =
      std::floor(std::pow(2.0, static_cast<double>(p) - 0.5) * std::sqrt(l / c));
  const double extra =
      static_cast<double>(p) * std::pow(2.0, 2.0 * static_cast<double>(p) - 1.0);
  return static_cast<std::size_t>(sqrt_part + extra);
}

double adaptive_pivot_factor(int p) {
  const double pd = static_cast<double>(p);
  return pd - (2.0 - std::pow(2.0, 2.0 - pd)) * std::sqrt(2.0 * pd) + 0.5;
}

EpisodeSchedule adaptive_episode_guideline(Ticks lifespan, int p, const Params& params,
                                           PivotRule rule, AdaptiveLayout* layout) {
  require_inputs(lifespan, p, params);
  AdaptiveLayout local;
  AdaptiveLayout& lay = layout ? *layout : local;
  lay = AdaptiveLayout{};

  if (p == 0) {
    // Prop 4.1(d): the unique 0-interrupt optimum is the single period U.
    return EpisodeSchedule({lifespan});
  }

  const double c = static_cast<double>(params.c);
  const std::size_t tail = adaptive_tail_count(p);
  const double tail_len = 1.5 * c;
  const double step = std::pow(4.0, 1.0 - static_cast<double>(p)) * c;
  double pivot = 0.0;
  switch (rule) {
    case PivotRule::kAsPrinted:
      // The printed formula dips below zero for p in {3..6}; clamp at c/2
      // (the p = 2 printed value) so the schedule stays constructible.
      pivot = std::max(adaptive_pivot_factor(p), 0.5) * c;
      break;
    case PivotRule::kRationalized:
      pivot = 1.5 * c;
      break;
  }

  const double l = static_cast<double>(lifespan);
  const double mandatory = tail_len * static_cast<double>(tail) + pivot;
  if (l < mandatory + 1.0) {
    // Degenerate: the printed shape does not fit. Use the Thm-4.2 band:
    // equal periods as close to 3c/2 as possible, else a single period.
    lay.degenerate = true;
    const auto m = static_cast<Ticks>(std::max(1.0, std::floor(l / tail_len)));
    const Ticks count = std::max<Ticks>(1, std::min<Ticks>(m, lifespan));
    return EpisodeSchedule::equal_split(lifespan, static_cast<std::size_t>(count));
  }

  // Largest r >= 0 with tail + pivot + sum_{j=1..r} (pivot + j*step) <= L,
  // i.e. mandatory + r*pivot + step*r(r+1)/2 <= L. Solve the quadratic,
  // then correct by linear scan (floating point safety).
  const double budget = l - mandatory;
  double r_est;
  if (step > 0.0) {
    const double a = step / 2.0;
    const double b = pivot + step / 2.0;
    r_est = (-b + std::sqrt(b * b + 4.0 * a * budget)) / (2.0 * a);
  } else {
    r_est = budget / std::max(pivot, 1.0);
  }
  auto ramp_sum = [&](double r) {
    return r * pivot + step * r * (r + 1.0) / 2.0;
  };
  auto r = static_cast<std::size_t>(std::max(0.0, std::floor(r_est)));
  while (ramp_sum(static_cast<double>(r + 1)) <= budget) ++r;
  while (r > 0 && ramp_sum(static_cast<double>(r)) > budget) --r;
  if (r + 1 + tail > static_cast<std::size_t>(lifespan)) {
    // More periods than ticks (tiny c): one tick per period is all that fits.
    lay.degenerate = true;
    return EpisodeSchedule::equal_split(lifespan, static_cast<std::size_t>(lifespan));
  }
  lay.ramp_count = r;

  // Assemble real-valued lengths: ramp (longest first), pivot, tail.
  std::vector<double> lengths;
  lengths.reserve(r + 1 + tail);
  for (std::size_t j = r; j >= 1; --j) {
    lengths.push_back(pivot + static_cast<double>(j) * step);
  }
  lengths.push_back(pivot);
  for (std::size_t i = 0; i < tail; ++i) lengths.push_back(tail_len);

  // Absorb the leftover into the first (longest) period so Σ t_k = L holds
  // exactly, as required by the model (§2.2).
  const double assigned = mandatory + ramp_sum(static_cast<double>(r));
  const double leftover = l - assigned;
  lengths.front() += leftover;

  return EpisodeSchedule::from_real(lengths, lifespan);
}

std::string AdaptiveGuidelinePolicy::name() const {
  return rule_ == PivotRule::kAsPrinted ? "adaptive-guideline"
                                        : "adaptive-guideline-rationalized";
}

EpisodeSchedule AdaptiveGuidelinePolicy::episode(Ticks residual, int interrupts_left,
                                                 const Params& params) const {
  return adaptive_episode_guideline(residual, interrupts_left, params, rule_);
}

EpisodeSchedule NonAdaptiveGuidelinePolicy::episode(Ticks residual, int interrupts_left,
                                                    const Params& params) const {
  return nonadaptive_guideline(residual, interrupts_left, params);
}

}  // namespace nowsched
