#include "core/equalized.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace nowsched {

namespace {

double deficit_coefficient(int q) {
  return 2.0 - std::pow(2.0, 1.0 - static_cast<double>(q));
}

/// analytic_guaranteed_work_inverse for q >= 1 with its slope term
/// b = (2 − 2^{1−q})·√(2c) already computed.
double inverse_from_slope(double b, double value, double c) {
  // x − a√(2cx) − c/2 = v with s = √x:  s² − (a√(2c))s − (v + c/2) = 0.
  const double s = (b + std::sqrt(b * b + 4.0 * (value + c / 2.0))) / 2.0;
  return s * s;
}

/// One equalized episode problem (L, p, c) with W(p−1)⁻¹'s per-call
/// constants hoisted: the bisection calls the inverse once per forced period
/// of every probe, and each call would otherwise redo a std::pow and a sqrt.
struct EqualizedProblem {
  double lifespan, c;
  int q;         // p − 1: the level the forced periods are equalized against
  double slope;  // (2 − 2^{1−q})·√(2c), unused when q == 0

  EqualizedProblem(double l, int p, double c_)
      : lifespan(l), c(c_), q(p - 1),
        slope(q == 0 ? 0.0 : deficit_coefficient(q) * std::sqrt(2.0 * c_)) {}

  /// analytic_guaranteed_work_inverse(q, value, c), bit for bit.
  double inverse(double value) const {
    return q == 0 ? value + c : inverse_from_slope(slope, value, c);
  }
};

/// Decides whether equalized value `v` is feasible: false when `v` is too
/// ambitious (some forced period would be unproductive or the no-interrupt
/// work falls short of v). When `out` is given and `v` is feasible, the
/// real-valued period lengths are appended to it; a bisection probe passes
/// no `out` and allocates nothing.
bool try_build(const EqualizedProblem& e, double v, std::vector<double>* out) {
  const double c = e.c;
  std::size_t periods = 0;
  double t_begin = 0.0;  // running T_{k-1}
  double banked = 0.0;
  const auto emit = [&](double t) {
    ++periods;
    if (out != nullptr) out->push_back(t);
  };

  // Forced periods: each exposes the adversary option worth exactly v.
  while (true) {
    const double need = v - banked;
    if (need <= 0.0) break;
    const double x = e.inverse(need);
    const double t_end = e.lifespan - x;
    const double t = t_end - t_begin;
    if (t <= c) return false;  // unproductive forced period: v too big
    emit(t);
    banked += t - c;
    t_begin = t_end;
    if (periods > 4096u) return false;  // runaway guard
  }

  // Immune remainder: cut into the Thm-4.2 band (3c/2 pieces).
  double rest = e.lifespan - t_begin;
  double total_work = banked;
  while (rest > 3.0 * c) {
    emit(1.5 * c);
    total_work += 0.5 * c;
    rest -= 1.5 * c;
  }
  if (rest > 0.0) {
    emit(rest);
    total_work += std::max(0.0, rest - c);
  }
  if (periods == 0) return false;
  // The no-interrupt option must also be worth at least v.
  return total_work >= v;
}

}  // namespace

double analytic_guaranteed_work(int q, double lifespan, double c) {
  if (q < 0) throw std::invalid_argument("analytic_guaranteed_work: q >= 0");
  if (lifespan <= 0.0) return 0.0;
  if (q == 0) return std::max(0.0, lifespan - c);
  const double a = deficit_coefficient(q);
  return std::max(0.0, lifespan - a * std::sqrt(2.0 * c * lifespan) - c / 2.0);
}

double analytic_guaranteed_work_inverse(int q, double value, double c) {
  if (q < 0) throw std::invalid_argument("analytic_guaranteed_work_inverse: q >= 0");
  if (value < 0.0) throw std::invalid_argument("inverse: value >= 0");
  if (q == 0) return value + c;
  return inverse_from_slope(deficit_coefficient(q) * std::sqrt(2.0 * c), value, c);
}

EpisodeSchedule equalized_episode(Ticks lifespan, int p, const Params& params,
                                  double* value_out) {
  require_valid(params);
  if (lifespan < 1) throw std::invalid_argument("equalized_episode: lifespan >= 1");
  if (p < 0) throw std::invalid_argument("equalized_episode: p >= 0");
  if (value_out != nullptr) *value_out = 0.0;

  if (p == 0) {
    if (value_out != nullptr) {
      *value_out = static_cast<double>(positive_sub(lifespan, params.c));
    }
    return EpisodeSchedule({lifespan});  // Prop 4.1(d)
  }

  const double l = static_cast<double>(lifespan);
  const double c = static_cast<double>(params.c);

  // Bisect for the largest feasible equalized value V. The probes only
  // decide feasibility; the periods are built once, for the final V.
  const EqualizedProblem problem(l, p, c);
  double lo = 0.0, hi = std::max(0.0, l - c);
  bool feasible = try_build(problem, 0.0, nullptr);
  double best_v = 0.0;
  for (int iter = 0; iter < 64 && hi - lo > 0.25; ++iter) {
    const double mid = (lo + hi) / 2.0;
    if (try_build(problem, mid, nullptr)) {
      feasible = true;
      best_v = mid;
      lo = mid;
    } else {
      hi = mid;
    }
  }
  std::vector<double> lengths;
  if (!feasible || !try_build(problem, best_v, &lengths)) {
    // No productive split exists (L at or below the Prop 4.1(c) threshold):
    // a single period is as good as anything.
    return EpisodeSchedule({lifespan});
  }
  if (value_out != nullptr) *value_out = best_v;
  return EpisodeSchedule::from_real(lengths, lifespan);
}

EpisodeSchedule EqualizedGuidelinePolicy::episode(Ticks residual, int interrupts_left,
                                                  const Params& params) const {
  return equalized_episode(residual, interrupts_left, params);
}

}  // namespace nowsched
