#include "core/equalized.h"

#include <algorithm>
#include <array>
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

/// The forced periods of one candidate value v: each exposes the adversary
/// option worth exactly v, and they run until v is banked.
class ForcedWalk {
 public:
  enum class Step { kEmitted, kBanked, kInfeasible };

  explicit ForcedWalk(double v) : v_(v) {}

  /// Takes the next forced period. kEmitted stores its length in *t;
  /// kBanked means v is banked (need = v − banked <= 0); kInfeasible means
  /// v is too ambitious (a forced period would be unproductive, or the
  /// runaway guard tripped).
  Step step(const EqualizedProblem& e, double* t) {
    const double need = v_ - banked_;
    if (need <= 0.0) return Step::kBanked;
    const double x = e.inverse(need);
    const double t_end = e.lifespan - x;
    *t = t_end - t_begin_;
    if (*t <= e.c) return Step::kInfeasible;
    banked_ += *t - e.c;
    t_begin_ = t_end;
    if (++periods_ > 4096u) return Step::kInfeasible;  // runaway guard
    return Step::kEmitted;
  }

  /// T at the end of the last forced period taken.
  double t_begin() const noexcept { return t_begin_; }

 private:
  double v_;
  double t_begin_ = 0.0;  // running T_{k-1}
  double banked_ = 0.0;
  std::size_t periods_ = 0;
};

// Why a value is feasible as soon as its forced walk banks it. The full
// construction then cuts the remainder L − T into immune pieces and keeps v
// only if the episode has a period and its no-interrupt work reaches v.
// Both always hold. The walk stops with need = v − banked <= 0, and for
// finite doubles that holds exactly when banked >= v: with gradual underflow
// (no flush-to-zero) the difference of two unequal finite doubles never
// rounds to zero. The
// immune pieces add only non-negative amounts to the work (0.5c per 3c/2
// piece, max(0, rest − c) for the last), and rounded addition of a
// non-negative term never lowers a sum, so the work stays >= banked >= v.
// With no forced period, rest = L >= 1 > 0, so at least one piece is cut.
// Feasibility is therefore decided by the forced periods alone.

/// Whether equalized values v[0], v[1], v[2] are feasible. The three walks
/// advance in lockstep so their inverse's sqrt chains, which do not depend
/// on each other, overlap in the CPU.
std::array<bool, 3> feasible3(const EqualizedProblem& e, const std::array<double, 3>& v) {
  using Step = ForcedWalk::Step;
  std::array<ForcedWalk, 3> walks = {ForcedWalk(v[0]), ForcedWalk(v[1]), ForcedWalk(v[2])};
  std::array<Step, 3> state = {Step::kEmitted, Step::kEmitted, Step::kEmitted};
  double t = 0.0;
  while (state[0] == Step::kEmitted || state[1] == Step::kEmitted ||
         state[2] == Step::kEmitted) {
    for (std::size_t k = 0; k < 3; ++k) {
      if (state[k] == Step::kEmitted) state[k] = walks[k].step(e, &t);
    }
  }
  return {state[0] == Step::kBanked, state[1] == Step::kBanked,
          state[2] == Step::kBanked};
}

/// The real-valued period lengths for a value v that feasible3 accepted:
/// the forced periods, then the immune remainder cut into the Thm-4.2 band
/// (3c/2 pieces).
std::vector<double> build(const EqualizedProblem& e, double v) {
  std::vector<double> lengths;
  ForcedWalk walk(v);
  double t = 0.0;
  ForcedWalk::Step step;
  while ((step = walk.step(e, &t)) == ForcedWalk::Step::kEmitted) lengths.push_back(t);
  if (step != ForcedWalk::Step::kBanked) {
    throw std::logic_error("equalized_episode: a probed-feasible value failed to build");
  }
  const double c = e.c;
  double rest = e.lifespan - walk.t_begin();
  while (rest > 3.0 * c) {
    lengths.push_back(1.5 * c);
    rest -= 1.5 * c;
  }
  if (rest > 0.0) lengths.push_back(rest);
  return lengths;
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
  // decide feasibility; the periods are built once, for the final V. Each
  // round takes two bisection steps: it probes mid together with both
  // candidates for the next mid, (mid + hi)/2 if mid is feasible and
  // (lo + mid)/2 if not, and mid's outcome picks which one is kept. The mids,
  // the decisions and the 64-step / 0.25 stop rule are those of a one-probe
  // bisection, bit for bit; a round cut short by the stop rule wastes a probe.
  const EqualizedProblem problem(l, p, c);
  double lo = 0.0, hi = std::max(0.0, l - c);
  double best_v = 0.0;
  int iter = 0;
  const auto keep = [&](double mid, bool feasible) {
    if (feasible) {
      best_v = mid;
      lo = mid;
    } else {
      hi = mid;
    }
    ++iter;
    return iter < 64 && hi - lo > 0.25;
  };
  while (iter < 64 && hi - lo > 0.25) {
    const double mid = (lo + hi) / 2.0;
    const double upper = (mid + hi) / 2.0;
    const double lower = (lo + mid) / 2.0;
    const auto ok = feasible3(problem, {mid, upper, lower});
    if (!keep(mid, ok[0])) break;
    if (ok[0]) {
      keep(upper, ok[1]);
    } else {
      keep(lower, ok[2]);
    }
  }
  // V = 0 is always feasible (no forced period), so there is always a build;
  // with L at or below the Prop 4.1(c) threshold it is one period.
  if (value_out != nullptr) *value_out = best_v;
  return EpisodeSchedule::from_real(build(problem, best_v), lifespan);
}

EpisodeSchedule EqualizedGuidelinePolicy::episode(Ticks residual, int interrupts_left,
                                                  const Params& params) const {
  return equalized_episode(residual, interrupts_left, params);
}

}  // namespace nowsched
