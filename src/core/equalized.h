// The §4.2 "abstract guideline", made constructive.
//
// Thm 4.3 characterizes optimal episode-schedules by *equalizing the impact
// of every potential interruption*: for every period k, the adversary's
// payoff from killing period k at its last instant,
//     banked(k−1) + W(p−1)[L − T_k],
// is the same constant V — which also equals the no-interrupt work L − mc.
//
// The DP solver realizes this with exact W(p−1) tables; this header realizes
// it *analytically*, using the paper's own closed-form approximation
//     W(q)[x] ≈ x − (2 − 2^{1−q})·√(2cx) − c/2      (Thm 5.1 / Table 2),
// with the exact W(0)[x] = x ⊖ c base case. The episode for (L, p) is built
// by bisecting on the equalized value V: given V, period ends are forced by
//     W(p−1)[L − T_k] = V − banked(k−1)   ⇒   T_k = L − W(p−1)⁻¹(·),
// and once the banked prefix covers V the remainder is cut into the Thm-4.2
// immune band (periods of 3c/2).
//
// Unlike the §3.2 printed constants (garbled in the surviving text for
// p >= 2 — see DESIGN.md §1), this construction needs no magic numbers and
// tracks the DP optimum within low-order terms for every p (verified in
// tests/integration_test.cpp and bench_adaptive_vs_optimal).
#pragma once

#include <vector>

#include "core/policy.h"
#include "core/schedule.h"
#include "core/types.h"

namespace nowsched {

/// The paper's analytic approximation of the optimal guaranteed work:
/// q == 0: x ⊖ c (exact, Prop 4.1(d));
/// q >= 1: max(0, x − (2 − 2^{1−q})√(2cx) − c/2).
double analytic_guaranteed_work(int q, double lifespan, double c);

/// Inverse on the increasing branch: the smallest x with
/// analytic_guaranteed_work(q, x) == v, for v >= 0.
double analytic_guaranteed_work_inverse(int q, double value, double c);

/// Builds the equalized episode-schedule for (L, p). p == 0 is the single
/// period L. Returns the realized equalized value V via `value_out` if given;
/// the equalized tests pin V against a reference bisection and against
/// guaranteed_work_p1.
EpisodeSchedule equalized_episode(Ticks lifespan, int p, const Params& params,
                                  double* value_out = nullptr);

/// Adaptive policy built on equalized episodes — the reference
/// implementation of the paper's abstract guidelines.
class EqualizedGuidelinePolicy final : public SchedulingPolicy {
 public:
  std::string name() const override { return "equalized-guideline"; }
  EpisodeSchedule episode(Ticks residual, int interrupts_left,
                          const Params& params) const override;
};

}  // namespace nowsched
