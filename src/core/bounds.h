// Analytic formulas from the paper, used as reference curves by the benches
// and as oracles by the tests. All continuous-time, in double.
#pragma once

#include <cstddef>

#include "core/types.h"

namespace nowsched::bounds {

/// §3.1 guaranteed work of S_na(p)[U] as derived by direct optimization of
/// equal periods (adversary kills the last p periods at their last instant):
///   W = U − 2√(pcU) + pc.
double nonadaptive_work(double lifespan, int p, double c);

/// The OCR of §3.1 prints "U − √(2pcU) + pc + O(1)"; kept for comparison
/// (bench_nonadaptive reports measured work against both readings).
double nonadaptive_work_ocr(double lifespan, int p, double c);

/// Thm 5.1 leading terms: W(Σ_a(p)[U]) >= U − (2 − 2^{1−p})√(2cU) − O(U^{1/4} + pc).
/// Returns the bound *without* the O(·) slack, i.e. U − (2 − 2^{1−p})√(2cU);
/// callers subtract their own slack model.
double adaptive_work_leading(double lifespan, int p, double c);

/// The deficit coefficient (2 − 2^{1−p})√2 multiplying √(cU) in Thm 5.1.
/// Pins the printed Thm 5.1 constant that optimal_deficit_coefficient and
/// the measured DP deficits are compared against.
double adaptive_deficit_coefficient(int p);

/// The EXACT asymptotic optimal deficit coefficient a_p in
///   W(p)[U] = U − a_p·√(2cU) − o(√U),
/// satisfying a_0 = 0 and a_p = a_{p−1} + 1/a_p, i.e.
///   a_p = (a_{p−1} + √(a_{p−1}² + 4)) / 2:
///   a_1 = 1,  a_2 = φ = 1.6180…,  a_3 = 2.0953…,  a_4 = 2.4959…, a_p ~ √(2p).
///
/// Derivation (variational, matching the equalization of Thm 4.3): the
/// optimal episode uses period lengths t(T) = c / D'_p(U−T) where
/// D_p(x) = a_p√(2cx) is the deficit, so the no-interrupt deficit mc equals
/// a_p√(2cU) and the kill-period-1 deficit is t(0) + D_{p−1}(U) =
/// (1/a_p + a_{p−1})√(2cU); equalizing gives a_p = a_{p−1} + 1/a_p.
///
/// Our exact DP measures these constants to three decimals (grid- and
/// scale-independent; see bench_theorem51 and EXPERIMENTS.md E4). They
/// exceed the surviving text's (2 − 2^{1−p}) for every p >= 2 — Table 2
/// pins p = 1 where both give 1 — so the printed Thm 5.1 coefficient is
/// unachievable as stated for p >= 2; we report both.
double optimal_deficit_coefficient(int p);

/// Table 2 approximation of the 1-interrupt optimum: W(1)[U] ≈ U − √(2cU) − c/2.
double optimal_p1_work(double lifespan, double c);

/// Table 2 approximation of the optimal period count: m(1)[U] ≈ √(2U/c − 7/4) − 1/2
/// (eq. 5.1; 1 when 2U/c <= 7/4). optimal_p1_schedule starts from its ceiling.
double optimal_p1_period_count(double lifespan, double c);

/// Prop 4.1(c): W(p)[U] = 0 whenever U <= (p+1)c. Pins that claim as the
/// oracle the value-table tests and the conformance suite check W against.
nowsched::Ticks zero_work_threshold(int p, nowsched::Ticks c);

}  // namespace nowsched::bounds
