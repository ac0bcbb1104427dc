// The paper's published scheduling guidelines.
//
// §3.1 non-adaptive: S_na(p)[U] has m = ⌊√(pU/c)⌋ equal periods of √(cU/p).
// §3.2 adaptive:     Σ_a(p)[U] invokes episode-schedules S_a(p)[U],
//                    S_a(p-1)[·], ..., S_a(0)[·] after successive interrupts.
//
// S_a(p)[L] shape (p >= 1), reading §3.2 with ℓ_p = ⌈2p/3⌉ and step 4^{1−p}c:
//   * the last ℓ_p periods have length 3c/2 (the Thm-4.2 "immune tail"),
//   * the pivot period t_{m−ℓ_p} = (p − (2 − 2^{2−p})√(2p) + ½)·c,
//   * earlier periods grow arithmetically: t_k = t_{k+1} + 4^{1−p}c.
//
// The extended abstract's constants are printed for "large L"; a literal
// reading makes the pivot negative for p ∈ {3..6} and the printed period
// count over-fills L. Our builder therefore keeps the *shape* (tail, pivot,
// arithmetic ramp with the printed step) and derives the ramp length from
// the requirement Σ t_k = L exactly; the leftover ticks are absorbed by the
// first (longest) period. DESIGN.md §1 records the OCR ambiguity; the
// benches report our m alongside the printed formula's m.
#pragma once

#include <cstddef>

#include "core/policy.h"
#include "core/schedule.h"
#include "core/types.h"

namespace nowsched {

// ---------------------------------------------------------------------------
// §3.1 — non-adaptive guideline
// ---------------------------------------------------------------------------

/// m(p)[U] = ⌊√(pU/c)⌋, clamped to [1, U]. p == 0 yields 1 (single period).
/// Pins §3.1's period count, which the equal-period search tests compare
/// against the exhaustive optimum.
std::size_t nonadaptive_period_count(Ticks lifespan, int p, const Params& params);

/// The equal-period non-adaptive schedule S_na(p)[U].
EpisodeSchedule nonadaptive_guideline(Ticks lifespan, int p, const Params& params);

// ---------------------------------------------------------------------------
// §3.2 — adaptive guideline
// ---------------------------------------------------------------------------

/// How to realize the pivot period t_{m−ℓ_p}.
enum class PivotRule {
  /// The printed formula (p − (2 − 2^{2−p})√(2p) + ½)·c, clamped below at
  /// c/2 (the formula is negative for p ∈ {3..6}; see header comment).
  kAsPrinted,
  /// Clamp the pivot into the Thm-4.2 band (c, 2c] by using 3c/2. Offered
  /// as a rationalized ablation; bench_adaptive_vs_optimal compares both.
  kRationalized,
};

/// ℓ_p = ⌈2p/3⌉, the number of short tail periods (0 when p == 0). Pins
/// §3.2's tail length: a non-degenerate S_a(p)[L] ends in this many periods.
std::size_t adaptive_tail_count(int p);

/// The printed schedule-length formula ⌊2^{p−1/2}√(L/c)⌋ + p·2^{2p−1}
/// (reported for comparison; the builder derives its own count).
std::size_t adaptive_period_count_paper(Ticks lifespan, int p, const Params& params);

/// The printed pivot multiplier (p − (2 − 2^{2−p})√(2p) + ½); may be negative.
/// Pins §3.2's pivot formula, including the OCR anomaly for p ∈ {3..6}.
double adaptive_pivot_factor(int p);

/// How the returned schedule was laid out. When not degenerate, the schedule
/// is ramp_count ramp periods, the pivot, then adaptive_tail_count(p) tail
/// periods.
struct AdaptiveLayout {
  std::size_t ramp_count = 0;      ///< periods strictly above the pivot
  bool degenerate = false;         ///< fell back to equal-split / single period
};

/// Builds the adaptive episode-schedule S_a(p)[L] summing exactly to L.
/// p == 0 returns the single period L (Prop 4.1(d) optimum).
EpisodeSchedule adaptive_episode_guideline(Ticks lifespan, int p, const Params& params,
                                           PivotRule rule = PivotRule::kAsPrinted,
                                           AdaptiveLayout* layout = nullptr);

// ---------------------------------------------------------------------------
// Policies wrapping the guidelines
// ---------------------------------------------------------------------------

/// Σ_a(p)[U]: on each (re-)invocation schedules S_a(p_left)[residual].
class AdaptiveGuidelinePolicy final : public SchedulingPolicy {
 public:
  explicit AdaptiveGuidelinePolicy(PivotRule rule = PivotRule::kAsPrinted)
      : rule_(rule) {}
  std::string name() const override;
  EpisodeSchedule episode(Ticks residual, int interrupts_left,
                          const Params& params) const override;

 private:
  PivotRule rule_;
};

/// The §3.1 rule re-applied after every interrupt ("restarted non-adaptive").
/// The committed-schedule semantics of §2.2 (tail + final long period) are
/// evaluated separately by solver/nonadaptive_eval.
class NonAdaptiveGuidelinePolicy final : public SchedulingPolicy {
 public:
  std::string name() const override { return "nonadaptive-restart"; }
  EpisodeSchedule episode(Ticks residual, int interrupts_left,
                          const Params& params) const override;
};

}  // namespace nowsched
