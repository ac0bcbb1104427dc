// Cross-module integration tests: the paper's theorems checked end-to-end on
// exact game values (solver) against the published guidelines (core).
#include <gtest/gtest.h>

#include <cmath>
#include <type_traits>

#include "core/bounds.h"
#include "core/closed_form.h"
#include "core/equalized.h"
#include "core/guidelines.h"
#include "solver/extract.h"
#include "solver/fast_solver.h"
#include "solver/nonadaptive_eval.h"
#include "solver/policy_eval.h"
#include "solver/reference_solver.h"

namespace nowsched {
namespace {

constexpr Ticks kC = 16;
constexpr Params kParams{kC};

double sqrt_cu(Ticks u) {
  return std::sqrt(static_cast<double>(kC) * static_cast<double>(u));
}

// ---------------------------------------------------------------------------
// Thm 5.1 and the §5.2 near-optimality claim
// ---------------------------------------------------------------------------

// Every field is a Ticks so the struct has no padding bytes: gtest names each
// case after the bytes of its parameter, and padding bytes are indeterminate.
struct Thm51Case {
  Ticks u;
  Ticks p;
};
static_assert(std::has_unique_object_representations_v<Thm51Case>);

class Theorem51 : public ::testing::TestWithParam<Thm51Case> {};

TEST_P(Theorem51, OptimumMeetsTheGuaranteedWorkBound) {
  // W(p)[U] >= U − (2 − 2^{1−p})√(2cU) − O(U^{1/4} + pc): the optimum
  // certainly satisfies the bound the guideline is proved to achieve.
  const auto [u, p] = GetParam();
  const auto table = solver::solve_fast(p, u, kParams);
  const double leading = bounds::adaptive_work_leading(static_cast<double>(u), p,
                                                       static_cast<double>(kC));
  const double slack = 6.0 * std::pow(static_cast<double>(u), 0.25) +
                       4.0 * static_cast<double>(p) * static_cast<double>(kC) + 8.0;
  EXPECT_GE(static_cast<double>(table.value(p, u)), leading - slack)
      << "u=" << u << " p=" << p;
}

TEST_P(Theorem51, PrintedGuidelineWithinLowOrderTermsForSmallP) {
  // §5.2: "W(Σ_a(p)[U]) deviates from optimality by only low-order additive
  // terms." The surviving text's §3.2 constants are intact for p <= 2 (they
  // are pinned by Table 2); for p >= 3 they are OCR-garbled and the printed
  // layout drifts (DESIGN.md, EXPERIMENTS.md E5) — the equalized guideline
  // below carries the claim for general p.
  const auto [u, p] = GetParam();
  if (p > 2) return;
  const auto table = solver::solve_fast(p, u, kParams);
  const AdaptiveGuidelinePolicy guideline;
  const Ticks got = solver::evaluate_policy(guideline, u, p, kParams);
  const Ticks opt = table.value(p, u);
  EXPECT_LE(got, opt);
  const double gap = static_cast<double>(opt - got);
  EXPECT_LE(gap, 1.5 * sqrt_cu(u) + 6.0 * static_cast<double>(p) * kC + 24.0)
      << "u=" << u << " p=" << p << " opt=" << opt << " got=" << got;
}

TEST_P(Theorem51, EqualizedGuidelineWithinLowOrderTermsForAllP) {
  // The §4.2 abstract guideline (equalize all interrupt impacts, realized
  // with the paper's analytic W approximation) must track the DP optimum
  // within low-order terms for EVERY p in the sweep.
  const auto [u, p] = GetParam();
  const auto table = solver::solve_fast(p, u, kParams);
  const EqualizedGuidelinePolicy guideline;
  const Ticks got = solver::evaluate_policy(guideline, u, p, kParams);
  const Ticks opt = table.value(p, u);
  EXPECT_LE(got, opt);
  const double gap = static_cast<double>(opt - got);
  EXPECT_LE(gap, 0.75 * sqrt_cu(u) + 6.0 * static_cast<double>(p) * kC + 24.0)
      << "u=" << u << " p=" << p << " opt=" << opt << " got=" << got;
}

INSTANTIATE_TEST_SUITE_P(Sweep, Theorem51,
                         ::testing::Values(Thm51Case{1 << 12, 0}, Thm51Case{1 << 12, 1},
                                           Thm51Case{1 << 13, 1}, Thm51Case{1 << 13, 2},
                                           Thm51Case{1 << 14, 2}, Thm51Case{1 << 14, 3}));

// ---------------------------------------------------------------------------
// Adaptive vs non-adaptive separation (§3 headline comparison)
// ---------------------------------------------------------------------------

TEST(AdaptiveVsNonAdaptive, AdaptiveOptimumDominatesCommittedSchedules) {
  // W(p)[U] is an upper bound for ANY committed schedule's guaranteed work.
  const Ticks u = 1 << 13;
  const auto table = solver::solve_fast(3, u, kParams);
  for (int p = 1; p <= 3; ++p) {
    const auto sched = nonadaptive_guideline(u, p, kParams);
    const Ticks committed = solver::nonadaptive_guaranteed_work(sched, u, p, kParams);
    EXPECT_LE(committed, table.value(p, u)) << "p=" << p;
  }
}

TEST(AdaptiveVsNonAdaptive, DeficitCoefficientsOrderCorrectly) {
  // Deficit (U − W) should scale like 2√(pcU) for the non-adaptive guideline
  // and (2−2^{1−p})√(2cU) for the adaptive optimum — so the adaptive deficit
  // must be strictly smaller for every p >= 1 at large U/c.
  const Ticks u = 1 << 14;
  const auto table = solver::solve_fast(3, u, kParams);
  for (int p = 1; p <= 3; ++p) {
    const auto sched = nonadaptive_guideline(u, p, kParams);
    const Ticks na = solver::nonadaptive_guaranteed_work(sched, u, p, kParams);
    const Ticks ad = table.value(p, u);
    EXPECT_GT(ad, na) << "p=" << p;
    // Deficit ratio: exact optimal coefficient a_p (see
    // bounds::optimal_deficit_coefficient — the recurrence our DP confirms)
    // over the non-adaptive √(2p).
    const double na_deficit = static_cast<double>(u - na);
    const double ad_deficit = static_cast<double>(u - ad);
    const double predicted_ratio = bounds::optimal_deficit_coefficient(p) /
                                   std::sqrt(2.0 * static_cast<double>(p));
    EXPECT_NEAR(ad_deficit / na_deficit, predicted_ratio, 0.08) << "p=" << p;
  }
}

// ---------------------------------------------------------------------------
// Observations (a)-(c) of §4.1
// ---------------------------------------------------------------------------

TEST(Observations, MidPeriodInterruptsNeverHelpTheAdversary) {
  // Obs (a) on a small exhaustive grid: extending the adversary's options to
  // every interior tick of the chosen period does not lower the game value.
  const Ticks max_l = 220;
  const Params params{6};
  const auto standard = solver::solve_reference(2, max_l, params);
  // Recompute with mid-period options: min over x in [1, t] of V_{p-1}(L-x).
  for (int p = 1; p <= 2; ++p) {
    for (Ticks l = 0; l <= max_l; ++l) {
      Ticks best = 0;
      for (Ticks t = 1; t <= l; ++t) {
        Ticks worst_interrupt = std::numeric_limits<Ticks>::max();
        for (Ticks x = 1; x <= t; ++x) {
          worst_interrupt =
              std::min(worst_interrupt, standard.value(p - 1, l - x));
        }
        const Ticks no_int =
            positive_sub(t, params.c) + standard.value(p, l - t);
        best = std::max(best, std::min(no_int, worst_interrupt));
      }
      ASSERT_EQ(best, standard.value(p, l)) << "p=" << p << " l=" << l;
    }
  }
}

TEST(Observations, AdversaryAlwaysSpendsInterruptsWhenProductive) {
  // Obs (b): against the optimal policy with U comfortably above the
  // zero-work threshold, the best response uses every available interrupt.
  const Ticks max_l = 400;
  auto table = std::make_shared<solver::ValueTable>(
      solver::solve_reference(2, max_l, Params{8}));
  solver::OptimalPolicy policy(table);
  const auto br = solver::best_response(policy, max_l, 2, Params{8});
  int used = 0;
  for (const auto& move : br.moves) used += move.killed.has_value();
  EXPECT_EQ(used, 2);
}

TEST(Observations, InterruptedPeriodsBeginInsideTheObsCWindow) {
  // Obs (c): with p interrupts left and residual > (p+1)c, the adversary
  // interrupts a period beginning before residual − p·c.
  const Ticks max_l = 400;
  const Params params{8};
  auto table = std::make_shared<solver::ValueTable>(
      solver::solve_reference(2, max_l, params));
  solver::OptimalPolicy policy(table);
  const auto br = solver::best_response(policy, max_l, 2, params);
  Ticks l = max_l;
  int q = 2;
  for (const auto& move : br.moves) {
    if (!move.killed) break;
    const auto episode = policy.episode(l, q, params);
    if (l > (static_cast<Ticks>(q) + 1) * params.c) {
      EXPECT_LT(episode.start(*move.killed),
                l - static_cast<Ticks>(q) * params.c)
          << "residual " << l << ", q=" << q;
    }
    l = positive_sub(l, episode.end(*move.killed));
    --q;
  }
}

// ---------------------------------------------------------------------------
// Closed form vs DP (Table 2's W column)
// ---------------------------------------------------------------------------

TEST(ClosedFormVsDp, P1ScheduleIsGridOptimal) {
  const Ticks max_l = 1 << 12;
  const auto table = solver::solve_fast(1, max_l, kParams);
  for (Ticks u = 4 * kC; u <= max_l; u += 97) {
    const auto opt = optimal_p1_schedule(u, kParams);
    const Ticks closed = guaranteed_work_p1(opt.schedule, u, kParams);
    const Ticks dp = table.value(1, u);
    EXPECT_LE(closed, dp) << "u=" << u;
    // The continuous optimum rounded to the grid loses at most ~2 ticks.
    EXPECT_GE(closed, dp - 3) << "u=" << u;
  }
}

// ---------------------------------------------------------------------------
// Restarted §3.1 rule as an adaptive policy is also near optimal for p small
// ---------------------------------------------------------------------------

TEST(RestartedNonAdaptive, SandwichedBetweenCommittedAndOptimal) {
  const Ticks u = 1 << 12;
  const auto table = solver::solve_fast(2, u, kParams);
  const NonAdaptiveGuidelinePolicy restart;
  for (int p = 1; p <= 2; ++p) {
    const Ticks restart_value = solver::evaluate_policy(restart, u, p, kParams);
    const auto committed_sched = nonadaptive_guideline(u, p, kParams);
    const Ticks committed =
        solver::nonadaptive_guaranteed_work(committed_sched, u, p, kParams);
    EXPECT_LE(restart_value, table.value(p, u)) << "p=" << p;
    // Adapting (re-planning after interrupts) should not do much worse than
    // the committed rule; allow modest slack for the restart's re-floored m.
    EXPECT_GE(restart_value, committed - 2 * kC) << "p=" << p;
  }
}

}  // namespace
}  // namespace nowsched
