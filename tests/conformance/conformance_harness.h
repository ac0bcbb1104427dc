// Differential conformance harness: every generated scenario is pushed
// through INDEPENDENT implementations and paper theorems, and any mutual
// disagreement is a bug by construction (DESIGN.md §8).
//
// The checks, per scenario:
//   * fast-vs-reference   — solve_fast and the O(P·N²) oracle agree
//                           bit-for-bit on the (clamped) contract grid;
//   * kernel-differential — the production inverse-scan kernel and the
//                           legacy binary search build bit-identical
//                           tables on that grid;
//   * policy-eval         — the independent fixed-policy evaluator scores
//                           OptimalPolicy exactly at the table value, and
//                           no guideline policy above it;
//   * bounds-sandwich     — W(p)[U] sits between the equalized guideline's
//                           evaluated guarantee and U ⊖ c, and vanishes
//                           exactly on the Prop 4.1(c) threshold;
//   * monotonicity        — W non-decreasing and 1-Lipschitz in L,
//                           non-increasing in p (paper Prop 4.1);
//   * continuation        — after one of the session's interrupts, the rest
//                           equals a fresh session on (residual lifespan,
//                           interrupts left) against the re-based trace.
//
// A failing scenario is auto-minimized (greedy coordinate shrink re-running
// the failing check) and serialized to a replay file, so any red run hands
// you a one-command repro:
//
//     NOWSCHED_REPLAY=<file> ./build/tests/conformance_test
//
// Tier control: NOWSCHED_FUZZ_CASES sets the generated-case count (default
// 200 — the quick tier; nightly runs >= 5000).
//
// The harness can also INJECT a solver bug (Options::mutate_fast_solver):
// the fast table is perturbed wherever p >= 1 and L >= 64, imitating a real
// off-by-one. The pipeline test proves the suite catches it, minimizes it
// to the smallest failing contract, and emits a valid replay — so "the
// fuzzer would catch a solver regression" is itself a tested property, not
// a hope.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "fuzz_cases.h"
#include "sim/scenario_gen.h"

namespace nowsched::conformance {

struct Options {
  /// Clamp applied to the solver-differential checks: the reference oracle
  /// is O(P·N²), so spec contracts are capped at this grid for comparison.
  Ticks max_solver_lifespan = 320;
  int max_solver_p = 3;

  /// Deliberate fast-solver mutation (see header comment). Only the
  /// pipeline self-test sets this.
  bool mutate_fast_solver = false;
};

struct CheckResult {
  bool ok = true;
  std::string check;   ///< name of the failed invariant (empty when ok)
  std::string detail;  ///< first divergence, human-readable
};

struct NamedCheck {
  const char* name;
  std::function<CheckResult(const sim::ScenarioSpec&, const Options&)> run;
};

/// The check battery, in execution order.
const std::vector<NamedCheck>& all_checks();

/// Runs the battery; returns the FIRST failure (or ok). Validation errors
/// from a malformed spec surface as a failed "spec-valid" pseudo-check
/// rather than an exception, so the minimizer can probe freely.
CheckResult run_all_checks(const sim::ScenarioSpec& spec, const Options& options);

using nowsched::testing::fuzz_cases;  // the shared tier knob (fuzz_cases.h)

/// Greedy scenario shrinking: repeatedly tries smaller candidates (halved /
/// decremented lifespan, fewer interrupts, smaller c, simpler owner, zeroed
/// seeds) and accepts any that still satisfies `still_fails`, until a pass
/// over all moves yields nothing or `budget` probes are spent. Deterministic.
sim::ScenarioSpec minimize(
    const sim::ScenarioSpec& spec,
    const std::function<bool(const sim::ScenarioSpec&)>& still_fails,
    int budget = 400);

/// Directory replay files land in: $NOWSCHED_REPLAY_DIR or "." (created on
/// demand).
std::string replay_dir();

/// Writes `spec` as a replay file named after the failed check (annotated
/// with # comment lines the parser ignores); returns the path.
std::string write_repro(const sim::ScenarioSpec& spec, const std::string& check,
                        const std::string& detail);

}  // namespace nowsched::conformance
