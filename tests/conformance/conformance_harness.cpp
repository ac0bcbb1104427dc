#include "conformance/conformance_harness.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>

#include "adversary/trace.h"
#include "core/bounds.h"
#include "core/equalized.h"
#include "core/guidelines.h"
#include "sim/batch_runner.h"
#include "sim/session.h"
#include "solver/extract.h"
#include "solver/fast_solver.h"
#include "solver/policy_eval.h"
#include "solver/reference_solver.h"
#include "solver/solve_cache.h"
#include "util/hash.h"
#include "util/parse.h"

namespace nowsched::conformance {

namespace {

/// The contract the solver-differential checks actually run: the reference
/// oracle is O(P·N²), so big generated contracts are clamped. Every check
/// derives its grid from this ONE place so they all talk about the same
/// clamped scenario.
struct ClampedContract {
  int p;
  Ticks l;
  Params params;
};

ClampedContract clamp_contract(const sim::ScenarioSpec& spec, const Options& options) {
  return {std::min(spec.max_interrupts, options.max_solver_p),
          std::min(spec.lifespan, options.max_solver_lifespan), spec.params};
}

/// One-entry memo of the clamped fast table: the four solver checks of a
/// scenario all read the identical (p, L, c) grid, so one solve serves the
/// whole battery (and the minimizer's repeated probes of one candidate).
/// Thread-local for safety if a future harness fans checks out.
const solver::ValueTable& clamped_fast_table(const ClampedContract& g) {
  thread_local std::optional<solver::ValueTable> memo;
  thread_local int memo_p = -1;
  thread_local Ticks memo_l = -1;
  thread_local Ticks memo_c = -1;
  if (!memo || memo_p != g.p || memo_l != g.l || memo_c != g.params.c) {
    memo.emplace(solver::solve_fast(g.p, g.l, g.params));
    memo_p = g.p;
    memo_l = g.l;
    memo_c = g.params.c;
  }
  return *memo;
}

/// The injected bug: the fast solver "miscounts" every state with at least
/// one interrupt and a lifespan past one c-block of 64 — the shape of a
/// real boundary off-by-one. Applied to the fast READ, not the table, so
/// the mutation cannot leak into other checks.
Ticks fast_value(const solver::ValueTable& fast, int q, Ticks l, const Options& options) {
  const Ticks v = fast.value(q, l);
  if (options.mutate_fast_solver && q >= 1 && l >= 64) return v + 1;
  return v;
}

CheckResult fail(const char* check, std::string detail) {
  return CheckResult{false, check, std::move(detail)};
}

CheckResult check_fast_vs_reference(const sim::ScenarioSpec& spec,
                                    const Options& options) {
  const ClampedContract g = clamp_contract(spec, options);
  const solver::ValueTable& fast = clamped_fast_table(g);
  const auto ref = solver::solve_reference(g.p, g.l, g.params);
  for (int q = 0; q <= g.p; ++q) {
    for (Ticks l = 0; l <= g.l; ++l) {
      const Ticks fv = fast_value(fast, q, l, options);
      const Ticks rv = ref.value(q, l);
      if (fv != rv) {
        std::ostringstream os;
        os << "W(" << q << ")[" << l << "] fast=" << fv << " reference=" << rv
           << " (c=" << g.params.c << ")";
        return fail("fast-vs-reference", os.str());
      }
    }
  }
  return {};
}

CheckResult check_kernel_differential(const sim::ScenarioSpec& spec,
                                      const Options& options) {
  const ClampedContract g = clamp_contract(spec, options);
  // Build the table level-by-level through run_fill_kernel with the
  // production inverse scan and with the legacy reference, and demand
  // bit-identity. No global kernel forcing: explicit dispatch keeps this
  // check reentrant.
  const std::size_t stride = static_cast<std::size_t>(g.l) + 1;
  auto build = [&](solver::SolverKernel kernel) {
    std::vector<Ticks> slab(static_cast<std::size_t>(g.p + 1) * stride, 0);
    for (Ticks l = 0; l <= g.l; ++l) {
      slab[static_cast<std::size_t>(l)] = positive_sub(l, g.params.c);
    }
    for (int q = 1; q <= g.p; ++q) {
      const std::span<Ticks> whole(slab);
      run_fill_kernel(kernel, whole.subspan(static_cast<std::size_t>(q) * stride, stride),
                      whole.subspan(static_cast<std::size_t>(q - 1) * stride, stride),
                      1, g.l + 1, g.params.c);
    }
    return slab;
  };
  const std::vector<Ticks> legacy = build(solver::SolverKernel::kLegacy);
  const std::vector<Ticks> inverse = build(solver::SolverKernel::kInverseScan);
  for (std::size_t i = 0; i < legacy.size(); ++i) {
    if (inverse[i] != legacy[i]) {
      std::ostringstream os;
      os << "W(" << i / stride << ")[" << i % stride << "] inverse-scan="
         << inverse[i] << " legacy=" << legacy[i] << " (c=" << g.params.c << ")";
      return fail("kernel-differential", os.str());
    }
  }
  return {};
}

CheckResult check_policy_eval(const sim::ScenarioSpec& spec, const Options& options) {
  const ClampedContract g = clamp_contract(spec, options);
  // OptimalPolicy needs shared ownership; copying the memoized table is
  // O(P·N), cheaper than the O(P·N·log N) re-solve it replaces.
  auto table = std::make_shared<const solver::ValueTable>(clamped_fast_table(g));
  const Ticks w = fast_value(*table, g.p, g.l, options);

  // The independent game-tree evaluator must score the extracted optimal
  // policy at exactly the table value...
  const solver::OptimalPolicy optimal(table);
  const Ticks scored = solver::evaluate_policy(optimal, g.l, g.p, g.params);
  if (scored != w) {
    std::ostringstream os;
    os << "policy-eval scores dp-optimal at " << scored << " but the table says "
       << w << " (p=" << g.p << " U=" << g.l << " c=" << g.params.c << ")";
    return fail("policy-eval", os.str());
  }

  // ...and no fixed guideline above the optimum.
  const EqualizedGuidelinePolicy equalized;
  const AdaptiveGuidelinePolicy adaptive;
  const NonAdaptiveGuidelinePolicy restart;
  for (const SchedulingPolicy* policy :
       {static_cast<const SchedulingPolicy*>(&equalized),
        static_cast<const SchedulingPolicy*>(&adaptive),
        static_cast<const SchedulingPolicy*>(&restart)}) {
    const Ticks v = solver::evaluate_policy(*policy, g.l, g.p, g.params);
    if (v > w) {
      std::ostringstream os;
      os << policy->name() << " evaluates to " << v << " > optimal " << w
         << " (p=" << g.p << " U=" << g.l << " c=" << g.params.c << ")";
      return fail("policy-eval", os.str());
    }
  }
  return {};
}

CheckResult check_bounds_sandwich(const sim::ScenarioSpec& spec,
                                  const Options& options) {
  const ClampedContract g = clamp_contract(spec, options);
  const solver::ValueTable& table = clamped_fast_table(g);
  const Ticks w = fast_value(table, g.p, g.l, options);

  // Upper: one setup is always paid (V_p <= V_0 = U ⊖ c).
  const Ticks upper = positive_sub(g.l, g.params.c);
  if (w > upper) {
    std::ostringstream os;
    os << "W(" << g.p << ")[" << g.l << "]=" << w << " exceeds U-c=" << upper;
    return fail("bounds-sandwich", os.str());
  }

  // Lower: the equalized guideline is a feasible policy.
  const EqualizedGuidelinePolicy equalized;
  const Ticks lower = solver::evaluate_policy(equalized, g.l, g.p, g.params);
  if (w < lower) {
    std::ostringstream os;
    os << "W(" << g.p << ")[" << g.l << "]=" << w << " below the equalized "
       << "guideline's evaluated guarantee " << lower;
    return fail("bounds-sandwich", os.str());
  }

  // Zero-work characterization, both directions. Prop 4.1(c) puts the
  // continuous-time boundary at U <= (p+1)c; on the integer grid a banked
  // tick needs a completed period of >= c+1, and the adversary forces p+1
  // such periods, so the exact discrete boundary sits at (p+1)(c+1) — one
  // of the discretization effects this suite itself first caught (the naive
  // (p+1)c iff-check fails on e.g. U=37, p=2, c=12).
  const Ticks paper_threshold = bounds::zero_work_threshold(g.p, g.params.c);
  const Ticks grid_threshold =
      static_cast<Ticks>(g.p + 1) * (g.params.c + 1);
  if (g.l <= paper_threshold && w != 0) {
    std::ostringstream os;
    os << "Prop 4.1(c) violated: U=" << g.l << " <= " << paper_threshold
       << " but W=" << w;
    return fail("bounds-sandwich", os.str());
  }
  if ((g.l >= grid_threshold) != (w > 0)) {
    std::ostringstream os;
    os << "grid zero-threshold mismatch: U=" << g.l << " threshold="
       << grid_threshold << " W=" << w;
    return fail("bounds-sandwich", os.str());
  }
  return {};
}

CheckResult check_monotonicity(const sim::ScenarioSpec& spec, const Options& options) {
  const ClampedContract g = clamp_contract(spec, options);
  const solver::ValueTable& table = clamped_fast_table(g);
  for (int q = 0; q <= g.p; ++q) {
    for (Ticks l = 0; l <= g.l; ++l) {
      const Ticks v = fast_value(table, q, l, options);
      if (l > 0) {
        const Ticks prev = fast_value(table, q, l - 1, options);
        if (v < prev) {
          std::ostringstream os;
          os << "W(" << q << ") not monotone at L=" << l << ": " << v << " < " << prev;
          return fail("monotonicity", os.str());
        }
        if (v > prev + 1) {
          std::ostringstream os;
          os << "W(" << q << ") not 1-Lipschitz at L=" << l << ": " << v << " vs "
             << prev;
          return fail("monotonicity", os.str());
        }
      }
      if (q > 0 && v > fast_value(table, q - 1, l, options)) {
        std::ostringstream os;
        os << "more interrupts helped: W(" << q << ")[" << l << "]=" << v
           << " > W(" << q - 1 << ")[" << l << "]";
        return fail("monotonicity", os.str());
      }
    }
  }
  return {};
}

CheckResult check_checkpoint_restart(const sim::ScenarioSpec& spec,
                                     const Options& options) {
  (void)options;  // the mutation targets the solver reads, not the sim
  const auto policy = sim::make_policy(spec);
  const auto owner = sim::make_owner(spec);
  const Opportunity opp{spec.lifespan, spec.max_interrupts};

  adversary::RecordingAdversary recorder(*owner);
  const sim::SessionMetrics full =
      sim::run_session(*policy, recorder, opp, spec.params);
  if (full.interrupts == 0) return {};  // no boundary to pause at

  // Deterministic pause point derived from the spec.
  const int k = 1 + static_cast<int>(spec.seed %
                                     static_cast<std::uint64_t>(full.interrupts));
  adversary::TraceAdversary replay(recorder.trace());
  const sim::SessionCheckpoint ckpt =
      sim::run_session_until_interrupt(*policy, replay, opp, spec.params, k);
  const sim::SessionCheckpoint restored =
      sim::parse_session_checkpoint(sim::serialize(ckpt));
  adversary::TraceAdversary tail(
      recorder.trace().shifted(restored.metrics.lifespan_used));
  const sim::SessionMetrics merged =
      sim::resume_session(*policy, tail, restored, spec.params);

  const auto diff = [&](const char* field, Ticks a, Ticks b) {
    std::ostringstream os;
    os << "resumed session diverged at " << field << ": " << a << " != " << b
       << " (paused after interrupt " << k << " of " << full.interrupts << ")";
    return fail("checkpoint-restart", os.str());
  };
  if (merged.banked_work != full.banked_work) {
    return diff("banked_work", merged.banked_work, full.banked_work);
  }
  if (merged.lifespan_used != full.lifespan_used) {
    return diff("lifespan_used", merged.lifespan_used, full.lifespan_used);
  }
  if (merged.comm_overhead != full.comm_overhead) {
    return diff("comm_overhead", merged.comm_overhead, full.comm_overhead);
  }
  if (merged.lost_work != full.lost_work) {
    return diff("lost_work", merged.lost_work, full.lost_work);
  }
  if (merged.interrupts != full.interrupts ||
      merged.episodes != full.episodes ||
      merged.periods_completed != full.periods_completed ||
      merged.periods_killed != full.periods_killed) {
    std::ostringstream os;
    os << "resumed session diverged in event counts (paused after interrupt " << k
       << ")";
    return fail("checkpoint-restart", os.str());
  }
  return {};
}

}  // namespace

const std::vector<NamedCheck>& all_checks() {
  static const std::vector<NamedCheck> kChecks = {
      {"fast-vs-reference", check_fast_vs_reference},
      {"kernel-differential", check_kernel_differential},
      {"policy-eval", check_policy_eval},
      {"bounds-sandwich", check_bounds_sandwich},
      {"monotonicity", check_monotonicity},
      {"checkpoint-restart", check_checkpoint_restart},
  };
  return kChecks;
}

CheckResult run_all_checks(const sim::ScenarioSpec& spec, const Options& options) {
  for (const NamedCheck& check : all_checks()) {
    try {
      const CheckResult result = check.run(spec, options);
      if (!result.ok) return result;
    } catch (const std::exception& e) {
      // A spec the components reject is a different failure class than a
      // divergence; the minimizer relies on the distinction to avoid
      // shrinking into the invalid region.
      return fail("spec-invalid", std::string(check.name) + ": " + e.what());
    }
  }
  return {};
}

int fuzz_cases(int fallback) {
  const char* env = std::getenv("NOWSCHED_FUZZ_CASES");
  if (env == nullptr || *env == '\0') return fallback;
  const auto v = util::parse_int64(env);
  if (!v || *v < 1 || *v > std::numeric_limits<int>::max()) {
    throw std::runtime_error(
        "NOWSCHED_FUZZ_CASES must be a positive int-range integer, got '" +
        std::string(env) + "'");
  }
  return static_cast<int>(*v);
}

namespace {

/// Smaller is simpler. Lifespan dominates (it is what makes instances slow
/// to reason about), then interrupts, then c, then owner-model complexity,
/// then nonzero seeds.
double size_score(const sim::ScenarioSpec& spec) {
  return static_cast<double>(spec.lifespan) +
         64.0 * static_cast<double>(spec.max_interrupts) +
         static_cast<double>(spec.params.c) +
         16.0 * static_cast<double>(static_cast<int>(spec.owner)) +
         8.0 * static_cast<double>(static_cast<int>(spec.policy)) +
         (spec.seed != 0 ? 1.0 : 0.0) + (spec.group_seed != 0 ? 1.0 : 0.0);
}

std::vector<sim::ScenarioSpec> shrink_candidates(const sim::ScenarioSpec& spec) {
  std::vector<sim::ScenarioSpec> out;
  const auto push = [&](auto&& edit) {
    sim::ScenarioSpec candidate = spec;
    edit(candidate);
    out.push_back(candidate);
  };
  if (spec.lifespan > 1) {
    push([&](sim::ScenarioSpec& s) { s.lifespan = std::max<Ticks>(1, s.lifespan / 2); });
    push([&](sim::ScenarioSpec& s) {
      s.lifespan = std::max<Ticks>(1, (3 * s.lifespan) / 4);
    });
    push([&](sim::ScenarioSpec& s) { s.lifespan -= 1; });
  }
  if (spec.max_interrupts > 0) {
    push([&](sim::ScenarioSpec& s) { s.max_interrupts /= 2; });
    push([&](sim::ScenarioSpec& s) { s.max_interrupts -= 1; });
  }
  if (spec.params.c > 1) {
    push([&](sim::ScenarioSpec& s) { s.params.c = std::max<Ticks>(1, s.params.c / 2); });
    push([&](sim::ScenarioSpec& s) { s.params.c -= 1; });
  }
  if (spec.owner != sim::OwnerKind::kPoisson) {
    push([&](sim::ScenarioSpec& s) {
      s.owner = sim::OwnerKind::kPoisson;
      s.owner_a = std::max<double>(1.0, static_cast<double>(s.lifespan) / 4.0);
      s.owner_b = s.owner_c = s.owner_d = 0.0;
      s.group_seed = 0;
    });
  }
  if (spec.policy != sim::PolicyKind::kEqualized) {
    push([&](sim::ScenarioSpec& s) { s.policy = sim::PolicyKind::kEqualized; });
  }
  if (spec.seed != 0) {
    push([&](sim::ScenarioSpec& s) { s.seed = 0; });
  }
  if (spec.group_seed != 0) {
    push([&](sim::ScenarioSpec& s) { s.group_seed = 0; });
  }
  return out;
}

}  // namespace

sim::ScenarioSpec minimize(
    const sim::ScenarioSpec& spec,
    const std::function<bool(const sim::ScenarioSpec&)>& still_fails, int budget) {
  sim::ScenarioSpec current = spec;
  bool improved = true;
  while (improved && budget > 0) {
    improved = false;
    for (const sim::ScenarioSpec& candidate : shrink_candidates(current)) {
      if (budget-- <= 0) break;
      if (size_score(candidate) >= size_score(current)) continue;
      if (still_fails(candidate)) {
        current = candidate;
        improved = true;
        break;  // restart the pass from the new, smaller scenario
      }
    }
  }
  return current;
}

std::string replay_dir() {
  const char* env = std::getenv("NOWSCHED_REPLAY_DIR");
  return (env != nullptr && *env != '\0') ? env : ".";
}

std::string write_repro(const sim::ScenarioSpec& spec, const std::string& check,
                        const std::string& detail) {
  const std::string body = sim::to_replay_string(spec);
  const std::string dir = replay_dir();
  std::filesystem::create_directories(dir);

  std::uint64_t h = util::hash_combine(0, spec.seed);
  for (const char ch : body) h = util::hash_combine(h, static_cast<std::uint64_t>(ch));
  std::ostringstream name;
  name << dir << "/repro-" << check << "-" << std::hex << (h & 0xFFFFFF)
       << ".scenario";

  // Header line first (the parser demands it), then the annotation comments.
  const auto header_end = body.find('\n') + 1;
  std::ofstream out(name.str());
  out << body.substr(0, header_end);
  out << "# check: " << check << "\n";
  out << "# detail: " << detail << "\n";
  out << "# repro: NOWSCHED_REPLAY=" << name.str() << " ./conformance_test\n";
  out << body.substr(header_end);
  if (!out) {
    throw std::runtime_error("conformance: cannot write replay file " + name.str());
  }
  return name.str();
}

}  // namespace nowsched::conformance
