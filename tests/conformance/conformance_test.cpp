// The differential conformance suite: generated scenarios through fast
// solver vs. reference solver vs. policy-eval vs. closed-form bounds plus
// the continuation and monotonicity theorems, with auto-minimized
// replay files on failure and a self-test proving the pipeline catches an
// injected solver bug. Quick tier runs >= 200 generated cases; set
// NOWSCHED_FUZZ_CASES (nightly uses >= 5000) to scale.
//
// One-command repro of any failure:
//     NOWSCHED_REPLAY=<replay file> ./build/tests/conformance_test
#include "conformance/conformance_harness.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace nowsched::conformance {
namespace {

/// Restores an environment variable on scope exit — the CI jobs drive this
/// binary through NOWSCHED_* variables, so tests that mutate them must not
/// leak the change into later tests (or --gtest_repeat re-runs).
class EnvGuard {
 public:
  explicit EnvGuard(const char* name) : name_(name) {
    const char* v = std::getenv(name);
    had_ = v != nullptr;
    if (had_) saved_ = v;
  }
  ~EnvGuard() {
    if (had_) {
      setenv(name_, saved_.c_str(), 1);
    } else {
      unsetenv(name_);
    }
  }
  EnvGuard(const EnvGuard&) = delete;
  EnvGuard& operator=(const EnvGuard&) = delete;

 private:
  const char* name_;
  std::string saved_;
  bool had_ = false;
};

/// The domain the suite fuzzes: every policy, every owner process, contracts
/// spanning two orders of magnitude with a class mix (half the scenarios
/// fold onto 6 canonical contracts, like a production batch would).
sim::ScenarioDomain conformance_domain() {
  sim::ScenarioDomain domain;
  domain.min_c = 2;
  domain.max_c = 64;
  domain.min_lifespan = 32;
  domain.max_lifespan = 4096;
  domain.min_interrupts = 0;
  domain.max_interrupts = 5;
  domain.contract_classes = 6;
  domain.class_fraction = 0.5;
  return domain;
}

/// Shared failure path: minimize against the SAME check that fired, write
/// the replay file, and fail the test with the one-command repro.
void report_failure(const sim::ScenarioSpec& spec, const CheckResult& result,
                    const Options& options) {
  const auto still_fails = [&](const sim::ScenarioSpec& candidate) {
    return run_all_checks(candidate, options).check == result.check;
  };
  const sim::ScenarioSpec minimized = minimize(spec, still_fails);
  const CheckResult final_result = run_all_checks(minimized, options);
  const std::string path =
      write_repro(minimized, final_result.check, final_result.detail);
  ADD_FAILURE() << "conformance check '" << result.check << "' failed: "
                << result.detail << "\nminimized repro written to " << path
                << "\nre-run with: NOWSCHED_REPLAY=" << path
                << " ./build/tests/conformance_test";
}

TEST(Conformance, GeneratedScenariosAllConform) {
  const int cases = fuzz_cases(200);
  const Options options;
  sim::ScenarioGenerator gen(conformance_domain(), 0xC0FF);
  int failures = 0;
  for (int i = 0; i < cases && failures < 3; ++i) {
    const sim::ScenarioSpec spec = gen.next();
    const CheckResult result = run_all_checks(spec, options);
    if (!result.ok) {
      report_failure(spec, result, options);
      ++failures;  // keep scanning a little, but don't drown the log
    }
  }
}

TEST(Conformance, CorrelatedFarmGroupsConformToo) {
  const int groups = std::max(4, fuzz_cases(200) / 16);
  const Options options;
  sim::ScenarioDomain domain = conformance_domain();
  domain.farm_size = 4;
  sim::ScenarioGenerator gen(domain, 0xFA53);
  int failures = 0;
  for (int g = 0; g < groups && failures < 3; ++g) {
    for (const sim::ScenarioSpec& spec : gen.farm_group(domain.farm_size)) {
      const CheckResult result = run_all_checks(spec, options);
      if (!result.ok) {
        report_failure(spec, result, options);
        ++failures;
      }
    }
  }
}

TEST(Conformance, InjectedSolverBugIsCaughtAndMinimized) {
  // The pipeline self-test (and the development-time mutation check, kept
  // executable): perturb the fast solver's answers wherever p >= 1 and
  // L >= 64 and demand that (a) the differential suite notices, (b) the
  // minimizer shrinks the catch to the smallest failing contract, and
  // (c) the emitted replay file round-trips to a spec that still fails.
  Options mutated;
  mutated.mutate_fast_solver = true;

  sim::ScenarioGenerator gen(conformance_domain(), 0xB06);
  sim::ScenarioSpec caught;
  CheckResult result;
  bool found = false;
  for (int i = 0; i < 64 && !found; ++i) {
    caught = gen.next();
    result = run_all_checks(caught, mutated);
    found = !result.ok;
  }
  ASSERT_TRUE(found) << "the injected solver bug slipped through 64 scenarios";
  EXPECT_EQ(result.check, "fast-vs-reference");

  const auto still_fails = [&](const sim::ScenarioSpec& candidate) {
    return run_all_checks(candidate, mutated).check == result.check;
  };
  const sim::ScenarioSpec minimized = minimize(caught, still_fails);
  ASSERT_TRUE(still_fails(minimized));
  // The mutation fires iff p >= 1 and L >= 64 — a correct minimizer lands
  // on (or next to) that boundary from whatever scenario it started at.
  EXPECT_EQ(minimized.max_interrupts, 1);
  EXPECT_GE(minimized.lifespan, 64);
  EXPECT_LE(minimized.lifespan, 96);
  EXPECT_EQ(minimized.params.c, 1);
  EXPECT_EQ(minimized.owner, sim::OwnerKind::kPoisson);

  // The replay file is a complete, parseable repro of the minimized catch.
  const EnvGuard guard("NOWSCHED_REPLAY_DIR");
  ASSERT_EQ(setenv("NOWSCHED_REPLAY_DIR", "conformance-repros", 1), 0);
  const CheckResult minimized_result = run_all_checks(minimized, mutated);
  const std::string path =
      write_repro(minimized, minimized_result.check, minimized_result.detail);
  std::ifstream in(path);
  ASSERT_TRUE(in) << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const sim::ScenarioSpec replayed = sim::scenario_from_replay(buffer.str());
  EXPECT_EQ(replayed.lifespan, minimized.lifespan);
  EXPECT_EQ(replayed.max_interrupts, minimized.max_interrupts);
  EXPECT_EQ(replayed.params.c, minimized.params.c);
  EXPECT_EQ(replayed.seed, minimized.seed);
  EXPECT_TRUE(still_fails(replayed));
}

TEST(Conformance, ReplayFileFromEnvironment) {
  // The one-command repro entry: NOWSCHED_REPLAY=<file> conformance_test
  // re-runs exactly that scenario through the whole battery.
  const char* path = std::getenv("NOWSCHED_REPLAY");
  if (path == nullptr || *path == '\0') {
    GTEST_SKIP() << "NOWSCHED_REPLAY not set";
  }
  std::ifstream in(path);
  ASSERT_TRUE(in) << "cannot open replay file " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const sim::ScenarioSpec spec = sim::scenario_from_replay(buffer.str());
  const CheckResult result = run_all_checks(spec, Options{});
  EXPECT_TRUE(result.ok) << "replayed scenario still fails '" << result.check
                         << "': " << result.detail;
}

TEST(Conformance, CommittedExampleReplayParsesAndPasses) {
  // The committed replay under tests/conformance/replays/ documents the
  // format (it was emitted by the mutation pipeline above). Without the
  // mutation the scenario must pass — the real solver is not buggy.
  const std::string path = std::string(NOWSCHED_REPLAY_EXAMPLES_DIR) +
                           "/example-minimized-divergence.scenario";
  std::ifstream in(path);
  ASSERT_TRUE(in) << "missing committed example replay: " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const sim::ScenarioSpec spec = sim::scenario_from_replay(buffer.str());
  EXPECT_EQ(spec.max_interrupts, 1);
  EXPECT_GE(spec.lifespan, 64);
  const CheckResult result = run_all_checks(spec, Options{});
  EXPECT_TRUE(result.ok) << result.check << ": " << result.detail;

  // Under the recorded mutation the same scenario fails again — the file
  // really is a repro, not just a parseable record.
  Options mutated;
  mutated.mutate_fast_solver = true;
  EXPECT_FALSE(run_all_checks(spec, mutated).ok);
}

TEST(Conformance, FuzzCasesEnvControlsTier) {
  const EnvGuard guard("NOWSCHED_FUZZ_CASES");
  ASSERT_EQ(setenv("NOWSCHED_FUZZ_CASES", "5000", 1), 0);
  EXPECT_EQ(fuzz_cases(200), 5000);
  ASSERT_EQ(setenv("NOWSCHED_FUZZ_CASES", "12abc", 1), 0);
  EXPECT_THROW(fuzz_cases(200), std::runtime_error);
  ASSERT_EQ(setenv("NOWSCHED_FUZZ_CASES", "0", 1), 0);
  EXPECT_THROW(fuzz_cases(200), std::runtime_error);
  ASSERT_EQ(unsetenv("NOWSCHED_FUZZ_CASES"), 0);
  EXPECT_EQ(fuzz_cases(200), 200);
}

TEST(Conformance, MinimizerIsDeterministicAndMonotone) {
  // Against a synthetic predicate ("fails whenever U >= 100 and p >= 2")
  // the minimizer must land exactly on the boundary, twice identically.
  const auto fails = [](const sim::ScenarioSpec& s) {
    return s.lifespan >= 100 && s.max_interrupts >= 2;
  };
  sim::ScenarioSpec spec;
  spec.owner = sim::OwnerKind::kBursty;
  spec.policy = sim::PolicyKind::kDpOptimal;
  spec.lifespan = 4096;
  spec.max_interrupts = 5;
  spec.params = Params{48};
  spec.seed = 0xDEAD;
  const sim::ScenarioSpec a = minimize(spec, fails);
  const sim::ScenarioSpec b = minimize(spec, fails);
  EXPECT_EQ(a.lifespan, 100);
  EXPECT_EQ(a.max_interrupts, 2);
  EXPECT_EQ(a.params.c, 1);
  EXPECT_EQ(a.owner, sim::OwnerKind::kPoisson);
  EXPECT_EQ(a.seed, 0u);
  EXPECT_EQ(b.lifespan, a.lifespan);
  EXPECT_EQ(b.seed, a.seed);
}

}  // namespace
}  // namespace nowsched::conformance
