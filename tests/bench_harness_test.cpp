// The experiment-runner harness: registry contents, tier behaviour, and the
// three synchronized emitters (CSV / markdown / JSON) round-tripping a
// sample record.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "harness/harness.h"

namespace nowsched::bench::harness {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::size_t count_lines(const std::string& text) {
  std::size_t lines = 0;
  for (char ch : text) lines += (ch == '\n');
  return lines;
}

util::Flags no_flags() {
  static const char* argv[] = {"bench_harness_test"};
  return util::Flags(1, argv);
}

std::string fresh_outdir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "nowsched_harness_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(Registry, KnowsAllSeventeenExperimentsInOrder) {
  register_all_experiments();
  const auto& registry = Registry::instance();
  ASSERT_EQ(registry.size(), 17u);
  for (std::size_t i = 0; i < registry.size(); ++i) {
    const Experiment& e = registry.experiments()[i];
    EXPECT_EQ(e.id, "E" + std::to_string(i + 1));
    EXPECT_FALSE(e.title.empty());
    EXPECT_FALSE(e.summary.empty());
    EXPECT_TRUE(e.run != nullptr) << e.id;
  }
  // Lookup works by id and by slug, and misses return nullptr.
  EXPECT_NE(registry.find("E5"), nullptr);
  EXPECT_EQ(registry.find("E5"), registry.find("adaptive_vs_optimal"));
  EXPECT_EQ(registry.find("E14"), registry.find("scenario_sweep"));
  EXPECT_EQ(registry.find("E15"), registry.find("sched_service"));
  EXPECT_EQ(registry.find("E16"), registry.find("policy_racing"));
  EXPECT_EQ(registry.find("E17"), registry.find("rpc_roundtrip"));
  EXPECT_EQ(registry.find("E18"), nullptr);
  EXPECT_EQ(registry.find(""), nullptr);
}

TEST(Registry, RegistrationIsIdempotentAndRejectsDuplicates) {
  register_all_experiments();
  register_all_experiments();  // second call must be a no-op
  auto& registry = Registry::instance();
  EXPECT_EQ(registry.size(), 17u);
  EXPECT_THROW(registry.add(registry.experiments()[0]), std::logic_error);
  EXPECT_EQ(registry.size(), 17u);
}

TEST(Tier, ParsesQuickAndFullSpellings) {
  {
    const char* argv[] = {"prog", "--tier=quick"};
    EXPECT_EQ(tier_from_flags(util::Flags(2, argv)), Tier::kQuick);
  }
  {
    const char* argv[] = {"prog", "--quick"};
    EXPECT_EQ(tier_from_flags(util::Flags(2, argv)), Tier::kQuick);
  }
  {
    const char* argv[] = {"prog"};
    EXPECT_EQ(tier_from_flags(util::Flags(1, argv)), Tier::kFull);
  }
  {
    const char* argv[] = {"prog", "--tier=bogus"};
    const util::Flags flags(2, argv);
    EXPECT_EXIT(tier_from_flags(flags), ::testing::ExitedWithCode(2),
                "--tier expects quick or full");
  }
}

TEST(Runner, EmittersRoundTripASampleRecord) {
  register_all_experiments();
  const Experiment* e = Registry::instance().find("E2");
  ASSERT_NE(e, nullptr);
  const util::Flags flags = no_flags();
  const std::string outdir = fresh_outdir("roundtrip");

  const RunResult result =
      run_experiment(*e, Tier::kQuick, flags, outdir, /*echo=*/false);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_GT(result.wall_ms, 0.0);
  EXPECT_GT(result.csv_rows, 0u);

  // CSV: one header line plus exactly csv_rows data rows.
  ASSERT_EQ(result.csv_path, outdir + "/table2.csv");
  const std::string csv = read_file(result.csv_path);
  EXPECT_EQ(count_lines(csv), result.csv_rows + 1);
  EXPECT_EQ(csv.substr(0, csv.find('\n')),
            "U_over_c,m_opt_formula,m_opt_real,alpha,W_opt_exact,"
            "W_opt_paper_approx,m_guideline_paper,m_guideline_real,"
            "W_guideline_exact,W_dp");

  // JSON record: names the experiment, the tier, and the CSV row count.
  ASSERT_EQ(result.json_path, outdir + "/BENCH_table2.json");
  const std::string json = read_file(result.json_path);
  EXPECT_NE(json.find("\"id\": \"E2\""), std::string::npos);
  EXPECT_NE(json.find("\"slug\": \"table2\""), std::string::npos);
  EXPECT_NE(json.find("\"tier\": \"quick\""), std::string::npos);
  EXPECT_NE(json.find("\"ok\": true"), std::string::npos);
  EXPECT_NE(json.find("\"csv\": \"table2.csv\""), std::string::npos);
  EXPECT_NE(json.find("\"csv_rows\": " + std::to_string(result.csv_rows)),
            std::string::npos);
  // Host-class stamp: "<threads>t-<isa>", the key compare_baselines.py uses
  // to refuse cross-machine ratio comparisons.
  EXPECT_NE(json.find("\"host_class\": \"" + host_class() + "\""),
            std::string::npos);
  EXPECT_NE(json.find("\"host_threads\": "), std::string::npos);
  EXPECT_NE(host_class().find("t-"), std::string::npos);

  // Markdown section: heading, artifact pointers, and a pipe-table row.
  EXPECT_EQ(result.markdown.rfind("## E2 — ", 0), 0u) << result.markdown;
  EXPECT_NE(result.markdown.find("`bench_table2`"), std::string::npos);
  EXPECT_NE(result.markdown.find("BENCH_table2.json"), std::string::npos);
  EXPECT_NE(result.markdown.find("| U/c |"), std::string::npos);
}

TEST(Runner, FailingExperimentIsCapturedNotPropagated) {
  const Experiment boom{"EX", "boom", "always throws", "kaboom",
                        [](Context&) { throw std::runtime_error("kaboom"); }};
  const util::Flags flags = no_flags();
  const std::string outdir = fresh_outdir("boom");
  const RunResult result =
      run_experiment(boom, Tier::kQuick, flags, outdir, /*echo=*/false);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.error, "kaboom");
  // The JSON record is still written so CI can tell "crashed" from "absent".
  const std::string json = read_file(result.json_path);
  EXPECT_NE(json.find("\"ok\": false"), std::string::npos);
  EXPECT_NE(json.find("\"error\": \"kaboom\""), std::string::npos);
  EXPECT_NE(result.markdown.find("**RUN FAILED:** kaboom"), std::string::npos);
}

TEST(Runner, QuickTierRunsAllExperimentsUnderTimeBudget) {
  register_all_experiments();
  const util::Flags flags = no_flags();
  const std::string outdir = fresh_outdir("quick_all");

  const auto start = std::chrono::steady_clock::now();
  for (const Experiment& e : Registry::instance().experiments()) {
    const RunResult result =
        run_experiment(e, Tier::kQuick, flags, outdir, /*echo=*/false);
    EXPECT_TRUE(result.ok) << e.id << ": " << result.error;
    EXPECT_FALSE(result.markdown.empty()) << e.id;
    EXPECT_TRUE(std::filesystem::exists(result.json_path)) << e.id;
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  // The quick tier is the CI smoke: the whole registry must stay comfortably
  // inside the ctest timeout even in a Debug build (Release runs in ~1 s).
  EXPECT_LT(seconds, 120.0);
}

TEST(Context, MetricsAndTablesFeedTheMarkdownSection) {
  const util::Flags flags = no_flags();
  Context ctx("sample", Tier::kFull, flags, fresh_outdir("ctx"), /*echo=*/false);
  EXPECT_FALSE(ctx.quick());

  util::Table t({"a", "b"});
  t.add_row({"1", "2"});
  ctx.table(t, "caption");
  ctx.text("a note");
  ctx.metric("speed", 12.5);

  EXPECT_NE(ctx.markdown().find("**caption**"), std::string::npos);
  EXPECT_NE(ctx.markdown().find("| 1 | 2 |"), std::string::npos);
  EXPECT_NE(ctx.markdown().find("a note"), std::string::npos);
  ASSERT_EQ(ctx.metrics().count("speed"), 1u);
  EXPECT_DOUBLE_EQ(ctx.metrics().at("speed"), 12.5);
  // No CSV was opened: writing a row without a header is a logic error and
  // the context reports no CSV path.
  EXPECT_EQ(ctx.csv_path(), "");
  EXPECT_THROW(ctx.write_csv_row(std::vector<double>{1.0}), std::logic_error);
}

}  // namespace
}  // namespace nowsched::bench::harness
