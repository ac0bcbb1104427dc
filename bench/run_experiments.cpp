// Experiment driver: runs the registered experiments E1–E17 in order and
// regenerates EXPERIMENTS.md plus the per-experiment CSV series and
// BENCH_<slug>.json timing records in one command.
//
//   run_experiments                         # full tier into bench_results/
//   run_experiments --tier=quick            # CI smoke grids
//   run_experiments --only=E3,E5            # subset (doc still written)
//   run_experiments --list                  # show the registry and exit
//   run_experiments --outdir=bench/baselines --doc=EXPERIMENTS.md
//
// Exit status is non-zero when any experiment throws, crashes the run, or
// produces an empty section — that is the whole CI perf-smoke gate.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/harness.h"

using nowsched::bench::harness::Registry;
using nowsched::bench::harness::RunResult;
using nowsched::bench::harness::Tier;

namespace {

std::vector<std::string> split_csv_list(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream is(s);
  std::string item;
  while (std::getline(is, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  nowsched::bench::harness::register_all_experiments();
  const nowsched::util::Flags flags(argc, argv);
  const auto& registry = Registry::instance();

  if (flags.get_bool("list", false)) {
    for (const auto& e : registry.experiments()) {
      std::cout << e.id << "  " << e.slug << "  (bench_" << e.slug << ")  " << e.title
                << "\n";
    }
    return 0;
  }

  const Tier tier = nowsched::bench::harness::tier_from_flags(flags);
  const std::string outdir = flags.get("outdir", "bench_results");
  const std::string doc = flags.get("doc", outdir + "/EXPERIMENTS.md");

  // Artifact links in the document are written relative to the document's
  // own directory, so the doc is correct wherever the outdir lands.
  std::string artifact_prefix;
  {
    std::error_code ec;
    const auto doc_dir = std::filesystem::path(doc).parent_path();
    const auto rel = std::filesystem::proximate(outdir, doc_dir, ec);
    artifact_prefix = ec ? outdir : rel.generic_string();
    if (artifact_prefix.empty()) artifact_prefix = ".";
  }

  std::vector<const nowsched::bench::harness::Experiment*> selected;
  if (flags.has("only")) {
    for (const auto& token : split_csv_list(flags.get("only", ""))) {
      const auto* e = registry.find(token);
      if (e == nullptr) {
        std::cerr << "unknown experiment \"" << token << "\" (try --list)\n";
        return 2;
      }
      selected.push_back(e);
    }
  } else {
    for (const auto& e : registry.experiments()) selected.push_back(&e);
  }
  if (selected.empty()) {
    std::cerr << "no experiments selected\n";
    return 2;
  }

  std::vector<RunResult> results;
  bool all_ok = true;
  for (const auto* e : selected) {
    RunResult result = nowsched::bench::harness::run_experiment(
        *e, tier, flags, outdir, /*echo=*/true, artifact_prefix);
    // An "ok" run that emitted nothing is a broken experiment, not a pass.
    if (result.ok && result.markdown.empty()) {
      result.ok = false;
      result.error = "experiment produced no output";
    }
    all_ok = all_ok && result.ok;
    results.push_back(std::move(result));
    std::cout << "\n";
  }

  std::ofstream md(doc);
  if (!md) {
    std::cerr << "cannot open " << doc << " for writing\n";
    return 1;
  }
  md << "# EXPERIMENTS\n\n"
     << "Regenerable record of the paper's Tables 1–2 / Theorem 5.1 numbers and\n"
     << "the repo's own performance baselines. **Do not edit by hand** — this\n"
     << "whole file, the CSV series, and the `BENCH_*.json` timing records are\n"
     << "regenerated top to bottom by one command:\n\n"
     << "```sh\n"
     << "cmake --build build --target experiments\n"
     << "# equivalently:\n"
     << "# ./build/bench/run_experiments --tier=full --outdir=bench/baselines "
        "--doc=EXPERIMENTS.md\n"
     << "```\n\n"
     << "Tier: **" << nowsched::bench::harness::tier_name(tier) << "**. "
     << "`--tier=quick` shrinks every grid to the CI smoke sizes; `--tier=full`\n"
     << "is the committed record. Model sections (E1–E9) are deterministic\n"
     << "(fixed-seed `util::rng`, exact integer DP) and must reproduce\n"
     << "bit-for-bit on any machine; the performance sections (E10–E14) report\n"
     << "this machine's wall clocks, so treat their absolute numbers as one\n"
     << "sample and their shapes (scaling exponents, thread speedups) as the\n"
     << "claims. Wall-clock per experiment lives in `" << artifact_prefix
     << "/BENCH_<slug>.json`.\n\n";

  md << "| # | experiment | binary | CSV rows |\n"
     << "| :--- | :--- | :--- | ---: |\n";
  for (const auto& r : results) {
    const auto* e = registry.find(r.id);
    md << "| " << r.id << " | " << e->title << " | `bench_" << e->slug << "` | "
       << r.csv_rows << " |\n";
  }
  md << "\n";

  for (const auto& r : results) {
    md << r.markdown << "\n";
  }
  md.close();

  std::cout << "wrote " << doc << "\n";
  for (const auto& r : results) {
    std::cout << "  " << r.id << "  "
              << (r.ok ? "ok    " : "FAILED") << "  "
              << nowsched::util::Table::fmt(r.wall_ms, 4) << " ms  "
              << r.csv_rows << " rows"
              << (r.ok ? "" : "  (" + r.error + ")") << "\n";
  }
  return all_ok ? 0 : 1;
}
