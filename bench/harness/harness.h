// Experiment-runner harness shared by all bench binaries.
//
// Each experiment E1–E14 declares its grids ONCE inside a run function that
// receives a Context. The Context tees every table and note to three
// synchronized artifacts:
//   * the console (same ASCII layout the standalone binaries always printed),
//   * a markdown section for EXPERIMENTS.md (tables via util::Table::to_markdown),
//   * a CSV series under <outdir>/<slug>.csv (via util::CsvWriter),
// and the runner wraps the whole run in a wall clock, writing a
// BENCH_<slug>.json timing record next to the CSV.
//
// Tiers: --tier=full reproduces the paper-scale grids committed in
// EXPERIMENTS.md; --tier=quick (or --quick) shrinks every grid to a CI smoke
// that must finish in seconds. Experiments branch on Context::quick() at the
// single place their grid is declared.
//
// Registration is explicit — bench_<slug>.cpp defines
// `const Experiment& experiment_<slug>()` and all_experiments.cpp lists them
// in E-order — so no static-initializer/linker-GC tricks are involved and the
// registry contents are identical in every binary that links the harness.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/csv.h"
#include "util/flags.h"
#include "util/table.h"

namespace nowsched::bench::harness {

enum class Tier { kQuick, kFull };

/// "quick" / "full".
std::string tier_name(Tier tier);

/// Parses --tier=quick|full (or the --quick shorthand); defaults to kFull.
/// An unknown tier name is a usage error (exit 2), like malformed numbers.
Tier tier_from_flags(const util::Flags& flags);

class Context {
 public:
  /// Artifacts land in `outdir` (created on demand). `echo` mirrors tables
  /// and notes to stdout — on for standalone binaries and the driver, off in
  /// unit tests.
  Context(std::string slug, Tier tier, const util::Flags& flags, std::string outdir,
          bool echo = true);

  Tier tier() const noexcept { return tier_; }
  bool quick() const noexcept { return tier_ == Tier::kQuick; }
  const util::Flags& flags() const noexcept { return flags_; }
  const std::string& outdir() const noexcept { return outdir_; }

  /// Opens <outdir>/<slug>.csv with this header on first call and returns the
  /// writer. Subsequent calls return the same writer (the header argument is
  /// ignored); rows written through it are counted for the JSON record.
  util::CsvWriter& csv(const std::vector<std::string>& header);
  void write_csv_row(const std::vector<std::string>& cells);
  void write_csv_row(const std::vector<double>& values);

  /// Emit a table: ASCII to the console, pipe-table to the markdown section.
  void table(const util::Table& t, const std::string& caption = "");

  /// Emit a prose paragraph (shape checks, reading guides) to both sinks.
  void text(const std::string& paragraph);

  /// Record a named scalar for the BENCH_<slug>.json `metrics` object
  /// (e.g. headline throughput numbers worth tracking across commits).
  void metric(const std::string& key, double value);

  // -- accessors used by the runner --------------------------------------
  const std::string& markdown() const noexcept { return markdown_; }
  std::size_t csv_rows() const noexcept { return csv_rows_; }
  std::string csv_path() const;
  const std::map<std::string, double>& metrics() const noexcept { return metrics_; }

 private:
  std::string slug_;
  Tier tier_;
  const util::Flags& flags_;
  std::string outdir_;
  bool echo_;
  std::unique_ptr<util::CsvWriter> csv_;
  std::size_t csv_rows_ = 0;
  std::string markdown_;
  std::map<std::string, double> metrics_;
};

struct Experiment {
  std::string id;       ///< "E1" … "E14" — EXPERIMENTS.md section order.
  std::string slug;     ///< artifact basename: <slug>.csv, BENCH_<slug>.json
  std::string title;    ///< section heading
  std::string binary;   ///< standalone executable name
  std::string summary;  ///< one paragraph under the heading
  std::function<void(Context&)> run;
};

class Registry {
 public:
  static Registry& instance();

  /// Id and slug must be unique; duplicates throw std::logic_error.
  void add(const Experiment& e);

  /// Lookup by id ("E3") or slug ("nonadaptive"); nullptr when absent.
  const Experiment* find(const std::string& id_or_slug) const;
  const std::vector<Experiment>& experiments() const noexcept { return experiments_; }
  std::size_t size() const noexcept { return experiments_.size(); }

 private:
  std::vector<Experiment> experiments_;
};

/// Registers E1–E14 in order. Idempotent (second call is a no-op), so tests,
/// standalone binaries, and the driver can all call it unconditionally.
void register_all_experiments();

struct RunResult {
  std::string id;
  std::string slug;
  bool ok = false;
  std::string error;       ///< exception text when !ok
  double wall_ms = 0.0;
  std::size_t csv_rows = 0;
  std::string markdown;    ///< full "## E<n> — title" section
  std::string csv_path;    ///< empty when the experiment wrote no CSV
  std::string json_path;   ///< BENCH_<slug>.json written by the runner
};

/// Runs one experiment under a wall clock: builds the Context, invokes
/// e.run, assembles the markdown section, and writes BENCH_<slug>.json.
/// Exceptions from the experiment are captured into the result (ok=false);
/// a JSON record is still written so CI can see the failure.
/// `artifact_prefix` is the directory prefix the markdown section uses when
/// linking the CSV/JSON artifacts — the driver passes the outdir relative to
/// the document it writes; empty means use `outdir` as-is.
RunResult run_experiment(const Experiment& e, Tier tier, const util::Flags& flags,
                         const std::string& outdir, bool echo = true,
                         const std::string& artifact_prefix = "");

/// Shared main() body for the standalone bench binaries: registers all
/// experiments, parses flags (--tier/--quick/--outdir), runs `id_or_slug`,
/// and returns a process exit code.
int standalone_main(const std::string& id_or_slug, int argc, const char* const* argv);

/// Hardware-class tag stamped into every BENCH_<slug>.json:
/// "<hardware threads>t-<best ISA the CPU can run>", e.g. "8t-avx2",
/// "4t-neon", "1t-scalar". Built from the CPU's capabilities (not the
/// solver kernel), so two runs on the same machine always share a class.
/// compare_baselines.py refuses (warn-only) to ratio-gate records from
/// different classes — a laptop baseline must not fail CI's timings.
std::string host_class();

/// Best-of-`reps` wall time of fn in milliseconds (fn runs reps times).
/// The perf experiments (E10/E11) use this instead of Google Benchmark so
/// they share the tier/CSV/JSON plumbing with the model experiments.
double time_best_of_ms(int reps, const std::function<void()>& fn);

/// Process-unique scratch directory under the system temp dir, removed on
/// destruction. The store-tier experiments (E13/E14) bake persistent table
/// stores into one so baseline regeneration leaves no residue behind.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& label);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

/// The shared CSV schema of the timing experiments:
/// section,x,ms,items_per_sec. Opens the context's CSV with that header on
/// first use, so a perf experiment's whole series goes through this one
/// formatter.
void write_perf_row(Context& ctx, const std::string& section, double x, double ms,
                    double items);

}  // namespace nowsched::bench::harness
