#include "harness/harness.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#if defined(_WIN32)
#include <process.h>
#else
#include <unistd.h>
#endif

namespace nowsched::bench::harness {

namespace {

/// Minimal JSON string escape (quotes, backslashes, control chars).
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  std::ostringstream os;
  os.precision(12);
  os << v;
  return os.str();
}

/// True when the running CPU can execute AVX2 instructions (a CPUID probe,
/// callable from baseline-ISA code).
bool cpu_supports_avx2() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

/// True when the running CPU has AArch64 AdvSIMD (baseline on AArch64).
bool cpu_supports_neon() noexcept {
#if defined(__aarch64__)
  return true;
#else
  return false;
#endif
}

}  // namespace

std::string host_class() {
  const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
  const char* isa = "scalar";
  if (cpu_supports_avx2()) {
    isa = "avx2";
  } else if (cpu_supports_neon()) {
    isa = "neon";
  }
  return std::to_string(threads) + "t-" + isa;
}

std::string tier_name(Tier tier) {
  return tier == Tier::kQuick ? "quick" : "full";
}

Tier tier_from_flags(const util::Flags& flags) {
  if (flags.get_bool("quick", false)) return Tier::kQuick;
  const std::string name = flags.get("tier", "full");
  if (name == "quick") return Tier::kQuick;
  if (name == "full") return Tier::kFull;
  flags.usage_error("tier", "quick or full", name);
}

// ---------------------------------------------------------------------------
// Context
// ---------------------------------------------------------------------------

Context::Context(std::string slug, Tier tier, const util::Flags& flags,
                 std::string outdir, bool echo)
    : slug_(std::move(slug)),
      tier_(tier),
      flags_(flags),
      outdir_(std::move(outdir)),
      echo_(echo) {}

util::CsvWriter& Context::csv(const std::vector<std::string>& header) {
  if (!csv_) {
    std::error_code ec;
    std::filesystem::create_directories(outdir_, ec);
    csv_ = std::make_unique<util::CsvWriter>(outdir_ + "/" + slug_ + ".csv", header);
  }
  return *csv_;
}

void Context::write_csv_row(const std::vector<std::string>& cells) {
  if (!csv_) throw std::logic_error("Context::csv(header) must be called first");
  csv_->write_row(cells);
  ++csv_rows_;
}

void Context::write_csv_row(const std::vector<double>& values) {
  if (!csv_) throw std::logic_error("Context::csv(header) must be called first");
  csv_->write_row(values);
  ++csv_rows_;
}

void Context::table(const util::Table& t, const std::string& caption) {
  if (echo_) t.print(std::cout, caption.empty() ? "" : "\n" + caption);
  if (!caption.empty()) markdown_ += "**" + caption + "**\n\n";
  markdown_ += t.to_markdown();
  markdown_ += '\n';
}

void Context::text(const std::string& paragraph) {
  if (echo_) std::cout << paragraph << '\n';
  markdown_ += paragraph;
  markdown_ += "\n\n";
}

void Context::metric(const std::string& key, double value) {
  metrics_[key] = value;
}

std::string Context::csv_path() const {
  return csv_ ? csv_->path() : std::string{};
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

Registry& Registry::instance() {
  static Registry registry;
  return registry;
}

void Registry::add(const Experiment& e) {
  for (const auto& existing : experiments_) {
    if (existing.id == e.id || existing.slug == e.slug) {
      throw std::logic_error("duplicate experiment registration: " + e.id + "/" +
                             e.slug);
    }
  }
  experiments_.push_back(e);
}

const Experiment* Registry::find(const std::string& id_or_slug) const {
  for (const auto& e : experiments_) {
    if (e.id == id_or_slug || e.slug == id_or_slug) return &e;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------------

RunResult run_experiment(const Experiment& e, Tier tier, const util::Flags& flags,
                         const std::string& outdir, bool echo,
                         const std::string& artifact_prefix) {
  RunResult result;
  result.id = e.id;
  result.slug = e.slug;

  Context ctx(e.slug, tier, flags, outdir, echo);
  if (echo) {
    std::cout << "=== " << e.id << " — " << e.title << " ===\n";
  }

  const auto start = std::chrono::steady_clock::now();
  try {
    e.run(ctx);
    result.ok = true;
  } catch (const std::exception& ex) {
    result.error = ex.what();
  } catch (...) {
    result.error = "unknown exception";
  }
  const auto stop = std::chrono::steady_clock::now();
  result.wall_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  result.csv_rows = ctx.csv_rows();
  result.csv_path = ctx.csv_path();

  // Markdown section. Wall-clock goes only into the JSON record so that
  // regenerating EXPERIMENTS.md on a different machine produces a clean diff.
  const std::string prefix = artifact_prefix.empty() ? outdir : artifact_prefix;
  std::ostringstream md;
  md << "## " << e.id << " — " << e.title << "\n\n";
  md << "*Binary:* `" << e.binary << "` · *tier:* " << tier_name(tier);
  if (!result.csv_path.empty()) {
    md << " · *series:* `" << prefix << "/" << e.slug << ".csv`";
  }
  md << " · *timing:* `" << prefix << "/BENCH_" << e.slug << ".json`\n\n";
  md << e.summary << "\n\n";
  if (!result.ok) {
    md << "**RUN FAILED:** " << result.error << "\n\n";
  }
  md << ctx.markdown();
  result.markdown = md.str();

  // JSON timing record — written even on failure so the perf gate can tell
  // "crashed" from "never ran".
  std::error_code ec;
  std::filesystem::create_directories(outdir, ec);
  result.json_path = outdir + "/BENCH_" + e.slug + ".json";
  std::ofstream json(result.json_path);
  if (json) {
    json << "{\n"
         << "  \"id\": \"" << json_escape(e.id) << "\",\n"
         << "  \"slug\": \"" << json_escape(e.slug) << "\",\n"
         << "  \"title\": \"" << json_escape(e.title) << "\",\n"
         << "  \"binary\": \"" << json_escape(e.binary) << "\",\n"
         << "  \"tier\": \"" << tier_name(tier) << "\",\n"
         << "  \"host_threads\": "
         << std::max(1u, std::thread::hardware_concurrency()) << ",\n"
         << "  \"host_class\": \"" << json_escape(host_class()) << "\",\n"
         << "  \"ok\": " << (result.ok ? "true" : "false") << ",\n"
         << "  \"error\": \"" << json_escape(result.error) << "\",\n"
         << "  \"wall_ms\": " << json_number(result.wall_ms) << ",\n"
         << "  \"csv\": \""
         << json_escape(result.csv_path.empty() ? "" : e.slug + ".csv") << "\",\n"
         << "  \"csv_rows\": " << result.csv_rows << ",\n"
         << "  \"metrics\": {";
    bool first = true;
    for (const auto& [key, value] : ctx.metrics()) {
      if (!first) json << ",";
      json << "\n    \"" << json_escape(key) << "\": " << json_number(value);
      first = false;
    }
    if (!first) json << "\n  ";
    json << "}\n}\n";
  }

  if (echo) {
    if (result.ok) {
      std::cout << "\n[" << e.id << " " << tier_name(tier) << " tier: "
                << util::Table::fmt(result.wall_ms, 4) << " ms";
      if (!result.csv_path.empty()) {
        std::cout << ", " << result.csv_rows << " CSV rows -> " << result.csv_path;
      }
      std::cout << ", timing -> " << result.json_path << "]\n";
    } else {
      std::cout << "\n[" << e.id << " FAILED: " << result.error << "]\n";
    }
  }
  return result;
}

int standalone_main(const std::string& id_or_slug, int argc,
                    const char* const* argv) {
  register_all_experiments();
  const util::Flags flags(argc, argv);
  const Experiment* e = Registry::instance().find(id_or_slug);
  if (e == nullptr) {
    std::fprintf(stderr, "unknown experiment \"%s\"\n", id_or_slug.c_str());
    return 1;
  }
  const Tier tier = tier_from_flags(flags);
  const std::string outdir = flags.get("outdir", "bench_results");
  const RunResult result = run_experiment(*e, tier, flags, outdir);
  return result.ok ? 0 : 1;
}

void write_perf_row(Context& ctx, const std::string& section, double x, double ms,
                    double items) {
  ctx.csv({"section", "x", "ms", "items_per_sec"});
  ctx.write_csv_row({section, util::Table::fmt(x, 9), util::Table::fmt(ms, 6),
                     util::Table::fmt(ms > 0 ? items / (ms / 1000.0) : 0.0, 6)});
}

double time_best_of_ms(int reps, const std::function<void()>& fn) {
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const auto stop = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(stop - start).count();
    if (rep == 0 || ms < best) best = ms;
  }
  return best;
}

ScratchDir::ScratchDir(const std::string& label) {
#if defined(_WIN32)
  const auto pid = static_cast<unsigned long>(::_getpid());
#else
  const auto pid = static_cast<unsigned long>(::getpid());
#endif
  std::string name = "nowsched-bench-";
  name += label;
  name += "-";
  name += std::to_string(pid);
  const auto dir = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  path_ = dir.string();
}

ScratchDir::~ScratchDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);  // best-effort cleanup
}

}  // namespace nowsched::bench::harness
