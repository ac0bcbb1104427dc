// perfbench — the nowsched end-to-end benchmark's load generator.
//
//   perfbench --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
//             [--workdir=<dir>]
//
// Sets up the daemon (store, service, server thread, client connection,
// cache warm-up), drives it with a closed loop for --seconds, then checks
// every result against a direct BatchRunner replay. --trace=0 reports the
// end-to-end metrics; --trace=1 runs the loop twice (untraced, then with
// spans) and replays the jobs layer by layer for the per-layer metrics.
// The last stdout line is one JSON object; the exit status is 0 only when
// every output was correct. perfbench/run.py builds and runs this binary;
// WORKLOADS.md describes the workloads and metrics.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "daemon.h"
#include "replay.h"
#include "solver/fast_solver.h"
#include "util/flags.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

/// Set-ups per --trace=0 run; setup_s is their median. A set-up of a few
/// hundred microseconds swings several-fold with thread scheduling, so
/// cheap set-ups (and their tear-downs) repeat until kSetupWallS of wall
/// time has passed: the median then samples a second of host state, not
/// a few milliseconds of it.
constexpr int kMinSetups = 7;
constexpr int kMaxSetups = 1000;
constexpr double kSetupWallS = 1.0;
/// Jobs per run, and per window, so that each p90 has at least ten
/// samples beyond it.
constexpr std::size_t kMinJobs = 110;
/// dp-optimal tables the kernel cross-check re-solves with kLegacy.
constexpr std::size_t kKernelSamples = 4;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct HostStamp {
  unsigned nproc = 0;
  double effective_parallelism = 0.0;
  std::string kernel;
  std::string build = PERFBENCH_BUILD_TYPE;
};

/// Effective parallelism: nproc threads spinning a fixed amount of work
/// each, against one thread doing the same amount alone (best of three
/// tries each, so a neighbour's burst does not decide the stamp).
HostStamp stamp_host() {
  HostStamp host;
  host.nproc = std::max(1u, std::thread::hardware_concurrency());
  host.kernel = ns::solver::solver_kernel_name(ns::solver::active_solver_kernel());
  auto spin = [] {
    volatile std::uint64_t x = 0;
    for (std::uint64_t i = 0; i < 30'000'000; ++i) x = x + i;
  };
  auto run = [&](unsigned threads) {
    const Clock::time_point t0 = Clock::now();
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t) pool.emplace_back(spin);
    for (std::thread& t : pool) t.join();
    return seconds_between(t0, Clock::now());
  };
  auto best = [&](unsigned threads) {
    double b = run(threads);
    for (int i = 0; i < 2; ++i) b = std::min(b, run(threads));
    return b;
  };
  const double one = best(1);
  const double all = best(host.nproc);
  host.effective_parallelism = host.nproc * one / all;
  return host;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);  // every digit, as measured
  return buf;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
              << json_number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

double per(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string phase_line(const char* name, const PhaseCounts& c) {
  std::ostringstream out;
  out << name << " attempted=" << c.attempted << " succeeded=" << c.succeeded
      << " failed=" << c.failed;
  return out.str();
}

/// The end-to-end throughput, latency and CPU metrics of the timed phase:
/// each is computed per window (LoopResult::window_marks; fewer, wider
/// windows when a window would hold under kMinJobs jobs) and the median
/// window is reported, so a burst of host contention that hits one or two
/// windows does not move the result. Jobs still draining after the last
/// window are not counted.
std::vector<Metric> windowed_metrics(const LoopResult& loop) {
  const auto& marks = loop.window_marks;
  std::vector<double> rate, p50, p90, cpu;
  // A loop cut short (lost connection) may not reach its last mark; its
  // jobs already count as failed.
  const std::size_t slots = marks.size() < 2 ? 0 : marks.size() - 1;
  std::size_t jobs = 0;
  for (const JobRecord& r : loop.jobs) {
    jobs += slots > 0 && r.ok && r.done_s >= marks.front().first && r.done_s < marks.back().first;
  }
  const std::size_t windows = std::min(std::max<std::size_t>(jobs / kMinJobs, 1), slots);
  for (std::size_t w = 0; w < windows; ++w) {
    const auto& [from, cpu_from] = marks[w * slots / windows];
    const auto& [to, cpu_to] = marks[(w + 1) * slots / windows];
    std::vector<double> latencies;
    double scenarios = 0.0;
    for (const JobRecord& r : loop.jobs) {
      if (!r.ok || r.done_s < from || r.done_s >= to) continue;
      latencies.push_back(r.latency_ms);
      scenarios += static_cast<double>(r.scenarios);
    }
    rate.push_back(per(scenarios, to - from));
    p50.push_back(quantile(latencies, 0.5));
    p90.push_back(quantile(latencies, 0.9));
    cpu.push_back(per((cpu_to - cpu_from) * 1e3, scenarios));
  }
  return {
      {"scenarios_per_s", quantile(rate, 0.5), "1/s"},
      {"job_latency_p50_ms", quantile(p50, 0.5), "ms"},
      {"job_latency_p90_ms", quantile(p90, 0.5), "ms"},
      {"cpu_ms_per_scenario", quantile(cpu, 0.5), "ms"},
  };
}

/// One set-up, timed from its start until the first timed submit could go.
std::unique_ptr<Daemon> set_up(const JobSource& source, const std::filesystem::path& work,
                               BakeCounts& bake, PhaseCounts& warm, double& seconds) {
  const Clock::time_point t0 = Clock::now();
  auto daemon = std::make_unique<Daemon>(source, work, bake);
  const PhaseCounts w = daemon->warm_up();
  seconds = seconds_between(t0, Clock::now());
  warm.attempted += w.attempted;
  warm.succeeded += w.succeeded;
  warm.failed += w.failed;
  return daemon;
}

/// Checks, on the traced replay, that the workload exercises the layer it
/// claims to (WORKLOADS.md). Prints one line per claim.
bool check_claims(const Workload& w, const LayerTrace& t) {
  const std::uint64_t solves = t.cache.misses - t.cache.store_hits;
  bool ok = true;
  auto claim = [&](const std::string& text, bool holds) {
    std::cout << "claim " << (holds ? "PASS" : "FAIL") << ": " << text << "\n";
    ok = ok && holds;
  };
  if (w.name == "cold_solve") {
    const double others[] = {t.session_s, t.validate_s, t.encode_s + t.decode_s, t.admit_s,
                             t.hit_s};
    bool largest = t.solve_s > 0.0;
    for (double o : others) largest = largest && t.solve_s > o;
    claim("solve time is the largest share of job time", largest);
  } else if (w.name == "warm_mix") {
    claim("no solves in the timed phase", solves == 0);
  } else if (w.name == "store_read") {
    claim("every dp-optimal lookup is a store load", t.cache.store_hits == t.dp_scenarios);
  } else if (w.name == "store_spill") {
    claim("every solve spills", t.cache.spills == solves && solves > 0);
  }
  return ok;
}

void print_shares(const LayerTrace& t) {
  const double total = t.solve_s + t.load_s + t.spill_s + t.hit_s + t.session_s +
                       2.0 * t.validate_s + t.encode_s + t.decode_s + t.admit_s;
  auto share = [&](const char* name, double s) {
    std::cout << "  share " << name << " " << json_number(per(s, total)) << "\n";
  };
  std::cout << "traced shares of replayed job time (" << t.decomposed_jobs << " jobs):\n";
  share("solver.solve", t.solve_s);
  share("solver.store_load", t.load_s);
  share("solver.spill", t.spill_s);
  share("solver.ram_hit", t.hit_s);
  share("sim.session", t.session_s);
  share("sim.validate(x2)", 2.0 * t.validate_s);
  share("rpc.codec", t.encode_s + t.decode_s);
  share("service.admit", t.admit_s);
}

int run(const ns::util::Flags& flags) {
  const std::string name = flags.get("workload", "");
  const Workload* workload = find_workload(name);
  if (workload == nullptr) flags.usage_error("workload", "a workload name", name);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const double seconds = flags.get_double("seconds", 10.0);
  if (!(seconds > 0.0)) flags.usage_error("seconds", "a positive number", flags.get("seconds", ""));
  const bool traced = flags.get_int("trace", 0) != 0;
  const std::filesystem::path work = flags.get("workdir", ".bench_build/work");
  std::filesystem::create_directories(work);

  const JobSource source(*workload, seed);
  std::cout << "perfbench workload=" << name << " seed=" << seed << " seconds=" << seconds
            << " trace=" << (traced ? 1 : 0) << "\n";

  BakeCounts bake;
  PhaseCounts warm;
  std::vector<double> setup_times;
  std::unique_ptr<Daemon> daemon;
  const Clock::time_point setups_start = Clock::now();
  for (int i = 0; i < (traced ? 1 : kMaxSetups); ++i) {
    if (i >= kMinSetups && seconds_between(setups_start, Clock::now()) >= kSetupWallS) break;
    daemon.reset();
    double s = 0.0;
    daemon = set_up(source, work, bake, warm, s);
    setup_times.push_back(s);
  }
  const LoopResult loop = run_closed_loop(daemon->client(), source, 0, seconds, kMinJobs, false);
  const double rss_mb = peak_rss_mb();
  daemon.reset();

  std::size_t failed = loop.counts.failed;
  std::vector<Metric> metrics;
  bool claims_ok = true;
  GateResult gate;
  if (!traced) {
    gate = verify_jobs(source, loop.jobs, work, nullptr, 0.0);
    metrics = {{"setup_s", quantile(setup_times, 0.5), "s"}};
    for (Metric& m : windowed_metrics(loop)) metrics.push_back(std::move(m));
  } else {
    // Same jobs again on a fresh set-up, with spans recorded.
    double s = 0.0;
    daemon = set_up(source, work, bake, warm, s);
    const LoopResult spans =
        run_closed_loop(daemon->client(), source, loop.jobs.size(), seconds, 0, true);
    daemon.reset();
    failed += spans.counts.failed;
    for (std::size_t i = 0; i < spans.jobs.size() && i < loop.jobs.size(); ++i) {
      if (spans.jobs[i].ok && loop.jobs[i].ok && spans.jobs[i].digest != loop.jobs[i].digest) {
        ++failed;
      }
    }

    LayerTrace t;
    gate = verify_jobs(source, spans.jobs, work, &t, seconds / 2);
    claims_ok = check_claims(*workload, t);
    print_shares(t);

    std::vector<double> submit_us, service_ms, rpc_self_ms, service_self_ms;
    for (std::size_t i = 0, g = 0; i < spans.jobs.size(); ++i) {
      const JobRecord& r = spans.jobs[i];
      if (!r.ok) continue;
      submit_us.push_back(r.submit_us);
      service_ms.push_back(r.service_ms);
      rpc_self_ms.push_back(r.latency_ms - r.service_ms);
      if (g < t.batch_ms.size()) service_self_ms.push_back(r.service_ms - t.batch_ms[g++]);
    }
    const auto scen = static_cast<double>(t.decomposed_scenarios);
    const auto jobs = static_cast<double>(t.decomposed_jobs);
    const auto gated = static_cast<double>(t.gated_scenarios);
    const auto tier_solves = static_cast<double>(t.cache.misses - t.cache.store_hits);
    metrics = {
        {"rpc.submit_rtt_us", quantile(submit_us, 0.5), "us"},
        {"rpc.self_ms_per_job", mean(rpc_self_ms), "ms"},
        {"rpc.encode_us_per_scenario", per(t.encode_s * 1e6, scen), "us"},
        {"rpc.decode_us_per_scenario", per(t.decode_s * 1e6, scen), "us"},
        {"rpc.bytes_per_scenario", per(t.frame_bytes, scen), "count"},
        {"service.admit_us_per_job", per(t.admit_s * 1e6, jobs), "us"},
        {"service.latency_ms_p50", quantile(service_ms, 0.5), "ms"},
        {"service.self_ms_per_job", mean(service_self_ms), "ms"},
        {"service.rejected_per_submit",
         per(static_cast<double>(loop.rejected + spans.rejected),
             static_cast<double>(loop.submits + spans.submits)),
         "count"},
        {"sim.batch_ms_per_job", mean(t.batch_ms), "ms"},
        {"sim.session_us_per_scenario", per(t.session_s * 1e6, scen), "us"},
        {"sim.validate_us_per_scenario", per(t.validate_s * 1e6, scen), "us"},
        {"sim.periods_per_scenario", per(t.periods, scen), "count"},
        {"solver.get_hit_us", per(t.hit_s * 1e6, static_cast<double>(t.hits)), "us"},
        {"solver.solve_ms", per(t.solve_s * 1e3, static_cast<double>(t.solves)), "ms"},
        {"solver.cells_per_us", per(t.solve_cells, t.solve_s * 1e6), "cells/us"},
        {"solver.store_load_ms", per(t.load_s * 1e3, static_cast<double>(t.loads)), "ms"},
        {"solver.store_load_mb_per_s", per(t.load_bytes / (1024.0 * 1024.0), t.load_s), "MB/s"},
        {"solver.spill_ms", per(t.spill_s * 1e3, static_cast<double>(t.spills)), "ms"},
        {"solver.hit_rate", t.cache.hit_rate(), "ratio"},
        {"solver.solves_per_scenario", per(tier_solves, gated), "count"},
        {"solver.store_hits_per_scenario", per(static_cast<double>(t.cache.store_hits), gated),
         "count"},
        {"solver.spills_per_scenario", per(static_cast<double>(t.cache.spills), gated), "count"},
        {"solver.table_mb_per_solve",
         per(t.solve_bytes / (1024.0 * 1024.0), static_cast<double>(t.solves)), "MB"},
        {"process.peak_rss_mb", rss_mb, "MB"},
        {"trace.overhead_frac", per(spans.cpu_s, loop.cpu_s) - 1.0, "ratio"},
    };
  }
  failed += gate.mismatched;
  bake.attempted += gate.bake.attempted;
  bake.failed += gate.bake.failed;

  std::size_t compared = 0;
  const std::size_t kernel_bad = kernel_mismatches(source, kKernelSamples, compared);
  failed += kernel_bad;

  const HostStamp host = stamp_host();
  const bool correct = failed == 0 && bake.failed == 0 && warm.failed == 0 && claims_ok &&
                       loop.counts.succeeded > 0;

  std::cout << "phase setup-bake attempted=" << bake.attempted << " failed=" << bake.failed
            << "\n"
            << "phase " << phase_line("warm-up", warm) << "\n"
            << "phase " << phase_line("timed", loop.counts) << " submits=" << loop.submits
            << " backpressure=" << loop.rejected << "\n"
            << "gate checked=" << gate.checked << " mismatched=" << gate.mismatched
            << " kernel_tables=" << compared << " kernel_mismatched=" << kernel_bad << "\n"
            << "failed_frac " << json_number(per(static_cast<double>(failed),
                                                 static_cast<double>(loop.counts.attempted)))
            << "\n"
            << "process peak_rss_mb=" << json_number(rss_mb) << "\n"
            << "host nproc=" << host.nproc
            << " effective_parallelism=" << json_number(host.effective_parallelism)
            << " kernel=" << host.kernel << " build=" << host.build << "\n";
  for (const Metric& m : metrics) {
    std::cout << "metric " << m.name << " " << json_number(m.value) << " " << m.unit << "\n";
  }
  print_result(correct, loop.counts.attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const nowsched::util::Flags flags(argc, argv);
  try {
    return perfbench::run(flags);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
