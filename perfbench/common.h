// Small helpers shared by the load generator, the correctness gate and the
// traced replay: clocks, quantiles, process resource readings, and the
// digest that compares a job's results field for field.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

#include <sys/resource.h>

#include "sim/metrics.h"
#include "util/hash.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linear-interpolated quantile q in [0, 1]; 0 for no samples.
inline double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (pos - static_cast<double>(lo)) * (samples[hi] - samples[lo]);
}

inline double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double s : samples) sum += s;
  return sum / static_cast<double>(samples.size());
}

/// User + system CPU seconds of the whole process so far.
inline double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

/// High-water resident set of the process so far, in MiB.
inline double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

inline std::uint64_t digest(std::uint64_t h, const nowsched::sim::SessionMetrics& m) {
  using nowsched::util::hash_combine;
  for (const auto v : {static_cast<std::uint64_t>(m.banked_work),
                       static_cast<std::uint64_t>(m.task_work),
                       static_cast<std::uint64_t>(m.comm_overhead),
                       static_cast<std::uint64_t>(m.lost_work),
                       static_cast<std::uint64_t>(m.salvaged_work),
                       static_cast<std::uint64_t>(m.fragmentation),
                       static_cast<std::uint64_t>(m.lifespan_used),
                       static_cast<std::uint64_t>(m.interrupts),
                       static_cast<std::uint64_t>(m.episodes),
                       static_cast<std::uint64_t>(m.periods_completed),
                       static_cast<std::uint64_t>(m.periods_killed),
                       static_cast<std::uint64_t>(m.tasks_completed)}) {
    h = hash_combine(h, v);
  }
  return h;
}

/// Digest of every SessionMetrics field of every scenario plus the
/// aggregate: equal digests mean equal results.
inline std::uint64_t digest(const std::vector<nowsched::sim::SessionMetrics>& per_scenario,
                            const nowsched::sim::SessionMetrics& aggregate) {
  std::uint64_t h = nowsched::util::hash_combine(0, per_scenario.size());
  for (const auto& m : per_scenario) h = digest(h, m);
  return digest(h, aggregate);
}

}  // namespace perfbench
