// Direct replays of the jobs the closed loop sent, through each layer's
// public functions and never through the daemon:
//   - the correctness gate reruns every job through a sim::BatchRunner and
//     compares every per-scenario SessionMetrics field with the daemon's;
//   - the traced replay times each layer call of those jobs (rpc codec,
//     service admission, spec validation, solver tiers, sessions);
//   - the kernel cross-check re-solves sample tables with the legacy
//     reference kernel.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "daemon.h"
#include "solver/solve_cache.h"
#include "workloads.h"

namespace perfbench {

/// Sums over the traced replay. Timings are seconds; the decomposition
/// covers a prefix of the jobs, the tier counts cover every job.
struct LayerTrace {
  // rpc: encode_submit_batch + encode_job_result_reply + encode_frame, the
  // two decodes, and the bytes of all four frames of a job.
  double encode_s = 0.0;
  double decode_s = 0.0;
  double frame_bytes = 0.0;
  // service: in-process submit_job.
  double admit_s = 0.0;
  // sim
  std::vector<double> batch_ms;  ///< BatchRunner::run, one per gated job
  double validate_s = 0.0;
  double session_s = 0.0;
  double periods = 0.0;
  std::size_t decomposed_jobs = 0;
  std::size_t decomposed_scenarios = 0;
  // solver, by the tier that answered each dp-optimal lookup
  double hit_s = 0.0;
  std::size_t hits = 0;
  double solve_s = 0.0;
  std::size_t solves = 0;
  double solve_cells = 0.0;
  double solve_bytes = 0.0;
  double load_s = 0.0;
  std::size_t loads = 0;
  double load_bytes = 0.0;
  double spill_s = 0.0;
  std::size_t spills = 0;
  // Exact SolveCacheStats deltas over every gated job (timed phase only).
  ns::solver::SolveCacheStats cache;
  std::size_t gated_scenarios = 0;
  std::size_t dp_scenarios = 0;
};

struct GateResult {
  std::size_t checked = 0;
  std::size_t mismatched = 0;
  BakeCounts bake;
};

/// Reruns every successful job of `records` through direct BatchRunners
/// over a fresh replica of the daemon's solver tiers and compares digests,
/// on every hardware thread. With `trace` set it runs on one thread
/// instead, times every run, and decomposes jobs into layer calls until
/// `decompose_seconds` have passed.
GateResult verify_jobs(const JobSource& source, const std::vector<JobRecord>& records,
                       const std::filesystem::path& work_root, LayerTrace* trace,
                       double decompose_seconds);

/// Solves up to `samples` dp-optimal tables of the first jobs with the
/// active kernel and with the legacy reference kernel. Returns how many
/// tables differ; `compared` receives how many were compared.
std::size_t kernel_mismatches(const JobSource& source, std::size_t samples,
                              std::size_t& compared);

}  // namespace perfbench
