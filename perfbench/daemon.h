// The system under test and the closed-loop client that drives it: an
// in-process rpc::Server thread over a 2-worker SchedulerService, and one
// rpc::Client connection on the calling thread.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "rpc/client.h"
#include "rpc/server.h"
#include "service/scheduler_service.h"
#include "workloads.h"

namespace perfbench {

struct PhaseCounts {
  std::size_t attempted = 0;
  std::size_t succeeded = 0;
  std::size_t failed = 0;
};

/// One set-up of the daemon: scratch directory, store (baked when the
/// workload asks), service, server thread and client connection. The
/// destructor stops the server and joins its thread.
class Daemon {
 public:
  Daemon(const JobSource& source, const std::filesystem::path& work_root, BakeCounts& bake);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Submits one job per tenant holding one dp-optimal spec per contract
  /// class, and fetches them: afterwards no timed job solves. No-op unless
  /// the workload asks for warm-up.
  PhaseCounts warm_up();

  ns::rpc::Client& client() { return *client_; }

 private:
  void stop();

  const JobSource& source_;
  ScratchDir dir_;
  ns::service::SchedulerService service_;
  ns::rpc::Server server_;
  std::atomic<bool> serving_{true};
  std::thread serve_thread_;  // last: joins before the members it uses die
  std::unique_ptr<ns::rpc::Client> client_;
};

/// What the closed loop saw of one job.
struct JobRecord {
  std::uint64_t index = 0;
  std::size_t scenarios = 0;
  bool ok = false;          ///< accepted, fetched kDone
  double latency_ms = 0.0;  ///< submit_batch start to fetch_result return
  double submit_us = 0.0;   ///< Client::submit_batch alone (traced loop only)
  double service_ms = 0.0;  ///< JobResultReply::latency_ms
  double done_s = 0.0;      ///< fetch_result return, seconds into the loop
  std::uint64_t digest = 0; ///< of the fetched per-scenario metrics
};

struct LoopResult {
  std::vector<JobRecord> jobs;  ///< job-index order
  PhaseCounts counts;
  double cpu_s = 0.0;           ///< process user+sys over the whole loop
  std::size_t submits = 0;      ///< submit_batch calls, retries included
  std::size_t rejected = 0;     ///< backpressure replies among them
  /// Time-bounded loops only: (seconds into the loop, process CPU seconds)
  /// read at the first loop step on or after each of kWindows + 1 equally
  /// spaced instants from the start to `seconds`.
  std::vector<std::pair<double, double>> window_marks;
};

/// Windows a time-bounded loop is cut into (see LoopResult::window_marks).
inline constexpr int kWindows = 5;

/// Runs the closed loop: keeps `window` jobs outstanding, each a
/// submit_batch followed later by an in-order fetch_result(wait). With
/// `job_count` > 0 it sends exactly jobs [0, job_count); otherwise it stops
/// sending once `seconds` have passed and at least `min_jobs` completed,
/// then drains what is outstanding. `traced` also records the
/// submit_batch span of every job.
LoopResult run_closed_loop(ns::rpc::Client& client, const JobSource& source,
                           std::uint64_t job_count, double seconds, std::size_t min_jobs,
                           bool traced);

}  // namespace perfbench
