// Job and result types shared by service::QueuePolicy and
// service::SchedulerService (split out so the queue disciplines do not
// depend on the service class that drives them).
//
// A job is one tenant's scenario batch: the unit of admission, queueing,
// and execution. Its `cost` — the scenario count — is the service currency
// the deficit-round-robin policy meters fair shares in, and the unit the
// per-tenant throttle budget (ServiceOptions::max_pending_scenarios_per_
// tenant) is expressed in.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/batch_runner.h"

namespace nowsched::service {

using JobId = std::uint64_t;

/// Lifecycle of a ticket-tracked job as observed through the JobTicket
/// handle API (and over nowsched-rpc v1). The numeric values are FROZEN
/// WIRE CODES — they appear verbatim in JobStatusReply/JobResultReply
/// frames, so they must never be renumbered or reused.
enum class JobState : int {
  kUnknown = 0,    ///< no such job (never issued, or fetched or forgotten)
  kQueued = 1,     ///< admitted and in the queue, waiting to be picked
  kRunning = 2,    ///< a worker is executing the scenario batch
  kDone = 3,       ///< finished; the JobResult awaits exactly one fetch
  kFailed = 4,     ///< execution threw; the error text awaits one fetch
  kCancelled = 5,  ///< cancelled before it ran (cancel() or shutdown)
};

/// Stable text names ("unknown", "queued", ...) for logs and the wire
/// protocol's human-readable fields.
const char* to_string(JobState state);

/// The frozen numeric wire code (see the enum). Kept as a named function so
/// call sites say what they mean instead of scattering static_casts.
constexpr int wire_code(JobState state) noexcept { return static_cast<int>(state); }

/// Inverse of wire_code; nullopt on a code v1 never assigned.
std::optional<JobState> job_state_from_wire(int code) noexcept;

/// The pollable handle submit_job hands back: a request id plus the tenant
/// it was issued to. Tickets are plain values — they can cross process
/// boundaries (the daemon sends the id over the wire).
struct JobTicket {
  JobId id = 0;
  std::string tenant;

  bool valid() const noexcept { return id != 0; }
};

/// What fetch_result hands back for a completed job.
struct JobResult {
  std::string tenant;
  JobId job_id = 0;
  /// 0-based position in the service's global completion order, assigned
  /// under the service lock the moment the job finishes. This is the
  /// observable the deterministic scheduling-order tests and the E15
  /// fairness window read — an ordering fact, never a wall-clock one.
  std::uint64_t completion_index = 0;
  /// Submit-to-completion wall latency. Informational (stats/benches) only:
  /// tests assert ordering and conservation invariants, never timing.
  double latency_ms = 0.0;
  /// Index-aligned per-scenario metrics plus the tenant cache's counters at
  /// completion. Bit-identical to a direct BatchRunner::run over the same
  /// specs — the service-vs-batch conformance differential pins this.
  sim::BatchResult batch;
};

/// A queued unit of work as the queue disciplines see it. It carries only
/// the work; the job's state and outcome live in the service's job record.
struct QueuedJob {
  JobId id = 0;
  std::string tenant;
  std::size_t cost = 0;  ///< == specs.size(); the DRR service currency
  std::vector<sim::ScenarioSpec> specs;
  std::chrono::steady_clock::time_point submitted_at{};
};

}  // namespace nowsched::service
