// SchedulerService — the resident, thread-safe, multi-tenant service core
// over sim::BatchRunner: the "millions of users, one warm solver" layer of
// the ROADMAP (DESIGN.md §10).
//
// Dataflow:  submit_job(tenant, specs)
//              └─ admission  — validate specs; bounded per-tenant and
//                 global queue depths and a per-tenant pending-scenario
//                 budget; overflow is REJECTED WITH A REASON (a status the
//                 client retries on — cooperative backpressure, never an
//                 unbounded internal queue)
//              └─ queue policy — a pluggable QueuePolicy (FIFO or
//                 deficit-round-robin fair share across tenants) picks
//                 which accepted job runs next
//              └─ execution  — a worker thread runs the job's scenario
//                 batch through BatchRunner with the TENANT'S OWN
//                 byte-quota SolveCache and publishes the job's outcome
//                 for fetch_result
//              └─ stats      — per-tenant counters, queue depths, cache
//                 hit rates, and p50/p90/p99 job latency via stats()
//
// Quota layering: every tenant gets a private solver::SolveCache whose
// max_bytes is the tenant's quota; inside each cache, the existing
// per-shard byte slices and keep-newest eviction apply unchanged. Isolation
// is therefore structural — a cache-hostile tenant churns only its own
// budget and CANNOT evict another tenant's tables (pinned by the quota-
// isolation tests). set_tenant_quota resizes a live cache, evicting down
// immediately.
//
// Determinism: scheduling decides only WHEN a job runs, never what it
// computes. Each scenario's result is a pure function of its spec
// (BatchRunner's contract: hash-derived private RNG streams, no global
// state), and a cache only changes who solves a table, never its contents —
// so per-scenario metrics are bit-identical across queue policies, worker
// counts, tenant splits, and quota settings, and identical to a direct
// BatchRunner::run. The service-vs-batch conformance differential fuzzes
// exactly this claim.
//
// Threading contract: every public method is safe to call from any thread.
// Workers execute jobs outside the service lock; a job's terminal state,
// its outcome, and the completion counters are published in ONE critical
// section, so whenever job_state() or stats() says a job settled, a
// fetch_result(id, false) hands its outcome back without blocking. With
// workers == 0 the service is in MANUAL mode: no threads are spawned and
// run_next() pumps one job at a time on the calling thread — the
// deterministic single-thread harness the scheduling-order tests drive.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <condition_variable>
#include <mutex>

#include "service/job.h"
#include "service/queue_policy.h"
#include "service/service_stats.h"
#include "sim/batch_runner.h"
#include "solver/solve_cache.h"

namespace nowsched::service {

/// Admission verdicts. The numeric values are FROZEN WIRE CODES of
/// nowsched-rpc v1 (they ride in every SubmitReply frame) — never renumber
/// or reuse them; new statuses append.
enum class SubmitStatus : int {
  kAccepted = 0,
  kQueueFullTenant = 1,  ///< tenant queue-depth limit hit — retry later
  kQueueFullGlobal = 2,  ///< global queue-depth limit hit — retry later
  kThrottled = 3,        ///< tenant pending-scenario budget exceeded — retry later
  kInvalidScenario = 4,  ///< a spec failed validation; reason names the index
  kShuttingDown = 5,     ///< service no longer accepts work
};

const char* to_string(SubmitStatus status);

/// The frozen numeric wire code (see the enum).
constexpr int wire_code(SubmitStatus status) noexcept {
  return static_cast<int>(status);
}

/// Inverse of wire_code; nullopt on a code v1 never assigned.
std::optional<SubmitStatus> submit_status_from_wire(int code) noexcept;

/// True for the overflow statuses a client is invited to retry on
/// (kQueueFullTenant, kQueueFullGlobal, kThrottled) — the cooperative
/// backpressure protocol. Invalid scenarios and shutdown are final.
bool is_backpressure(SubmitStatus status) noexcept;

/// What submit_job() hands back: an admission verdict plus — on acceptance —
/// the pollable JobTicket the client later passes to job_state() /
/// fetch_result() / cancel(). This is the only submit surface; it is what
/// the nowsched-rpc v1 daemon speaks, and it behaves identically in-process
/// and over the wire.
struct TicketSubmission {
  SubmitStatus status = SubmitStatus::kAccepted;
  std::string reason;
  JobTicket ticket;  ///< invalid (id 0) when rejected

  bool accepted() const noexcept { return status == SubmitStatus::kAccepted; }
};

/// What fetch_result() hands back. `state` is the job's FINAL state for a
/// consumed outcome (kDone/kFailed/kCancelled), its current state for a
/// non-waiting probe of a pending job (kQueued/kRunning), or kUnknown when
/// the id was never issued or its outcome was already fetched or forgotten.
struct FetchOutcome {
  JobState state = JobState::kUnknown;
  std::string error;  ///< set when state is kFailed or kCancelled
  JobResult result;   ///< meaningful only when state == kDone

  bool done() const noexcept { return state == JobState::kDone; }
};

struct ServiceOptions {
  /// Worker threads executing jobs. 0 = manual mode: run_next() drives
  /// (the deterministic test harness); >= 1 spawns resident workers.
  std::size_t workers = 2;

  QueueKind queue = QueueKind::kFifo;
  /// DRR per-visit deficit grant in scenarios (ignored by FIFO).
  std::size_t drr_quantum = 64;

  // Admission bounds. Depths are in JOBS; the throttle budget is in
  // SCENARIOS (so one tenant cannot monopolize compute with few huge jobs
  // that the job-depth limits would wave through).
  std::size_t max_queued_jobs_per_tenant = 64;
  std::size_t max_queued_jobs_total = 256;
  /// Scenarios a tenant may have queued, running, or completed but not yet
  /// fetched or forgotten.
  std::size_t max_pending_scenarios_per_tenant = 1u << 16;

  /// SolveCache byte quota for tenants that never got an explicit
  /// set_tenant_quota call.
  std::size_t default_tenant_quota_bytes = 16u << 20;  // 16 MiB
  /// Shards per tenant cache (tenants are already the coarse sharding, so
  /// fewer shards than a process-global cache would use).
  std::size_t tenant_cache_shards = 4;

  /// Optional persistent table-store directory mounted beneath EVERY
  /// tenant's cache (solver::MappedTableStore; see solver/table_store.h).
  /// Empty = no persistent tier, exactly the old behavior. One store serves
  /// all tenants: tables are pure functions of their canonical key, so
  /// sharing leaks no tenant data — only solves. Private byte-quota caches
  /// (and their isolation guarantees) sit above it unchanged.
  std::string shared_store_dir;
  /// Mount the shared store read-only — the warm-start deployment shape: a
  /// pre-baked store (examples/cache_bake) served to many service
  /// processes, none of which may mutate it. Read-write (the default) lets
  /// tenants' fresh solves spill for the next process to reuse.
  bool shared_store_readonly = false;
};

class SchedulerService {
 public:
  explicit SchedulerService(ServiceOptions options = {});

  /// Cancels queued jobs, lets in-flight jobs finish, joins workers —
  /// shutdown(StopMode::kCancelQueued). Call shutdown(StopMode::kDrain)
  /// first when queued work must complete.
  ~SchedulerService();

  SchedulerService(const SchedulerService&) = delete;
  SchedulerService& operator=(const SchedulerService&) = delete;

  /// Admits one job — `tenant`'s batch of scenarios — and returns a
  /// pollable JobTicket. Never blocks on queue pressure: overflow returns a
  /// backpressure status instead (see SubmitStatus). Throws
  /// std::invalid_argument only on an empty tenant id (a caller bug, not
  /// load). The job's lifecycle is then observed through job_state() and
  /// consumed through fetch_result() — EXACTLY ONCE: the first fetch of a
  /// terminal outcome releases the job record, after which the id reads
  /// kUnknown. A completed result waits for its fetch (or forget), and
  /// until then its scenarios count against the tenant's
  /// max_pending_scenarios_per_tenant budget beside the queued and running
  /// ones, so a tenant that never fetches is throttled instead of growing
  /// the service.
  TicketSubmission submit_job(const std::string& tenant,
                              std::vector<sim::ScenarioSpec> specs);

  /// Current state of a ticketed job; kUnknown when the id was never issued
  /// by submit_job or its outcome was already fetched/forgotten. A job whose
  /// cancel() was accepted reads kCancelled from then on.
  JobState job_state(JobId id) const;

  /// Consumes a ticketed job's outcome. With wait=true blocks until the job
  /// reaches a terminal state; with wait=false returns the current state
  /// without consuming anything when the job is still kQueued/kRunning.
  /// Terminal outcomes are handed out exactly once — the record is released
  /// and subsequent calls return kUnknown. Never throws on job failure: the
  /// execution error comes back as text in FetchOutcome::error.
  FetchOutcome fetch_result(JobId id, bool wait = true);

  /// Cancels a still-queued job. Returns true when the cancel is accepted:
  /// the job was kQueued and leaves the queue now, never to execute. Before
  /// cancel returns, its admission slot and pending scenarios are released,
  /// it counts as cancelled (DRR charges its tenant nothing for it), its
  /// state reads kCancelled, and its fetch — including one already waiting
  /// — resolves with a cancellation error. Returns false for running,
  /// terminal, unknown, or already-cancelled jobs — cancellation never
  /// preempts execution.
  bool cancel(JobId id);

  /// Releases interest in a ticketed job without consuming its result: the
  /// id reads kUnknown from then on, and a fetch already waiting on it
  /// returns kUnknown. A queued job is cancelled on the spot, a running job
  /// finishes (its counters still settle) but its outcome is dropped, a
  /// terminal outcome is discarded. Returns false when the id is unknown.
  /// The daemon calls this for every unfetched job of a disconnected
  /// client, so abandoned tickets cannot leak results.
  bool forget(JobId id);

  /// Installs a hook invoked after a job reaches a terminal state — after
  /// its counters, job-record state, and outcome are published,
  /// outside the service lock. The RPC server uses it to wake its poll loop
  /// the moment a parked result-wait can be answered. Pass nullptr to
  /// clear. Hooks run on worker threads (or the run_next caller): keep them
  /// cheap and non-blocking.
  void set_completion_hook(std::function<void(JobId)> hook);

  /// Sets (or creates the tenant with) the tenant's cache byte quota.
  /// Resizing a live cache evicts down immediately, keep-newest preserved
  /// per shard (SolveCache::set_max_bytes).
  void set_tenant_quota(const std::string& tenant, std::size_t bytes);

  /// Manual mode only (workers == 0): pops the next job per the queue
  /// policy and runs it on the calling thread. Returns true exactly when it
  /// ran a job, false when the queue is empty. Throws std::logic_error when
  /// the service owns worker threads — mixing foreign threads into a
  /// running worker fleet is a bug, not a feature.
  bool run_next();

  /// Blocks until the queue is empty and nothing is in flight (manual
  /// mode: runs the queue dry on the calling thread instead). Does NOT
  /// stop accepting — a concurrent submitter can keep the service busy.
  void drain();

  enum class StopMode {
    kDrain,         ///< run every queued job, then stop
    kCancelQueued,  ///< cancel queued jobs, finish in-flight, stop
  };

  /// Stops accepting (submits return kShuttingDown), resolves queued work
  /// per `mode`, waits for in-flight jobs, and joins workers. Idempotent;
  /// concurrent calls serialize and the first mode wins the queued jobs.
  void shutdown(StopMode mode = StopMode::kDrain);

  /// Point-in-time snapshot: per-tenant counters/queue depths/cache
  /// stats/latency percentiles plus global sums. Safe under full load.
  ServiceStats stats() const;

  const ServiceOptions& options() const noexcept { return options_; }

  /// The shared persistent tier all tenant caches mount (nullptr when
  /// ServiceOptions::shared_store_dir is empty).
  const std::shared_ptr<solver::TableStore>& shared_store() const noexcept {
    return shared_store_;
  }

 private:
  struct Tenant {
    Tenant(std::size_t quota, std::size_t shards,
           std::shared_ptr<solver::TableStore> store)
        : cache(solver::SolveCache::Options{shards, quota, std::move(store)}) {
      books.quota_bytes = quota;
    }

    solver::SolveCache cache;
    LatencyRing latency;
    /// Quota, admission/outcome counters and queue depths — the very
    /// struct stats() reports (its `tenant`, `cache` and `latency` fields
    /// are filled in by stats() alone).
    TenantStats books;
    /// Scenarios of kDone records not yet fetched or forgotten; admission
    /// counts them with books.pending_scenarios.
    std::size_t unfetched_scenarios = 0;
  };

  /// Ticket bookkeeping and outcome for one submit_job, kept only while the
  /// outcome may still be read: fetch_result and forget erase it. Its state
  /// is kQueued exactly while the job is in queue_. While kDone, its `cost`
  /// is charged to `tenant->unfetched_scenarios`. Guarded by mu_.
  struct JobRecord {
    Tenant* tenant = nullptr;
    std::size_t cost = 0;  ///< the job's scenario count
    JobState state = JobState::kQueued;
    std::string error;  ///< set once kFailed or kCancelled
    JobResult result;   ///< set once kDone
  };

  void worker_loop();
  /// Runs `job` on the calling thread (no service lock held), then settles
  /// its counters and outcome under the lock and notifies `settled`.
  void execute(QueuedJob job, Tenant& tenant, std::vector<JobId>& settled);
  /// Lock held, queue non-empty: pops the next job into `job`, marks it
  /// running, moves it from the queued to the in-flight books, and returns
  /// its tenant.
  Tenant& start_next_locked(QueuedJob& job);
  /// Lock held: unwinds the admission bookkeeping of a job that leaves the
  /// queue unrun, settles it kCancelled with `message`, appends its id.
  void cancel_locked(const QueuedJob& job, const char* message,
                     std::vector<JobId>& settled);
  /// Lock held: publishes a terminal outcome in the job's record; a no-op
  /// when the record was forgotten. A kDone outcome starts charging the
  /// record's cost to its tenant's unfetched scenarios.
  void settle_locked(JobId id, JobState state, std::string error,
                     JobResult result);
  /// Lock held: erases a record, releasing what a kDone one charged.
  void erase_record_locked(std::unordered_map<JobId, JobRecord>::iterator it);
  /// Lock NOT held: wakes settled_cv_ waiters and fires the completion hook
  /// for each id in `settled`, then clears it.
  void notify_settled(std::vector<JobId>& settled);
  /// Lock held: find-or-create the tenant record.
  Tenant& tenant_locked(const std::string& id);

  ServiceOptions options_;
  /// Built once in the constructor, then only read (TableStore does its own
  /// locking) — safe to hand to tenant caches without mu_.
  std::shared_ptr<solver::TableStore> shared_store_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  ///< workers wait for jobs/stop here
  /// Notified on every settlement and every forget: waiting fetches,
  /// drain() and shutdown() wait here.
  std::condition_variable settled_cv_;

  std::unique_ptr<QueuePolicy> queue_;  // guarded by mu_
  // unordered_map: node stability lets execute() hold a Tenant& with mu_
  // released (the tenant's cache does its own locking).
  std::unordered_map<std::string, Tenant> tenants_;  // guarded by mu_
  std::unordered_map<JobId, JobRecord> jobs_;        // guarded by mu_
  std::function<void(JobId)> completion_hook_;       // guarded by mu_

  std::size_t queued_total_ = 0;    // guarded by mu_
  std::size_t inflight_total_ = 0;  // guarded by mu_
  JobId next_job_id_ = 1;           // guarded by mu_
  std::uint64_t completions_ = 0;   // guarded by mu_
  bool accepting_ = true;           // guarded by mu_
  bool stop_workers_ = false;       // guarded by mu_

  std::mutex lifecycle_mu_;  ///< serializes shutdown(); taken before mu_
  bool joined_ = false;      // guarded by lifecycle_mu_

  std::vector<std::thread> workers_;
};

}  // namespace nowsched::service
