#include "service/scheduler_service.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <utility>

namespace nowsched::service {

namespace {

double ms_since(std::chrono::steady_clock::time_point start) {
  const auto elapsed = std::chrono::steady_clock::now() - start;
  return std::chrono::duration<double, std::milli>(elapsed).count();
}

constexpr const char* kCancelledMessage =
    "SchedulerService: job cancelled before execution";
constexpr const char* kShutdownMessage =
    "SchedulerService: job cancelled by shutdown";

bool is_terminal(JobState state) {
  return state == JobState::kDone || state == JobState::kFailed ||
         state == JobState::kCancelled;
}

constexpr SubmitStatus kAllSubmitStatuses[] = {
    SubmitStatus::kAccepted,        SubmitStatus::kQueueFullTenant,
    SubmitStatus::kQueueFullGlobal, SubmitStatus::kThrottled,
    SubmitStatus::kInvalidScenario, SubmitStatus::kShuttingDown,
};

constexpr JobState kAllJobStates[] = {
    JobState::kUnknown, JobState::kQueued,    JobState::kRunning,
    JobState::kDone,    JobState::kFailed,    JobState::kCancelled,
};

}  // namespace

const char* to_string(SubmitStatus status) {
  switch (status) {
    case SubmitStatus::kAccepted: return "accepted";
    case SubmitStatus::kQueueFullTenant: return "queue-full-tenant";
    case SubmitStatus::kQueueFullGlobal: return "queue-full-global";
    case SubmitStatus::kThrottled: return "throttled";
    case SubmitStatus::kInvalidScenario: return "invalid-scenario";
    case SubmitStatus::kShuttingDown: return "shutting-down";
  }
  return "?";
}

std::optional<SubmitStatus> submit_status_from_wire(int code) noexcept {
  for (SubmitStatus status : kAllSubmitStatuses) {
    if (code == wire_code(status)) return status;
  }
  return std::nullopt;
}

const char* to_string(JobState state) {
  switch (state) {
    case JobState::kUnknown: return "unknown";
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
  }
  return "?";
}

std::optional<JobState> job_state_from_wire(int code) noexcept {
  for (JobState state : kAllJobStates) {
    if (code == wire_code(state)) return state;
  }
  return std::nullopt;
}

bool is_backpressure(SubmitStatus status) noexcept {
  return status == SubmitStatus::kQueueFullTenant ||
         status == SubmitStatus::kQueueFullGlobal ||
         status == SubmitStatus::kThrottled;
}

SchedulerService::SchedulerService(ServiceOptions options)
    : options_(options),
      queue_(make_queue_policy(options_.queue, options_.drr_quantum)) {
  options_.tenant_cache_shards = std::max<std::size_t>(1, options_.tenant_cache_shards);
  if (!options_.shared_store_dir.empty()) {
    // Throws on a misconfigured directory — a deployment bug the operator
    // must see at startup, not a per-job failure.
    shared_store_ = std::make_shared<solver::MappedTableStore>(
        solver::MappedTableStore::Options{options_.shared_store_dir,
                                          options_.shared_store_readonly});
  }
  workers_.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

SchedulerService::~SchedulerService() { shutdown(StopMode::kCancelQueued); }

SchedulerService::Tenant& SchedulerService::tenant_locked(const std::string& id) {
  auto [it, inserted] =
      tenants_.try_emplace(id, options_.default_tenant_quota_bytes,
                           options_.tenant_cache_shards, shared_store_);
  return it->second;
}

TicketSubmission SchedulerService::submit_job(const std::string& tenant,
                                              std::vector<sim::ScenarioSpec> specs) {
  if (tenant.empty()) {
    throw std::invalid_argument("SchedulerService::submit_job: empty tenant id");
  }

  // Validate outside the lock (validation walks every spec); the verdict is
  // applied under the lock in the fixed rejection order below.
  std::string invalid_reason;
  bool invalid = false;
  if (specs.empty()) {
    invalid = true;
    invalid_reason = "empty scenario batch";
  } else {
    try {
      sim::validate_batch_specs(specs);
    } catch (const std::invalid_argument& e) {
      invalid = true;
      invalid_reason = e.what();
    }
  }
  const std::size_t cost = specs.size();

  TicketSubmission out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Tenant& tenant_state = tenant_locked(tenant);
    TenantStats& t = tenant_state.books;
    ++t.submitted_jobs;

    // Fixed rejection order: shutdown > invalid > global full > tenant full
    // > throttled — so a rejection reason is deterministic even when several
    // limits are exceeded at once.
    if (!accepting_) {
      ++t.rejected_shutdown;
      out.status = SubmitStatus::kShuttingDown;
      out.reason = "service is shutting down";
      return out;
    }
    if (invalid) {
      ++t.rejected_invalid;
      out.status = SubmitStatus::kInvalidScenario;
      out.reason = invalid_reason;
      return out;
    }
    if (queued_total_ >= options_.max_queued_jobs_total) {
      ++t.rejected_global_full;
      out.status = SubmitStatus::kQueueFullGlobal;
      out.reason = "global queue depth limit reached (" +
                   std::to_string(options_.max_queued_jobs_total) + " jobs)";
      return out;
    }
    if (t.queued_jobs >= options_.max_queued_jobs_per_tenant) {
      ++t.rejected_tenant_full;
      out.status = SubmitStatus::kQueueFullTenant;
      out.reason = "tenant queue depth limit reached (" +
                   std::to_string(options_.max_queued_jobs_per_tenant) + " jobs)";
      return out;
    }
    // Completed results nobody has fetched yet hold memory too, so they
    // share the budget with the queued and running scenarios.
    const std::size_t unfetched = tenant_state.unfetched_scenarios;
    if (t.pending_scenarios + unfetched + cost >
        options_.max_pending_scenarios_per_tenant) {
      ++t.rejected_throttled;
      out.status = SubmitStatus::kThrottled;
      out.reason = "tenant pending-scenario budget exceeded (" +
                   std::to_string(t.pending_scenarios) + " pending + " +
                   std::to_string(unfetched) + " unfetched + " +
                   std::to_string(cost) + " > " +
                   std::to_string(options_.max_pending_scenarios_per_tenant) + ")";
      return out;
    }

    QueuedJob job;
    job.id = next_job_id_++;
    job.tenant = tenant;
    job.cost = cost;
    job.specs = std::move(specs);
    job.submitted_at = std::chrono::steady_clock::now();
    out.status = SubmitStatus::kAccepted;
    out.ticket.id = job.id;
    out.ticket.tenant = tenant;

    // The record MUST land under the same critical section that enqueues
    // the job: a record is kQueued exactly while its job is in the queue.
    JobRecord& record = jobs_[job.id];
    record.tenant = &tenant_state;
    record.cost = cost;

    ++t.accepted_jobs;
    t.submitted_scenarios += cost;
    ++t.queued_jobs;
    t.pending_scenarios += cost;
    ++queued_total_;
    queue_->push(std::move(job));
  }
  work_cv_.notify_one();
  return out;
}

JobState SchedulerService::job_state(JobId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  return it == jobs_.end() ? JobState::kUnknown : it->second.state;
}

FetchOutcome SchedulerService::fetch_result(JobId id, bool wait) {
  std::unique_lock<std::mutex> lock(mu_);
  if (wait) {
    settled_cv_.wait(lock, [this, id] {
      const auto it = jobs_.find(id);
      return it == jobs_.end() || is_terminal(it->second.state);
    });
  }
  FetchOutcome out;
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return out;  // kUnknown
  JobRecord& record = it->second;
  out.state = record.state;
  if (is_terminal(record.state)) {
    // Exactly-once: the record is gone before the lock drops, so a second
    // fetch (or a concurrent one) sees kUnknown.
    out.error = std::move(record.error);
    out.result = std::move(record.result);
    erase_record_locked(it);
  }
  return out;
}

bool SchedulerService::cancel(JobId id) {
  std::vector<JobId> settled;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end() || it->second.state != JobState::kQueued) return false;
    cancel_locked(*queue_->remove(id), kCancelledMessage, settled);
  }
  notify_settled(settled);
  return true;
}

bool SchedulerService::forget(JobId id) {
  std::vector<JobId> settled;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) return false;
    const bool queued = it->second.state == JobState::kQueued;
    // A running job still settles its counters in execute(); settle_locked
    // finds no record to publish into.
    erase_record_locked(it);
    // Never run work nobody will read.
    if (queued) cancel_locked(*queue_->remove(id), kCancelledMessage, settled);
  }
  settled_cv_.notify_all();  // a waiting fetch reads kUnknown now
  notify_settled(settled);
  return true;
}

void SchedulerService::set_completion_hook(std::function<void(JobId)> hook) {
  std::lock_guard<std::mutex> lock(mu_);
  completion_hook_ = std::move(hook);
}

void SchedulerService::set_tenant_quota(const std::string& tenant,
                                        std::size_t bytes) {
  if (tenant.empty()) {
    throw std::invalid_argument("SchedulerService::set_tenant_quota: empty tenant id");
  }
  solver::SolveCache* cache = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Tenant& t = tenant_locked(tenant);
    t.books.quota_bytes = bytes;
    cache = &t.cache;
  }
  // Resize outside mu_: eviction takes the cache's shard locks, and there is
  // no need to stall submit/stats while tables are dropped.
  cache->set_max_bytes(bytes);
}

SchedulerService::Tenant& SchedulerService::start_next_locked(QueuedJob& job) {
  job = queue_->pop();
  Tenant& t = tenants_.find(job.tenant)->second;
  --queued_total_;
  --t.books.queued_jobs;
  ++inflight_total_;
  ++t.books.inflight_jobs;
  jobs_.find(job.id)->second.state = JobState::kRunning;
  return t;
}

void SchedulerService::cancel_locked(const QueuedJob& job, const char* message,
                                     std::vector<JobId>& settled) {
  // Keeps the conservation law
  // accepted == completed + failed + cancelled + queued + inflight.
  TenantStats& t = tenants_.find(job.tenant)->second.books;
  --queued_total_;
  --t.queued_jobs;
  t.pending_scenarios -= job.cost;
  ++t.cancelled_jobs;
  settle_locked(job.id, JobState::kCancelled, message, JobResult{});
  settled.push_back(job.id);
}

void SchedulerService::settle_locked(JobId id, JobState state, std::string error,
                                     JobResult result) {
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return;  // forgotten: the outcome has no reader
  JobRecord& record = it->second;
  record.state = state;
  record.error = std::move(error);
  record.result = std::move(result);
  if (state == JobState::kDone) record.tenant->unfetched_scenarios += record.cost;
}

void SchedulerService::erase_record_locked(
    std::unordered_map<JobId, JobRecord>::iterator it) {
  const JobRecord& record = it->second;
  if (record.state == JobState::kDone) record.tenant->unfetched_scenarios -= record.cost;
  jobs_.erase(it);
}

void SchedulerService::notify_settled(std::vector<JobId>& settled) {
  if (settled.empty()) return;
  std::function<void(JobId)> hook;
  {
    std::lock_guard<std::mutex> lock(mu_);
    hook = completion_hook_;
  }
  settled_cv_.notify_all();
  // The hook runs after the outcome is published: a waiter it wakes never
  // blocks in fetch_result.
  if (hook) {
    for (const JobId id : settled) hook(id);
  }
  settled.clear();
}

void SchedulerService::worker_loop() {
  // Reserved at thread start on purpose: a thread's first allocation
  // attaches it to a glibc malloc arena, and attaching each worker before
  // the serve thread's set-up allocates lets a process that runs services
  // back to back reuse the last service's freed table pages. Without it
  // perfbench's warm_mix set-up took more minor page faults (see ROADMAP,
  // "malloc arena").
  std::vector<JobId> settled;
  settled.reserve(64);
  for (;;) {
    QueuedJob job;
    Tenant* tenant = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stop_workers_ || !queue_->empty(); });
      if (queue_->empty()) return;  // stop_workers_ and nothing left to run
      tenant = &start_next_locked(job);
    }
    execute(std::move(job), *tenant, settled);
  }
}

bool SchedulerService::run_next() {
  if (options_.workers != 0) {
    throw std::logic_error(
        "SchedulerService::run_next: service owns worker threads "
        "(manual pumping requires ServiceOptions::workers == 0)");
  }
  QueuedJob job;
  Tenant* tenant = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_->empty()) return false;
    tenant = &start_next_locked(job);
  }
  std::vector<JobId> settled;
  execute(std::move(job), *tenant, settled);
  return true;
}

void SchedulerService::execute(QueuedJob job, Tenant& tenant,
                               std::vector<JobId>& settled) {
  JobResult result;
  result.tenant = job.tenant;
  result.job_id = job.id;
  bool failed = false;
  std::string error;
  try {
    sim::BatchOptions batch_options;
    batch_options.pool = nullptr;  // parallelism comes from service workers
    batch_options.shared_cache = &tenant.cache;
    sim::BatchRunner runner(batch_options);
    result.batch = runner.run(job.specs);
  } catch (const std::exception& e) {
    failed = true;
    error = e.what();
  } catch (...) {
    failed = true;
    error = "unknown error";
  }
  result.latency_ms = ms_since(job.submitted_at);

  {
    std::lock_guard<std::mutex> lock(mu_);
    TenantStats& t = tenant.books;
    --inflight_total_;
    --t.inflight_jobs;
    t.pending_scenarios -= job.cost;
    if (failed) {
      ++t.failed_jobs;
      settle_locked(job.id, JobState::kFailed, std::move(error), JobResult{});
    } else {
      ++t.completed_jobs;
      t.completed_scenarios += job.cost;
      result.completion_index = completions_++;
      tenant.latency.add(result.latency_ms);
      settle_locked(job.id, JobState::kDone, std::string{}, std::move(result));
    }
    settled.push_back(job.id);
  }
  notify_settled(settled);
}

void SchedulerService::drain() {
  if (options_.workers == 0) {
    while (run_next()) {
    }
    return;
  }
  std::unique_lock<std::mutex> lock(mu_);
  settled_cv_.wait(lock, [this] { return queue_->empty() && inflight_total_ == 0; });
}

void SchedulerService::shutdown(StopMode mode) {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);

  std::vector<JobId> settled;
  {
    std::lock_guard<std::mutex> lock(mu_);
    accepting_ = false;
    if (mode == StopMode::kCancelQueued) {
      while (!queue_->empty()) cancel_locked(queue_->pop(), kShutdownMessage, settled);
    }
  }
  notify_settled(settled);

  if (options_.workers == 0) {
    if (mode == StopMode::kDrain) {
      while (run_next()) {
      }
    }
    joined_ = true;
    return;
  }

  {
    // kDrain: workers keep consuming until the queue is dry; kCancelQueued
    // already emptied it. Either way, wait for in-flight work to land.
    std::unique_lock<std::mutex> lock(mu_);
    settled_cv_.wait(lock, [this] { return queue_->empty() && inflight_total_ == 0; });
    stop_workers_ = true;
  }
  work_cv_.notify_all();
  if (!joined_) {
    for (std::thread& worker : workers_) worker.join();
    workers_.clear();
    joined_ = true;
  }
}

ServiceStats SchedulerService::stats() const {
  ServiceStats out;
  std::vector<double> pooled;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.queue_policy = queue_->name();
    out.workers = options_.workers;
    out.queued_jobs = queued_total_;
    out.inflight_jobs = inflight_total_;
    out.tenants.reserve(tenants_.size());
    for (const auto& [id, t] : tenants_) {
      TenantStats ts = t.books;
      ts.tenant = id;
      // Lock order mu_ -> cache shard mutexes. No cache path takes mu_
      // (execute() runs its batch outside it), so it is never inverted.
      ts.cache = t.cache.stats();
      const std::vector<double> samples = t.latency.samples();
      ts.latency = summarize_latency(samples);
      pooled.insert(pooled.end(), samples.begin(), samples.end());

      out.submitted_jobs += ts.submitted_jobs;
      out.accepted_jobs += ts.accepted_jobs;
      out.rejected_jobs += ts.rejected_total();
      out.completed_jobs += ts.completed_jobs;
      out.failed_jobs += ts.failed_jobs;
      out.cancelled_jobs += ts.cancelled_jobs;
      out.completed_scenarios += ts.completed_scenarios;
      out.tenants.push_back(std::move(ts));
    }
  }
  out.latency = summarize_latency(pooled);
  std::sort(out.tenants.begin(), out.tenants.end(),
            [](const TenantStats& a, const TenantStats& b) {
              return a.tenant < b.tenant;
            });
  return out;
}

}  // namespace nowsched::service
