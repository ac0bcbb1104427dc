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

SubmitStatus submit_status_from_string(const std::string& name) {
  for (SubmitStatus status : kAllSubmitStatuses) {
    if (name == to_string(status)) return status;
  }
  throw std::invalid_argument("unknown submit status: '" + name + "'");
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

JobState job_state_from_string(const std::string& name) {
  for (JobState state : kAllJobStates) {
    if (name == to_string(state)) return state;
  }
  throw std::invalid_argument("unknown job state: '" + name + "'");
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
  options_.latency_window = std::max<std::size_t>(1, options_.latency_window);
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
                           options_.tenant_cache_shards, options_.latency_window,
                           shared_store_);
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
    Tenant& t = tenant_locked(tenant);
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
    if (t.pending_scenarios + cost > options_.max_pending_scenarios_per_tenant) {
      ++t.rejected_throttled;
      out.status = SubmitStatus::kThrottled;
      out.reason = "tenant pending-scenario budget exceeded (" +
                   std::to_string(t.pending_scenarios) + " pending + " +
                   std::to_string(cost) + " > " +
                   std::to_string(options_.max_pending_scenarios_per_tenant) + ")";
      return out;
    }

    QueuedJob job;
    job.seq = next_seq_++;
    job.id = next_job_id_++;
    job.tenant = tenant;
    job.cost = cost;
    job.specs = std::move(specs);
    job.submitted_at = std::chrono::steady_clock::now();
    out.status = SubmitStatus::kAccepted;
    out.ticket.id = job.id;
    out.ticket.tenant = tenant;

    // The record MUST land under the same critical section that enqueues
    // the job: a worker popping it transitions the record it FINDS, so a
    // late insert would shadow kRunning/kDone forever.
    JobRecord record;
    record.future = job.promise.get_future().share();
    jobs_.emplace(job.id, std::move(record));

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
  if (it == jobs_.end()) return JobState::kUnknown;
  // A cancel that has not been settled by the pop path yet is already
  // decided: report it as cancelled so poll loops converge immediately.
  if (it->second.cancel_requested && it->second.state == JobState::kQueued) {
    return JobState::kCancelled;
  }
  return it->second.state;
}

FetchOutcome SchedulerService::fetch_result(JobId id, bool wait) {
  for (;;) {
    std::shared_future<JobResult> future;
    JobState state = JobState::kUnknown;
    {
      std::lock_guard<std::mutex> lock(mu_);
      const auto it = jobs_.find(id);
      if (it == jobs_.end()) {
        FetchOutcome out;
        out.state = JobState::kUnknown;
        return out;
      }
      JobRecord& record = it->second;
      state = record.state;
      if (record.cancel_requested && state == JobState::kQueued) {
        // Already consumed (a prior fetch or a forget()) but the pop path
        // has not erased the record yet: exactly-once means any further
        // fetch observes kUnknown, same as after the erase.
        if (record.fetched) {
          FetchOutcome out;
          out.state = JobState::kUnknown;
          return out;
        }
        // Decided but not yet settled by the pop path. Mark it fetched so
        // settlement erases the record — this IS the one fetch.
        record.fetched = true;
        FetchOutcome out;
        out.state = JobState::kCancelled;
        out.error = kCancelledMessage;
        return out;
      }
      const bool terminal = state == JobState::kDone ||
                            state == JobState::kFailed ||
                            state == JobState::kCancelled;
      if (terminal) {
        // Exactly-once: the record is gone before the lock drops, so a
        // second fetch (or a concurrent one) sees kUnknown.
        future = std::move(record.future);
        jobs_.erase(it);
      } else if (wait) {
        future = record.future;  // copy; the record stays for state polls
      } else {
        FetchOutcome out;
        out.state = state;
        return out;
      }
    }

    FetchOutcome out;
    out.state = state;
    if (state == JobState::kDone) {
      out.result = future.get();  // ready: state was terminal under mu_
      return out;
    }
    if (state == JobState::kFailed || state == JobState::kCancelled) {
      try {
        future.get();
        out.error = "unknown error";  // unreachable: terminal non-done holds one
      } catch (const std::exception& e) {
        out.error = e.what();
      } catch (...) {
        out.error = "unknown error";
      }
      return out;
    }
    // Pending and wait requested: block outside mu_ until the job resolves,
    // then loop — the next pass observes a terminal state and consumes it.
    future.wait();
  }
}

bool SchedulerService::cancel(JobId id) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return false;
  JobRecord& record = it->second;
  if (record.state != JobState::kQueued || record.cancel_requested) return false;
  // Lazy cancellation: QueuePolicy has no random-access erase, so the flag
  // is settled (counters, promise, record state) when the pop path next
  // encounters the job. Observers see kCancelled immediately (job_state /
  // fetch_result special-case the flag).
  record.cancel_requested = true;
  return true;
}

bool SchedulerService::forget(JobId id) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return false;
  JobRecord& record = it->second;
  switch (record.state) {
    case JobState::kQueued:
      // Never run work nobody will read; settlement erases the record.
      record.cancel_requested = true;
      record.fetched = true;
      return true;
    case JobState::kRunning:
      record.fetched = true;  // execute() erases on completion
      return true;
    default:
      jobs_.erase(it);
      return true;
  }
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
    t.quota_bytes = bytes;
    cache = &t.cache;
  }
  // Resize outside mu_: eviction takes the cache's stripe locks, and there is
  // no need to stall submit/stats while tables are dropped.
  cache->set_max_bytes(bytes);
}

bool SchedulerService::next_runnable_locked(QueuedJob& job, Tenant*& tenant,
                                            std::vector<QueuedJob>& cancelled) {
  while (!queue_->empty()) {
    QueuedJob next = queue_->pop();
    Tenant& t = tenants_.find(next.tenant)->second;
    --queued_total_;
    --t.queued_jobs;

    const auto it = jobs_.find(next.id);
    if (it != jobs_.end() && it->second.cancel_requested) {
      // Lazy cancel settlement: the job leaves the queue here, so this is
      // where its admission bookkeeping unwinds (keeping the conservation
      // law accepted == completed + failed + cancelled + queued + inflight).
      t.pending_scenarios -= next.cost;
      ++t.cancelled_jobs;
      it->second.state = JobState::kCancelled;
      if (it->second.fetched) jobs_.erase(it);
      cancelled.push_back(std::move(next));
      continue;
    }
    if (it != jobs_.end()) it->second.state = JobState::kRunning;
    ++inflight_total_;
    ++t.inflight_jobs;
    job = std::move(next);
    tenant = &t;
    return true;
  }
  return false;
}

void SchedulerService::settle_cancelled(std::vector<QueuedJob>& cancelled) {
  if (cancelled.empty()) return;
  std::function<void(JobId)> hook;
  {
    std::lock_guard<std::mutex> lock(mu_);
    hook = completion_hook_;
  }
  for (QueuedJob& job : cancelled) {
    job.promise.set_exception(
        std::make_exception_ptr(std::runtime_error(kCancelledMessage)));
    if (hook) hook(job.id);
  }
  idle_cv_.notify_all();  // drain() may be waiting on the queue running dry
  cancelled.clear();
}

void SchedulerService::worker_loop() {
  for (;;) {
    QueuedJob job;
    Tenant* tenant = nullptr;
    std::vector<QueuedJob> cancelled;
    bool runnable = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stop_workers_ || !queue_->empty(); });
      if (queue_->empty()) return;  // stop_workers_ and nothing left to run
      runnable = next_runnable_locked(job, tenant, cancelled);
    }
    settle_cancelled(cancelled);
    if (runnable) execute(std::move(job), *tenant);
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
  std::vector<QueuedJob> cancelled;
  bool runnable = false;
  bool popped_any = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_->empty()) return false;
    runnable = next_runnable_locked(job, tenant, cancelled);
    popped_any = runnable || !cancelled.empty();
  }
  settle_cancelled(cancelled);
  if (runnable) execute(std::move(job), *tenant);
  // True when any queue entry was consumed — a run OR a cancel settlement —
  // so `while (service.run_next()) {}` still pumps the queue dry.
  return popped_any;
}

void SchedulerService::execute(QueuedJob job, Tenant& tenant) {
  JobResult result;
  result.tenant = job.tenant;
  result.job_id = job.id;
  std::exception_ptr error;
  try {
    sim::BatchOptions batch_options;
    batch_options.pool = nullptr;  // parallelism comes from service workers
    batch_options.cache_enabled = true;
    batch_options.shared_cache = &tenant.cache;
    sim::BatchRunner runner(batch_options);
    result.batch = runner.run(job.specs);
  } catch (...) {
    error = std::current_exception();
  }
  result.latency_ms = ms_since(job.submitted_at);

  std::function<void(JobId)> hook;
  {
    std::lock_guard<std::mutex> lock(mu_);
    --inflight_total_;
    --tenant.inflight_jobs;
    tenant.pending_scenarios -= job.cost;
    if (error == nullptr) {
      ++tenant.completed_jobs;
      tenant.completed_scenarios += job.cost;
      result.completion_index = completions_++;
      tenant.latency.add(result.latency_ms);
    } else {
      ++tenant.failed_jobs;
    }
    const auto it = jobs_.find(job.id);
    if (it != jobs_.end()) {
      if (it->second.fetched) {
        // The ticket holder already walked away (forget / fetch of a
        // cancelled state cannot reach here, but forget-while-running does):
        // the terminal record has no reader, drop it now.
        jobs_.erase(it);
      } else {
        it->second.state = error == nullptr ? JobState::kDone : JobState::kFailed;
      }
    }
    hook = completion_hook_;
  }
  idle_cv_.notify_all();

  // Fulfill AFTER publishing the counters: a client whose future is ready is
  // guaranteed to observe its own completion in stats().
  if (error == nullptr) {
    job.promise.set_value(std::move(result));
  } else {
    job.promise.set_exception(std::move(error));
  }
  // Hook AFTER fulfillment: a waiter woken by the hook must find the future
  // ready (fetch_result never blocks after the hook fires for its id).
  if (hook) hook(job.id);
}

void SchedulerService::drain() {
  if (options_.workers == 0) {
    while (run_next()) {
    }
    return;
  }
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_->empty() && inflight_total_ == 0; });
}

void SchedulerService::shutdown(StopMode mode) {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);

  std::vector<QueuedJob> cancelled;
  std::function<void(JobId)> hook;
  {
    std::lock_guard<std::mutex> lock(mu_);
    accepting_ = false;
    if (mode == StopMode::kCancelQueued) {
      queue_->drain([&](QueuedJob&& job) {
        Tenant& t = tenants_.find(job.tenant)->second;
        --t.queued_jobs;
        t.pending_scenarios -= job.cost;
        ++t.cancelled_jobs;
        --queued_total_;
        const auto it = jobs_.find(job.id);
        if (it != jobs_.end()) {
          it->second.state = JobState::kCancelled;
          if (it->second.fetched) jobs_.erase(it);
        }
        cancelled.push_back(std::move(job));
      });
    }
    hook = completion_hook_;
  }
  for (QueuedJob& job : cancelled) {
    job.promise.set_exception(std::make_exception_ptr(
        std::runtime_error("SchedulerService: job cancelled by shutdown")));
    if (hook) hook(job.id);
  }

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
    idle_cv_.wait(lock, [this] { return queue_->empty() && inflight_total_ == 0; });
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
      TenantStats ts;
      ts.tenant = id;
      ts.quota_bytes = t.quota_bytes;
      ts.submitted_jobs = t.submitted_jobs;
      ts.accepted_jobs = t.accepted_jobs;
      ts.rejected_tenant_full = t.rejected_tenant_full;
      ts.rejected_global_full = t.rejected_global_full;
      ts.rejected_throttled = t.rejected_throttled;
      ts.rejected_invalid = t.rejected_invalid;
      ts.rejected_shutdown = t.rejected_shutdown;
      ts.completed_jobs = t.completed_jobs;
      ts.failed_jobs = t.failed_jobs;
      ts.cancelled_jobs = t.cancelled_jobs;
      ts.submitted_scenarios = t.submitted_scenarios;
      ts.completed_scenarios = t.completed_scenarios;
      ts.queued_jobs = t.queued_jobs;
      ts.inflight_jobs = t.inflight_jobs;
      ts.pending_scenarios = t.pending_scenarios;
      // Lock order mu_ -> cache stripes, same as execute(); never inverted.
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
