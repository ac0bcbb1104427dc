// Pluggable queueing disciplines for service::SchedulerService.
//
// The service owns admission and execution; WHICH accepted job runs next is
// delegated to a QueuePolicy. Two disciplines ship (mirroring the
// sched_fifo / sched_fffs class split of the pnnl/mcl scheduler daemon):
//
//   * kFifo — global admission order, tenant-blind. Simple and
//     latency-fair per job, but a tenant that floods the queue starves the
//     others in proportion to its submission rate.
//   * kDeficitRoundRobin — fair share ACROSS tenants. Classic DRR: active
//     tenants sit in a rotation; each visit banks `quantum` cost units of
//     deficit, and a tenant's head job runs once its deficit covers the
//     job's cost (cost = scenario count). Within a tenant, jobs stay FIFO.
//     Equal long-run service rates for backlogged tenants regardless of how
//     unequal their offered loads are — the property E15 measures as Jain's
//     fairness index.
//
// Policies are NOT thread-safe: the service calls them under its own mutex.
// They are deliberately pure data structures (push/pop/remove/size, no
// clocks, no callbacks), which is what makes the per-policy scheduling-order
// tests deterministic single-threaded affairs.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>

#include "service/job.h"

namespace nowsched::service {

enum class QueueKind {
  kFifo,
  kDeficitRoundRobin,
};

const char* to_string(QueueKind kind);

/// Parses a queue-class flag value: "fifo", "drr" (alias "fair-share").
/// Throws std::invalid_argument on anything else.
QueueKind queue_kind_from_string(const std::string& name);

class QueuePolicy {
 public:
  virtual ~QueuePolicy() = default;

  virtual const char* name() const noexcept = 0;

  virtual void push(QueuedJob job) = 0;

  /// Removes and returns the next job to run. Throws std::logic_error when
  /// empty — popping an empty queue is a caller bug (the service checks
  /// size() under the same lock), not a wait condition.
  virtual QueuedJob pop() = 0;

  /// Takes job `id` out of the queue without running it (a cancel): the
  /// jobs that remain keep their order, and the removed job is charged to
  /// no one. nullopt when `id` is not queued. A linear scan: the service
  /// bounds the queue by ServiceOptions::max_queued_jobs_total.
  virtual std::optional<QueuedJob> remove(JobId id) = 0;

  virtual std::size_t size() const noexcept = 0;
  bool empty() const noexcept { return size() == 0; }
};

/// `quantum` is the DRR per-visit deficit grant in cost units (clamped
/// below at 1); kFifo ignores it.
std::unique_ptr<QueuePolicy> make_queue_policy(QueueKind kind,
                                               std::size_t quantum = 64);

}  // namespace nowsched::service
