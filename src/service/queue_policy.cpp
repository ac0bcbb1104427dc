#include "service/queue_policy.h"

#include <algorithm>
#include <deque>
#include <map>
#include <stdexcept>
#include <utility>

namespace nowsched::service {

namespace {

// Erases job `id` from `jobs`, keeping the others' order.
std::optional<QueuedJob> take(std::deque<QueuedJob>& jobs, JobId id) {
  const auto it = std::find_if(jobs.begin(), jobs.end(),
                               [id](const QueuedJob& job) { return job.id == id; });
  if (it == jobs.end()) return std::nullopt;
  QueuedJob job = std::move(*it);
  jobs.erase(it);
  return job;
}

class FifoQueue final : public QueuePolicy {
 public:
  const char* name() const noexcept override { return "fifo"; }

  void push(QueuedJob job) override { jobs_.push_back(std::move(job)); }

  QueuedJob pop() override {
    if (jobs_.empty()) throw std::logic_error("FifoQueue::pop: queue is empty");
    QueuedJob job = std::move(jobs_.front());
    jobs_.pop_front();
    return job;
  }

  std::optional<QueuedJob> remove(JobId id) override { return take(jobs_, id); }

  std::size_t size() const noexcept override { return jobs_.size(); }

 private:
  std::deque<QueuedJob> jobs_;
};

// Classic deficit round robin (Shreedhar & Varghese) over tenants, one job
// per pop. A tenant activates at the BACK of the rotation when its queue
// goes non-empty, banks `quantum_` deficit per visit, and serves its head
// job once the deficit covers the job's cost; its deficit resets to zero
// when its queue drains, by a pop or a remove (an idle tenant must not hoard
// credit). A removed job is never charged to the deficit. The serving
// tenant stays at the front between pops, so "serve while the deficit
// suffices" holds across pop() calls exactly as in the packet formulation.
class DeficitRoundRobinQueue final : public QueuePolicy {
 public:
  explicit DeficitRoundRobinQueue(std::size_t quantum)
      : quantum_(std::max<std::size_t>(1, quantum)) {}

  const char* name() const noexcept override { return "drr"; }

  void push(QueuedJob job) override {
    auto [it, inserted] = tenants_.try_emplace(job.tenant);
    if (it->second.jobs.empty()) rotation_.push_back(it->first);
    it->second.jobs.push_back(std::move(job));
    ++size_;
  }

  QueuedJob pop() override {
    if (size_ == 0) {
      throw std::logic_error("DeficitRoundRobinQueue::pop: queue is empty");
    }
    // Terminates: every full rotation adds quantum_ >= 1 to each active
    // tenant's deficit, and some head job's cost is finite.
    for (;;) {
      TenantQueue& tq = tenants_.find(rotation_.front())->second;
      if (tq.deficit >= tq.jobs.front().cost) {
        QueuedJob job = std::move(tq.jobs.front());
        tq.jobs.pop_front();
        tq.deficit -= job.cost;
        --size_;
        if (tq.jobs.empty()) {
          tq.deficit = 0;
          rotation_.pop_front();
        }
        return job;
      }
      tq.deficit += quantum_;
      std::string visited = std::move(rotation_.front());
      rotation_.pop_front();
      rotation_.push_back(std::move(visited));
    }
  }

  std::optional<QueuedJob> remove(JobId id) override {
    for (auto& [tenant, tq] : tenants_) {
      std::optional<QueuedJob> job = take(tq.jobs, id);
      if (!job) continue;
      --size_;
      if (tq.jobs.empty()) {
        tq.deficit = 0;
        rotation_.erase(std::find(rotation_.begin(), rotation_.end(), tenant));
      }
      return job;
    }
    return std::nullopt;
  }

  std::size_t size() const noexcept override { return size_; }

 private:
  struct TenantQueue {
    std::deque<QueuedJob> jobs;
    std::size_t deficit = 0;
  };

  std::size_t quantum_;
  // std::map keeps iteration deterministic for debugging; the scheduling
  // order itself comes from rotation_, never from map order.
  std::map<std::string, TenantQueue> tenants_;
  std::deque<std::string> rotation_;  ///< active tenants, visit order
  std::size_t size_ = 0;
};

}  // namespace

const char* to_string(QueueKind kind) {
  switch (kind) {
    case QueueKind::kFifo: return "fifo";
    case QueueKind::kDeficitRoundRobin: return "drr";
  }
  return "?";
}

QueueKind queue_kind_from_string(const std::string& name) {
  if (name == "fifo") return QueueKind::kFifo;
  if (name == "drr" || name == "fair-share") return QueueKind::kDeficitRoundRobin;
  throw std::invalid_argument("unknown queue kind \"" + name +
                              "\" (expected fifo | drr | fair-share)");
}

std::unique_ptr<QueuePolicy> make_queue_policy(QueueKind kind, std::size_t quantum) {
  switch (kind) {
    case QueueKind::kFifo: return std::make_unique<FifoQueue>();
    case QueueKind::kDeficitRoundRobin:
      return std::make_unique<DeficitRoundRobinQueue>(quantum);
  }
  throw std::logic_error("make_queue_policy: unknown queue kind");
}

}  // namespace nowsched::service
