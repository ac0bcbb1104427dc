// Data-parallel task pool. The paper assumes "tasks are indivisible; task
// times may vary but are known perfectly" (§2.1); a period of length t holds
// a batch of tasks with total duration <= t ⊖ c. Unused capacity is internal
// fragmentation — a real-world cost the analytic model abstracts away, which
// the simulator measures (bench_sim_perf, examples/render_farm).
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "core/types.h"
#include "util/rng.h"

namespace nowsched::sim {

struct Task {
  std::uint64_t id = 0;
  Ticks duration = 1;
};

class TaskBag {
 public:
  explicit TaskBag(std::vector<Task> tasks);

  /// `count` tasks all of the same duration.
  static TaskBag uniform(std::size_t count, Ticks duration);

  /// `count` tasks with durations uniform in [min_duration, max_duration].
  static TaskBag random(std::size_t count, Ticks min_duration, Ticks max_duration,
                        util::Rng& rng);

  /// Greedy FIFO packing: removes and returns the longest prefix of pending
  /// tasks whose total duration fits in `capacity`.
  std::vector<Task> take_batch(Ticks capacity);

  /// Puts a killed batch back at the FRONT (it retries first — the work is
  /// not lost from the job, only the cycles spent on it).
  void return_batch(const std::vector<Task>& batch);

  /// Credits a finished batch.
  void mark_completed(const std::vector<Task>& batch);

  std::size_t pending() const noexcept { return pending_.size(); }
  Ticks pending_work() const noexcept { return pending_work_; }
  /// The bag's own count of finished tasks and work: the oracle the session
  /// and farm tests check SessionMetrics' task counters against.
  std::size_t completed() const noexcept { return completed_count_; }
  Ticks completed_work() const noexcept { return completed_work_; }
  bool done() const noexcept { return pending_.empty(); }

  static Ticks batch_work(const std::vector<Task>& batch) noexcept;

 private:
  std::deque<Task> pending_;
  Ticks pending_work_ = 0;
  std::size_t completed_count_ = 0;
  Ticks completed_work_ = 0;
};

}  // namespace nowsched::sim
