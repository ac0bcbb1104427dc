// Fixed-size thread pool with a blocking parallel_for.
//
// parallel_for / parallel_for_chunks are level-synchronous: all iterations
// of one dispatch are independent and the call is a full barrier. Right for
// the policy-evaluation DP, whose states within a level are independent,
// and for BatchRunner's whole-session tasks. Callers own their pools; there
// is no process-wide one.
//
// Thread-safety contract: a ThreadPool object may be driven from one
// submitting thread at a time (parallel_for* are blocking calls and are not
// reentrant — do not call them from inside a task running on the same
// pool). Worker threads only ever touch the tasks handed to them.
// Happens-before: the task queue hands tasks over under a mutex, and
// everything any task wrote is visible to the submitting thread when the
// blocking call returns.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace nowsched::util {

class ThreadPool {
 public:
  /// threads == 0 selects std::thread::hardware_concurrency() (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  /// Run fn(i) for i in [begin, end), split into ~4x-oversubscribed chunks,
  /// blocking until all complete. Exceptions from fn propagate (first one
  /// wins). Serial fallback when the range is smaller than two grains or
  /// the pool has 1 thread.
  ///
  /// `grain` is the minimum indices per dispatched chunk — the knob that
  /// matches dispatch overhead to body weight. The default (64) suits
  /// cheap table-index bodies like the DP loops; pass 1 for heavy bodies
  /// (e.g. BatchRunner's whole-session tasks, ms-scale each), where a
  /// 64-wide grain would leave small ranges entirely serial and large ones
  /// load-imbalanced.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn,
                    std::size_t grain = 64);

  /// Run fn(chunk_begin, chunk_end) over contiguous chunks; lower dispatch
  /// overhead for very cheap per-index bodies. Same `grain` semantics as
  /// parallel_for.
  void parallel_for_chunks(std::size_t begin, std::size_t end,
                           const std::function<void(std::size_t, std::size_t)>& fn,
                           std::size_t grain = 64);

 private:
  void enqueue(std::function<void()> task);
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace nowsched::util
