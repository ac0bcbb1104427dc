#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>

namespace nowsched::util {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::enqueue(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tasks_.push(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

namespace {

/// Stack-allocated completion latch for blocking dispatch calls. The "done"
/// transition is made and notified *under the mutex*: the waiter can only
/// observe it while holding the same mutex, so it cannot return (and destroy
/// this object) while the last worker is still inside count_down() — the
/// decrement-then-lock race a bare atomic predicate would have.
class CompletionLatch {
 public:
  explicit CompletionLatch(std::size_t count) : remaining_(count) {}

  /// Called once per task; the call that retires the last task flips done.
  void count_down() {
    if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(mutex_);
      done_ = true;
      done_cv_.notify_one();
    }
  }

  /// Blocks until all `count` tasks have counted down. `count` must be > 0.
  void wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [this] { return done_; });
  }

 private:
  std::atomic<std::size_t> remaining_;
  std::mutex mutex_;
  std::condition_variable done_cv_;
  bool done_ = false;
};

}  // namespace

void ThreadPool::parallel_for_chunks(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& fn, std::size_t grain) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const std::size_t min_chunk = std::max<std::size_t>(grain, 1);
  if (size() <= 1 || n < 2 * min_chunk) {
    fn(begin, end);
    return;
  }
  const std::size_t target_chunks = std::min(n / min_chunk, 4 * size());
  const std::size_t chunk = (n + target_chunks - 1) / target_chunks;

  std::size_t chunks = 0;
  for (std::size_t lo = begin; lo < end; lo += chunk) ++chunks;

  struct State {
    explicit State(std::size_t count) : latch(count) {}
    CompletionLatch latch;
    std::exception_ptr error;
    std::mutex error_mutex;
  } state(chunks);

  for (std::size_t lo = begin; lo < end; lo += chunk) {
    const std::size_t hi = std::min(end, lo + chunk);
    enqueue([&state, &fn, lo, hi] {
      try {
        fn(lo, hi);
      } catch (...) {
        std::lock_guard<std::mutex> lock(state.error_mutex);
        if (!state.error) state.error = std::current_exception();
      }
      state.latch.count_down();
    });
  }
  state.latch.wait();
  if (state.error) std::rethrow_exception(state.error);
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn,
                              std::size_t grain) {
  parallel_for_chunks(
      begin, end,
      [&fn](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) fn(i);
      },
      grain);
}

}  // namespace nowsched::util
