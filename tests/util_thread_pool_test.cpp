#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace nowsched::util {
namespace {

TEST(ThreadPool, SizeDefaultsToHardwareConcurrency) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, hits.size(), [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyAndSingletonRanges) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.parallel_for(5, 5, [&](std::size_t) { calls++; });
  EXPECT_EQ(calls.load(), 0);
  pool.parallel_for(5, 6, [&](std::size_t i) {
    EXPECT_EQ(i, 5u);
    calls++;
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ThreadPool, ChunkVariantSumsCorrectly) {
  ThreadPool pool(8);
  const std::size_t n = 100000;
  std::atomic<long long> total{0};
  pool.parallel_for_chunks(1, n + 1, [&](std::size_t lo, std::size_t hi) {
    long long local = 0;
    for (std::size_t i = lo; i < hi; ++i) local += static_cast<long long>(i);
    total.fetch_add(local, std::memory_order_relaxed);
  });
  EXPECT_EQ(total.load(), static_cast<long long>(n) * (n + 1) / 2);
}

TEST(ThreadPool, ChunksAreDisjointAndOrderedWithin) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(4096);
  pool.parallel_for_chunks(0, hits.size(), [&](std::size_t lo, std::size_t hi) {
    ASSERT_LE(lo, hi);
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(0, 1000,
                        [&](std::size_t i) {
                          if (i == 357) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, PoolSurvivesExceptionAndRunsAgain) {
  ThreadPool pool(4);
  try {
    pool.parallel_for(0, 500, [&](std::size_t) { throw std::runtime_error("x"); });
  } catch (const std::runtime_error&) {
  }
  std::atomic<int> count{0};
  pool.parallel_for(0, 500, [&](std::size_t) { count++; });
  EXPECT_EQ(count.load(), 500);
}

TEST(ThreadPool, SingleThreadPoolRunsSerially) {
  ThreadPool pool(1);
  std::vector<int> order;
  pool.parallel_for(0, 100, [&](std::size_t i) { order.push_back(static_cast<int>(i)); });
  ASSERT_EQ(order.size(), 100u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

TEST(ThreadPool, GlobalPoolIsSingleton) {
  ThreadPool& a = global_pool();
  ThreadPool& b = global_pool();
  EXPECT_EQ(&a, &b);
}

TEST(ThreadPool, ManySmallDispatchesComplete) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.parallel_for(0, 64, [&](std::size_t) { total++; });
  }
  EXPECT_EQ(total.load(), 50 * 64);
}

TEST(ThreadPool, RangeBelowTwoGrainsRunsInlineOnTheCaller) {
  // The serial fallback runs the whole range on the submitting thread, in
  // order, without touching the workers.
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  bool all_inline = true;
  pool.parallel_for(
      10, 17,
      [&](std::size_t i) {
        all_inline = all_inline && std::this_thread::get_id() == caller;
        order.push_back(i);
      },
      /*grain=*/4);
  EXPECT_TRUE(all_inline);
  EXPECT_EQ(order, (std::vector<std::size_t>{10, 11, 12, 13, 14, 15, 16}));
}

TEST(ThreadPool, ChunksRespectGrainAndOversubscriptionCap) {
  // Every chunk but the last holds at least `grain` indices, and a dispatch
  // never makes more than 4 chunks per thread.
  for (const std::size_t grain : {std::size_t{1}, std::size_t{7}, std::size_t{64}}) {
    ThreadPool pool(3);
    std::mutex mu;
    std::vector<std::pair<std::size_t, std::size_t>> chunks;
    pool.parallel_for_chunks(
        0, 1000,
        [&](std::size_t lo, std::size_t hi) {
          std::lock_guard<std::mutex> lock(mu);
          chunks.emplace_back(lo, hi);
        },
        grain);
    std::sort(chunks.begin(), chunks.end());
    ASSERT_FALSE(chunks.empty());
    EXPECT_LE(chunks.size(), 4 * pool.size()) << "grain " << grain;
    EXPECT_EQ(chunks.front().first, 0u);
    EXPECT_EQ(chunks.back().second, 1000u);
    for (std::size_t k = 0; k + 1 < chunks.size(); ++k) {
      EXPECT_EQ(chunks[k].second, chunks[k + 1].first) << "grain " << grain;
      EXPECT_GE(chunks[k].second - chunks[k].first, grain) << "grain " << grain;
    }
  }
}

// ---- NOWSCHED_THREADS parsing ---------------------------------------------

TEST(ThreadsFromEnv, UnsetMeansHardwareDefault) {
  std::string warning = "sentinel";
  EXPECT_EQ(threads_from_env_value(nullptr, &warning), 0u);
  EXPECT_TRUE(warning.empty());
}

TEST(ThreadsFromEnv, ValidPositiveInteger) {
  std::string warning;
  EXPECT_EQ(threads_from_env_value("4", &warning), 4u);
  EXPECT_TRUE(warning.empty());
  EXPECT_EQ(threads_from_env_value("1", &warning), 1u);
  EXPECT_TRUE(warning.empty());
}

TEST(ThreadsFromEnv, RejectsTrailingGarbage) {
  // The old atol parser read "4abc" as 4; full-string validation must not.
  std::string warning;
  EXPECT_EQ(threads_from_env_value("4abc", &warning), 0u);
  EXPECT_FALSE(warning.empty());
  EXPECT_NE(warning.find("4abc"), std::string::npos);
}

TEST(ThreadsFromEnv, RejectsNonPositiveEmptyAndOverflow) {
  std::string warning;
  EXPECT_EQ(threads_from_env_value("-1", &warning), 0u);
  EXPECT_FALSE(warning.empty());
  EXPECT_EQ(threads_from_env_value("0", &warning), 0u);
  EXPECT_FALSE(warning.empty());
  EXPECT_EQ(threads_from_env_value("", &warning), 0u);
  EXPECT_FALSE(warning.empty());
  EXPECT_EQ(threads_from_env_value("99999999999999999999", &warning), 0u);
  EXPECT_FALSE(warning.empty());
  EXPECT_EQ(threads_from_env_value("two", &warning), 0u);
  EXPECT_FALSE(warning.empty());
}

}  // namespace
}  // namespace nowsched::util
