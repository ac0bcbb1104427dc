// solver::SolveCache — canonicalization, sharing, counters, eviction, error
// recovery, and the concurrent single-solve guarantee (run under TSan in CI).
#include "solver/solve_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <climits>
#include <cstddef>
#include <latch>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sim/batch_runner.h"
#include "solver/fast_solver.h"
#include "solver/table_store.h"
#include "temp_dir.h"
#include "util/thread_pool.h"

namespace nowsched::solver {
namespace {

TEST(CanonicalKey, ClampsAndRoundsUpToBlockMultiple) {
  const SolveKey k = canonical_key({3, 100, Params{16}});
  EXPECT_EQ(k.max_p, 3);
  EXPECT_EQ(k.c, 16);
  EXPECT_EQ(k.max_lifespan, 112);  // next multiple of 16

  EXPECT_EQ(canonical_key({3, 112, Params{16}}).max_lifespan, 112);  // exact stays
  EXPECT_EQ(canonical_key({-2, -5, Params{16}}).max_p, 0);
  EXPECT_EQ(canonical_key({-2, -5, Params{16}}).max_lifespan, 0);
  EXPECT_THROW(canonical_key({1, 10, Params{0}}), std::invalid_argument);
}

TEST(CanonicalKey, FoldsNearbyRequestsOntoOneKeyTransparently) {
  // Requests within one c-block share a key, and the bigger canonical table
  // answers every lookup of the smaller request bit-identically.
  const SolveRequest a{2, 97, Params{16}};
  const SolveRequest b{2, 112, Params{16}};
  ASSERT_EQ(canonical_key(a), canonical_key(b));

  const ValueTable exact = solve_fast(2, 97, Params{16});
  const auto canonical = solve_shared(a);
  for (int p = 0; p <= 2; ++p) {
    for (Ticks l = 0; l <= 97; ++l) {
      ASSERT_EQ(canonical->value(p, l), exact.value(p, l)) << p << " " << l;
    }
  }
}

TEST(CanonicalKey, HashIsPlatformStableAndFieldSensitive) {
  const SolveKey k{2, 64, 16};
  EXPECT_EQ(k.hash(), (SolveKey{2, 64, 16}.hash()));
  EXPECT_NE(k.hash(), (SolveKey{3, 64, 16}.hash()));
  EXPECT_NE(k.hash(), (SolveKey{2, 80, 16}.hash()));
  EXPECT_NE(k.hash(), (SolveKey{2, 64, 32}.hash()));
}

TEST(SolveCache, HitsShareOneTableAndCountersTrack) {
  SolveCache cache;
  const SolveRequest req{2, 200, Params{16}};
  const auto first = cache.get_or_solve(req);
  const auto second = cache.get_or_solve(req);
  EXPECT_EQ(first.get(), second.get());  // same object, not an equal copy

  // A rounding-equivalent request is a hit too.
  const auto third = cache.get_or_solve({2, 195, Params{16}});
  EXPECT_EQ(first.get(), third.get());

  const SolveCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 2.0 / 3.0);
}

TEST(SolveCache, DistinctKeysGetDistinctTables) {
  SolveCache cache;
  const auto a = cache.get_or_solve({2, 64, Params{16}});
  const auto b = cache.get_or_solve({3, 64, Params{16}});
  const auto c = cache.get_or_solve({2, 64, Params{32}});
  EXPECT_NE(a.get(), b.get());
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(cache.stats().misses, 3u);
  EXPECT_EQ(cache.stats().entries, 3u);
}

// Canonical table slab sizes used by the byte-budget tests below:
// key (max_p, L, c) costs (max_p+1) * (L+1) * sizeof(Ticks) bytes.
constexpr std::size_t table_bytes(int max_p, Ticks l) {
  return static_cast<std::size_t>(max_p + 1) * static_cast<std::size_t>(l + 1) *
         sizeof(Ticks);
}

TEST(SolveCache, EvictsLeastRecentlyUsedOverByteBudget) {
  SolveCache::Options options;
  options.shards = 1;  // one shard makes the LRU order observable
  // a (272 B) + b (528 B) fit; adding c (784 B) breaches and must evict
  // exactly the LRU entry.
  options.max_bytes = table_bytes(1, 16) + table_bytes(1, 32) + 300;
  SolveCache cache(options);

  const SolveRequest a{1, 16, Params{16}};
  const SolveRequest b{1, 32, Params{16}};
  const SolveRequest c{1, 48, Params{16}};
  const auto ta = cache.get_or_solve(a);
  (void)cache.get_or_solve(b);
  (void)cache.get_or_solve(a);  // refresh a: b becomes LRU
  (void)cache.get_or_solve(c);  // breaches the budget -> evicts b

  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.stats().resident_bytes, table_bytes(1, 16) + table_bytes(1, 48));
  // a survived (hit, same object); b was evicted (miss, re-solved).
  EXPECT_EQ(cache.get_or_solve(a).get(), ta.get());
  const auto before = cache.stats().misses;
  (void)cache.get_or_solve(b);
  EXPECT_EQ(cache.stats().misses, before + 1);
}

TEST(SolveCache, ByteAccountingIsExactUnderMixedSizes) {
  SolveCache::Options options;
  options.shards = 1;
  options.max_bytes = 1u << 20;  // roomy: nothing evicts
  SolveCache cache(options);

  std::size_t expected = 0;
  for (const SolveRequest req : {SolveRequest{1, 64, Params{16}},
                                 SolveRequest{3, 512, Params{16}},
                                 SolveRequest{2, 4096, Params{32}}}) {
    const auto table = cache.get_or_solve(req);
    expected += table->bytes();
    EXPECT_EQ(cache.stats().resident_bytes, expected);
  }
  EXPECT_EQ(cache.stats().entries, 3u);
  EXPECT_EQ(cache.stats().evictions, 0u);

  cache.clear();
  EXPECT_EQ(cache.stats().resident_bytes, 0u);
}

TEST(SolveCache, OversizedTableParksInsteadOfThrashing) {
  SolveCache::Options options;
  options.shards = 1;
  options.max_bytes = 64;  // smaller than ANY table
  SolveCache cache(options);

  const auto big = cache.get_or_solve({2, 1024, Params{16}});
  // The most recent table always stays resident, even over budget...
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().resident_bytes, big->bytes());
  EXPECT_EQ(cache.get_or_solve({2, 1024, Params{16}}).get(), big.get());  // hit

  // ...and the next completion displaces it (budget still binds).
  const auto next = cache.get_or_solve({1, 64, Params{16}});
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().resident_bytes, next->bytes());
}

TEST(SolveCache, MixedLifespanBatchEvictsButStaysDeterministic) {
  // A BatchRunner over widely mixed N with a budget that can only hold a
  // few tables: eviction churns, counters add up, and the batch aggregate
  // matches the cache-disabled baseline bit-for-bit (the cache only changes
  // who solves, never what).
  std::vector<sim::ScenarioSpec> specs;
  for (int i = 0; i < 24; ++i) {
    sim::ScenarioSpec spec;
    spec.policy = sim::PolicyKind::kDpOptimal;
    spec.owner = sim::OwnerKind::kPoisson;
    spec.owner_a = 900.0;
    spec.params = Params{16};
    spec.lifespan = 256 + 1024 * (i % 6);  // mixed N: 256 .. 5376
    spec.max_interrupts = 2;
    spec.seed = 0xABC0 + static_cast<std::uint64_t>(i);
    specs.push_back(spec);
  }

  sim::BatchOptions tight;
  tight.cache.shards = 1;
  tight.cache.max_bytes = 3 * 6200 * sizeof(Ticks) / 2;  // ~1.5 of the larger tables
  sim::BatchRunner constrained(tight);
  const auto got = constrained.run(specs);

  sim::BatchOptions naive;
  naive.cache_enabled = false;
  sim::BatchRunner baseline(naive);
  const auto want = baseline.run(specs);

  EXPECT_EQ(got.aggregate.banked_work, want.aggregate.banked_work);
  EXPECT_EQ(got.aggregate.lifespan_used, want.aggregate.lifespan_used);
  // Every dp session goes through the cache exactly once...
  EXPECT_EQ(got.cache.hits + got.cache.misses, specs.size());
  // ...the budget forced real churn...
  EXPECT_GT(got.cache.evictions, 0u);
  // ...and the resident set honors the accounting invariant.
  EXPECT_LE(got.cache.entries, 6u);
  EXPECT_GT(got.cache.resident_bytes, 0u);
}

TEST(SolveCache, ZeroBudgetFromConstructionParksNewestOnly) {
  // A zero quota from birth degrades to keep-newest-per-shard, never to an
  // always-cold cache: each completion displaces the previous table.
  SolveCache::Options options;
  options.shards = 1;
  options.max_bytes = 0;
  SolveCache cache(options);

  (void)cache.get_or_solve({1, 16, Params{16}});
  (void)cache.get_or_solve({1, 32, Params{16}});
  const auto last = cache.get_or_solve({1, 48, Params{16}});
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().evictions, 2u);
  EXPECT_EQ(cache.stats().resident_bytes, last->bytes());
  // The parked table still serves hits.
  EXPECT_EQ(cache.get_or_solve({1, 48, Params{16}}).get(), last.get());
}

TEST(SolveCache, SetMaxBytesShrinkEvictsImmediatelyKeepingNewestUsed) {
  SolveCache::Options options;
  options.shards = 1;
  options.max_bytes = 1u << 20;  // roomy: everything resident
  SolveCache cache(options);

  const auto a = cache.get_or_solve({1, 16, Params{16}});
  const auto b = cache.get_or_solve({1, 32, Params{16}});
  const auto c = cache.get_or_solve({1, 48, Params{16}});
  (void)cache.get_or_solve({1, 32, Params{16}});  // touch b: b is newest-USED
  ASSERT_EQ(cache.stats().entries, 3u);

  // Shrink to exactly b's size: a and c go, b (most recently used) stays.
  cache.set_max_bytes(b->bytes());
  EXPECT_EQ(cache.max_bytes(), b->bytes());
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().evictions, 2u);
  EXPECT_EQ(cache.stats().resident_bytes, b->bytes());
  const auto hits_before = cache.stats().hits;
  EXPECT_EQ(cache.get_or_solve({1, 32, Params{16}}).get(), b.get());
  EXPECT_EQ(cache.stats().hits, hits_before + 1);
}

TEST(SolveCache, SetMaxBytesToZeroKeepsOneTablePerShard) {
  // Quota smaller than ANY table: keep-newest is honored through the
  // resize, exactly like construction-time zero budgets.
  SolveCache::Options options;
  options.shards = 1;
  options.max_bytes = 1u << 20;
  SolveCache cache(options);
  (void)cache.get_or_solve({1, 16, Params{16}});
  const auto newest = cache.get_or_solve({1, 64, Params{16}});

  cache.set_max_bytes(0);
  EXPECT_EQ(cache.max_bytes(), 0u);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().resident_bytes, newest->bytes());
  EXPECT_EQ(cache.get_or_solve({1, 64, Params{16}}).get(), newest.get());
}

TEST(SolveCache, SetMaxBytesGrowNeverEvictsAndRaisesHeadroom) {
  SolveCache::Options options;
  options.shards = 1;
  options.max_bytes = table_bytes(1, 16) + 8;  // holds exactly one small table
  SolveCache cache(options);
  (void)cache.get_or_solve({1, 16, Params{16}});
  ASSERT_EQ(cache.stats().entries, 1u);

  cache.set_max_bytes(1u << 20);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().evictions, 0u);

  // The raised budget really applies: more tables now coexist.
  (void)cache.get_or_solve({1, 32, Params{16}});
  (void)cache.get_or_solve({1, 48, Params{16}});
  EXPECT_EQ(cache.stats().entries, 3u);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(SolveCache, ResizeWhileTablesResidentAcrossShards) {
  // Multi-shard resize: the budget re-splits evenly and EVERY shard evicts
  // down to its slice, each keeping its newest table.
  SolveCache::Options options;
  options.shards = 4;
  options.max_bytes = 1u << 20;
  SolveCache cache(options);
  for (int k = 0; k < 12; ++k) {
    (void)cache.get_or_solve({1, 16 * (k + 1), Params{16}});
  }
  const std::size_t entries_before = cache.stats().entries;
  ASSERT_EQ(entries_before, 12u);

  cache.set_max_bytes(0);
  const SolveCacheStats after = cache.stats();
  // Keep-newest is per shard, so at most shard_count() tables survive (a
  // shard that never held a table keeps none).
  EXPECT_LE(after.entries, cache.shard_count());
  EXPECT_GE(after.entries, 1u);
  EXPECT_EQ(after.evictions, 12u - after.entries);
  EXPECT_GT(after.resident_bytes, 0u);
}

TEST(SolveCache, ClearDropsTablesButKeepsLifetimeCounters) {
  SolveCache cache;
  (void)cache.get_or_solve({1, 64, Params{16}});
  (void)cache.get_or_solve({1, 64, Params{16}});
  cache.clear();
  const SolveCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  // Re-request re-solves.
  (void)cache.get_or_solve({1, 64, Params{16}});
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(SolveCache, FailedSolveIsNotCachedAndRetries) {
  SolveCache cache;
  // Invalid params throw inside canonicalization — before any map entry.
  EXPECT_THROW((void)cache.get_or_solve({1, 10, Params{0}}), std::invalid_argument);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
  // A healthy request for a nearby key still works afterwards.
  EXPECT_NE(cache.get_or_solve({1, 10, Params{16}}), nullptr);
}

TEST(SolveCache, OwnerSolveThrowLeavesNoEntryAndRetries) {
  // Unlike the test above, the key canonicalizes fine, so the in-flight
  // entry exists when the solve itself throws (ValueTable rejects dims whose
  // slab size overflows size_t). Single-threaded on purpose: a concurrent
  // waiter would rethrow the same exception object.
  SolveCache cache;
  const SolveRequest huge{INT_MAX, Ticks{1} << 40, Params{16}};
  EXPECT_THROW((void)cache.get_or_solve(huge), std::invalid_argument);
  SolveCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.resident_bytes, 0u);
  EXPECT_EQ(stats.misses, 1u);

  EXPECT_THROW((void)cache.get_or_solve(huge), std::invalid_argument);
  stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.misses, 2u);  // the retry solved again, not a cached failure
  EXPECT_EQ(stats.hits, 0u);
}

/// A persistent tier that never has a table, whose FIRST load() parks its
/// caller: it signals `entered`, then blocks until `release` opens. That
/// freezes an owner mid-resolution — after its in-flight entry is
/// registered, before its table arrives — so tests can interleave clear()
/// and re-requests deterministically, with no sleeps.
class BlockingFirstLoadStore final : public TableStore {
 public:
  std::latch entered{1};
  std::latch release{1};

  std::shared_ptr<const ValueTable> load(const SolveKey&) override {
    if (loads_.fetch_add(1) == 0) {
      entered.count_down();
      release.wait();
    }
    return nullptr;
  }
  bool store(const SolveKey&, const std::shared_ptr<const ValueTable>&) override {
    return false;
  }
  void clear() override {}
  TableStoreStats stats() const override { return {}; }

 private:
  std::atomic<int> loads_{0};
};

TEST(SolveCache, ClearDuringInFlightSolveDropsItOnArrival) {
  auto store = std::make_shared<BlockingFirstLoadStore>();
  SolveCache cache({2, 1u << 20, store});
  const SolveRequest req{1, 64, Params{16}};

  std::shared_ptr<const ValueTable> stale;
  std::thread owner([&] { stale = cache.get_or_solve(req); });
  store->entered.wait();  // the owner's entry is registered, its load parked
  cache.clear();
  store->release.count_down();
  owner.join();

  // The owner still got its table, but it arrived after clear(): dropped.
  ASSERT_NE(stale, nullptr);
  SolveCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.resident_bytes, 0u);
  EXPECT_EQ(stats.misses, 1u);

  (void)cache.get_or_solve(req);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(SolveCache, StaleOwnerNeverOverwritesTheReRequestedEntry) {
  auto store = std::make_shared<BlockingFirstLoadStore>();
  SolveCache cache({2, 1u << 20, store});
  const SolveRequest req{1, 64, Params{16}};

  std::shared_ptr<const ValueTable> stale;
  std::thread owner([&] { stale = cache.get_or_solve(req); });
  store->entered.wait();
  cache.clear();
  // This thread becomes the key's new owner and finishes first.
  const auto mine = cache.get_or_solve(req);
  store->release.count_down();
  owner.join();

  ASSERT_NE(stale, nullptr);
  EXPECT_NE(stale.get(), mine.get());
  const SolveCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.resident_bytes, mine->bytes());  // counted once
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(cache.get_or_solve(req).get(), mine.get());
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(SolveCache, ConcurrentRequestsForOneKeySolveExactlyOnce) {
  // 8 threads hammer 4 keys; per key exactly one miss, and every thread for
  // a key receives the SAME table object. TSan checks the locking.
  SolveCache cache;
  constexpr int kThreads = 8;
  constexpr int kItersPerThread = 50;
  std::vector<std::shared_ptr<const ValueTable>> first_seen(4);
  std::atomic<bool> mismatch{false};

  {
    // Resolve each key once up front on this thread to have a comparison
    // object that does not race with the worker threads' first resolution.
    for (int k = 0; k < 4; ++k) {
      first_seen[static_cast<std::size_t>(k)] =
          cache.get_or_solve({2, 64 + 16 * k, Params{16}});
    }
  }

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &first_seen, &mismatch, t] {
      for (int i = 0; i < kItersPerThread; ++i) {
        const int k = (t + i) % 4;
        const auto table = cache.get_or_solve({2, 64 + 16 * k, Params{16}});
        if (table.get() != first_seen[static_cast<std::size_t>(k)].get()) {
          mismatch.store(true);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_FALSE(mismatch.load());
  const SolveCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.hits, static_cast<std::uint64_t>(kThreads) * kItersPerThread);
  EXPECT_EQ(stats.entries, 4u);
}

TEST(SolveCache, ColdConcurrentRaceStillSolvesOncePerKey) {
  // Unlike the test above, the cache starts COLD and all threads race the
  // first resolution — the in-flight future must dedupe the solves.
  SolveCache cache;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache] {
      for (int k = 0; k < 4; ++k) {
        const auto table = cache.get_or_solve({2, 64 + 16 * k, Params{16}});
        ASSERT_NE(table, nullptr);
        ASSERT_EQ(table->value(0, 32), 16);  // 32 − c
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(cache.stats().misses, 4u);
}

TEST(SolveCache, GetOrSolveFromInsidePoolTasksSolvesOncePerKey) {
  // Lookups run inside pool tasks (as BatchRunner's sessions do): a cold
  // race over 4 keys from 4 workers must neither deadlock nor solve a key
  // twice, and every task of a key receives the same table.
  SolveCache cache;
  util::ThreadPool pool(4);
  constexpr std::size_t kTasks = 64;
  std::vector<const ValueTable*> seen(kTasks, nullptr);
  pool.parallel_for(
      0, kTasks,
      [&](std::size_t i) {
        seen[i] = cache.get_or_solve({2, 64 + 16 * static_cast<Ticks>(i % 4), Params{16}})
                      .get();
      },
      /*grain=*/1);
  for (std::size_t i = 4; i < kTasks; ++i) {
    EXPECT_EQ(seen[i], seen[i % 4]) << "task " << i;
  }
  const SolveCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.hits, kTasks - 4);
  EXPECT_EQ(stats.entries, 4u);
}

TEST(SolveShared, PoolTaskSolvesMatchSerialSolvesOfTheCanonicalKey) {
  // solve_shared is uncached: every call, from any thread, returns a fresh
  // table of the request's canonical dimensions with solve_fast's values.
  const std::vector<SolveRequest> requests = {
      {2, 97, Params{16}}, {3, 500, Params{8}}, {1, 64, Params{64}}, {0, 10, Params{4}}};
  util::ThreadPool pool(4);
  std::vector<std::shared_ptr<const ValueTable>> tables(requests.size() * 2);
  pool.parallel_for(
      0, tables.size(),
      [&](std::size_t i) { tables[i] = solve_shared(requests[i % requests.size()]); },
      /*grain=*/1);
  for (std::size_t i = 0; i < tables.size(); ++i) {
    const SolveKey key = canonical_key(requests[i % requests.size()]);
    ASSERT_NE(tables[i], nullptr);
    EXPECT_EQ(tables[i]->max_interrupts(), key.max_p);
    EXPECT_EQ(tables[i]->max_lifespan(), key.max_lifespan);
    const ValueTable serial = solve_fast(key.max_p, key.max_lifespan, Params{key.c});
    EXPECT_TRUE(std::equal(tables[i]->slab().begin(), tables[i]->slab().end(),
                           serial.slab().begin(), serial.slab().end()))
        << "request " << i % requests.size();
  }
  EXPECT_NE(tables[0].get(), tables[requests.size()].get());  // not shared
}

// ---------------------------------------------------------------------------
// Tiering: the persistent store beneath the RAM tier
// ---------------------------------------------------------------------------

/// Field-for-field equality — the cross-tier bit-identity guarantee.
void expect_tables_identical(const ValueTable& a, const ValueTable& b) {
  ASSERT_EQ(a.max_interrupts(), b.max_interrupts());
  ASSERT_EQ(a.max_lifespan(), b.max_lifespan());
  ASSERT_EQ(a.params().c, b.params().c);
  for (int p = 0; p <= a.max_interrupts(); ++p) {
    for (Ticks l = 0; l <= a.max_lifespan(); ++l) {
      ASSERT_EQ(a.value(p, l), b.value(p, l)) << "W(" << p << ")[" << l << "]";
    }
  }
}

TEST(SolveCacheTiered, LookupWalksRamThenStoreThenSolves) {
  nowsched::testing::TempDir dir("tier");
  auto store = std::make_shared<MappedTableStore>(
      MappedTableStore::Options{dir.str()});
  SolveCache cache({2, 16u << 20, store});
  const SolveRequest req{2, 200, Params{16}};

  // Cold everywhere: miss → fresh solve → spill to the store.
  const auto solved = cache.get_or_solve(req);
  EXPECT_TRUE(solved->owns_storage());
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().store_hits, 0u);
  EXPECT_EQ(cache.stats().spills, 1u);

  // Warm RAM: a plain hit, the store is not consulted.
  EXPECT_EQ(cache.get_or_solve(req).get(), solved.get());
  EXPECT_EQ(cache.stats().hits, 1u);

  // Drop RAM, keep the store: the miss is answered by a mapped read — a
  // zero-copy view, counted as store_hit, NOT a second spill — and the
  // mapped table is bit-identical to the solved one.
  cache.clear();
  const auto mapped = cache.get_or_solve(req);
  EXPECT_FALSE(mapped->owns_storage());
  expect_tables_identical(*solved, *mapped);
  const SolveCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.store_hits, 1u);
  EXPECT_EQ(stats.spills, 1u);

  // The mapped table is now RAM-resident: hit again.
  EXPECT_EQ(cache.get_or_solve(req).get(), mapped.get());
}

TEST(SolveCacheTiered, MissesEqualSolvesPlusStoreHits) {
  nowsched::testing::TempDir dir("tier");
  auto store = std::make_shared<MappedTableStore>(
      MappedTableStore::Options{dir.str()});
  SolveCache cache({2, 16u << 20, store});
  for (int k = 0; k < 3; ++k) cache.get_or_solve({1, 64 + 16 * k, Params{16}});
  cache.clear();
  for (int k = 0; k < 5; ++k) cache.get_or_solve({1, 64 + 16 * k, Params{16}});

  const SolveCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 8u);       // 3 cold + 5 after clear
  EXPECT_EQ(stats.store_hits, 3u);   // the 3 spilled tables came back mapped
  EXPECT_EQ(stats.spills, 5u);       // every fresh solve spilled exactly once
  EXPECT_EQ(stats.misses, (stats.misses - stats.store_hits) + stats.store_hits);
  EXPECT_EQ(store->stats().entries, 5u);
}

TEST(SolveCacheTiered, WarmStartAcrossCaches) {
  // Process A bakes through its cache; process B (modeled by a second cache
  // over the same directory) starts cold in RAM but warm on disk — no
  // solves, bit-identical tables. This is the multi-process warm-start
  // story in-process; the fork test in solver_table_store_test.cpp does it
  // across a real process boundary.
  nowsched::testing::TempDir dir("warm");
  const SolveRequest req{3, 300, Params{16}};

  std::shared_ptr<const ValueTable> solved;
  {
    auto store = std::make_shared<MappedTableStore>(
        MappedTableStore::Options{dir.str()});
    SolveCache first({2, 16u << 20, store});
    solved = first.get_or_solve(req);
    EXPECT_EQ(first.stats().spills, 1u);
  }

  auto store = std::make_shared<MappedTableStore>(
      MappedTableStore::Options{dir.str(), /*read_only=*/true});
  SolveCache second({2, 16u << 20, store});
  const auto warm = second.get_or_solve(req);
  expect_tables_identical(*solved, *warm);
  EXPECT_EQ(second.stats().store_hits, 1u);
  EXPECT_EQ(second.stats().spills, 0u);
}

TEST(SolveCacheTiered, ClearDropsRamButNeverTheSharedStore) {
  nowsched::testing::TempDir dir("tier");
  auto store = std::make_shared<MappedTableStore>(
      MappedTableStore::Options{dir.str()});
  SolveCache cache({2, 16u << 20, store});
  cache.get_or_solve({1, 64, Params{16}});
  cache.get_or_solve({1, 96, Params{16}});
  ASSERT_EQ(store->stats().entries, 2u);
  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(store->stats().entries, 2u)
      << "clear() must not touch shared persistent state";
}

TEST(SolveCacheTiered, EvictedTableComesBackFromTheStoreNotASolve) {
  nowsched::testing::TempDir dir("tier");
  auto store = std::make_shared<MappedTableStore>(
      MappedTableStore::Options{dir.str()});
  // Budget below one table: every arrival evicts the previous resident.
  SolveCache cache({1, 0, store});
  cache.set_max_bytes(0);
  const SolveRequest a{1, 64, Params{16}};
  const SolveRequest b{1, 96, Params{16}};
  cache.get_or_solve(a);
  cache.get_or_solve(b);  // evicts a (zero budget keeps only newest)
  cache.get_or_solve(a);  // must return via the store, not a re-solve
  const SolveCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.store_hits, 1u);
  EXPECT_EQ(stats.spills, 2u);  // a and b each solved (and spilled) once
}

TEST(SolveCacheTiered, ConcurrentColdStartOverASharedStoreStaysExactlyOnce) {
  // Many caches (tenants) over ONE store, all cold, racing the same key:
  // each cache misses exactly once (solve or store-hit), the store ends up
  // with exactly one entry, and every table is bit-identical. TSan-checked
  // in CI.
  nowsched::testing::TempDir dir("fleet");
  auto store = std::make_shared<MappedTableStore>(
      MappedTableStore::Options{dir.str()});
  constexpr int kCaches = 4;
  std::vector<std::unique_ptr<SolveCache>> caches;
  for (int i = 0; i < kCaches; ++i) {
    caches.push_back(std::make_unique<SolveCache>(
        SolveCache::Options{2, 16u << 20, store}));
  }
  const auto reference = solve_shared({2, 128, Params{16}});

  std::vector<std::thread> threads;
  std::atomic<bool> mismatch{false};
  for (int i = 0; i < kCaches; ++i) {
    threads.emplace_back([&, i] {
      for (int iter = 0; iter < 8; ++iter) {
        const auto table = caches[static_cast<std::size_t>(i)]->get_or_solve(
            {2, 128, Params{16}});
        if (table->value(2, 128) != reference->value(2, 128) ||
            table->bytes() != reference->bytes()) {
          mismatch.store(true);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(mismatch.load());
  for (const auto& cache : caches) {
    EXPECT_EQ(cache->stats().misses, 1u);  // exactly-once per cache
  }
  EXPECT_EQ(store->stats().entries, 1u);   // build-once across the fleet
}

}  // namespace
}  // namespace nowsched::solver
