// Tiered memoization of solve_fast results, and the shared_ptr-returning
// solve entry point the cache (and sim::BatchRunner) is built on.
//
// A W(p)[L] table is expensive to compute and cheap to share: it is
// immutable after solve_fast returns, and solver::OptimalPolicy already
// holds its table through a shared_ptr. The cache exploits both facts —
// requests are canonicalized to a SolveKey, and lookup walks the tiers:
//
//   1. finished table resident in RAM       → hit
//   2. in-flight solve for the same key     → wait on its shared_future (hit)
//   3. persistent tier (Options::store)     → store_hit (mmap, zero-copy)
//   4. solve_fast                           → solve, then SPILL to the store
//
// Requests hash onto one of S shards (the low bits of SolveKey::hash()), and
// each shard owns a mutex and ONE map whose entry for a key carries the
// key's shared_future from insertion to eviction: in flight until its owner
// records the table's byte size and an LRU stamp, finished (resident) after.
// Concurrent requests for one key perform exactly ONE solve: the first
// thread inserts the in-flight entry, resolves it outside the lock, and
// finishes the SAME entry in place under the same shard lock, while later
// threads block on the future, not the shard mutex. Eviction and
// set_max_bytes skip in-flight entries, so only the owner ever removes one
// (erasing it when its solve fails). No code path holds two shard locks at
// once, and a key never sits between two structures on its way from "in
// flight" to "resident" — the exactly-once guarantee is a tested invariant,
// not best-effort. Below the RAM tier sits the solver::TableStore seam
// (solver/table_store.h).
//
// Canonicalization (canonical_key, solver/solve_key.h) rounds max_lifespan
// up to the next multiple of c. This is semantically transparent — every
// W(p)[L] entry of the smaller table appears bit-identically in the larger
// one (the DP recurrence for (p, L) reads only states with smaller L), and
// extract_episode / OptimalPolicy read only entries the original request
// covers — but it folds near-identical scenario populations onto one table
// AND onto one store file: the canonical key is what the persistent tier
// content-addresses.
//
// Determinism across tiers: a solve is a pure function of the canonical
// key, the store checksums what it persists, and a mapped table is an
// immutable view over the file's pages — so whichever tier answers, the
// caller sees the same bits (tests/conformance pins this per field).
// Counters: hits + misses == completed get_or_solve calls, and
// misses == fresh solves + store_hits — the persistent tier converts
// would-be solves into mmap reads, it never changes results.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "solver/solve_key.h"
#include "solver/table_store.h"
#include "solver/value_table.h"
#include "util/text_record.h"

namespace nowsched::solver {

/// Solves the canonical form of `req` and returns the immutable table by
/// shared_ptr — the entry point OptimalPolicy plugs into directly. No
/// caching; SolveCache calls this on a full miss.
std::shared_ptr<const ValueTable> solve_shared(const SolveRequest& req);

/// Lifetime counters. hits + misses == completed get_or_solve calls;
/// misses == (fresh solves) + store_hits; entries/evictions/resident_bytes
/// describe the resident set.
struct SolveCacheStats {
  std::uint64_t hits = 0;        ///< RAM tier hits + waits on in-flight solves
  std::uint64_t misses = 0;      ///< requests no RAM tier could answer
  std::uint64_t store_hits = 0;  ///< misses answered by the persistent tier
                                 ///< (a mapped read instead of a solve)
  std::uint64_t spills = 0;      ///< fresh solves newly persisted to the store
  std::uint64_t evictions = 0;
  std::size_t entries = 0;       ///< resident tables + in-flight solves
  /// Bytes of finished resident tables (in-flight solves count 0 until
  /// their size is known).
  std::size_t resident_bytes = 0;

  double hit_rate() const noexcept {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

/// The one field table of SolveCacheStats (`cache_*` keys), shared by the
/// `nowsched-stats v1` tenant blocks and the rpc JobResultReply.
inline constexpr util::Field<SolveCacheStats> kSolveCacheStatsFields[] = {
    util::field<&SolveCacheStats::hits>("cache_hits"),
    util::field<&SolveCacheStats::misses>("cache_misses"),
    util::field<&SolveCacheStats::store_hits>("cache_store_hits"),
    util::field<&SolveCacheStats::spills>("cache_spills"),
    util::field<&SolveCacheStats::evictions>("cache_evictions"),
    util::field<&SolveCacheStats::entries>("cache_entries"),
    util::field<&SolveCacheStats::resident_bytes>("cache_resident_bytes"),
};

class SolveCache {
 public:
  struct Options {
    /// Shard count; rounded up to a power of two (at most 2^20).
    std::size_t shards = 8;
    /// Total byte budget for resident tables across all shards (split
    /// evenly). Each shard always keeps its most recently used table even
    /// when it alone exceeds the slice.
    std::size_t max_bytes = 64u << 20;  // 64 MiB
    /// Optional persistent tier probed on a RAM miss and spilled to after a
    /// fresh solve (a MappedTableStore; see table_store.h). Shared_ptr so
    /// many caches — one per tenant — can mount ONE warm store; TableStore
    /// implementations are thread-safe. nullptr = the cache is purely
    /// resident.
    std::shared_ptr<TableStore> store;
  };

  SolveCache();  // default Options
  explicit SolveCache(Options options);

  SolveCache(const SolveCache&) = delete;
  SolveCache& operator=(const SolveCache&) = delete;

  /// Returns the table for canonical_key(req), solving it at most once per
  /// residency no matter how many threads ask concurrently. A solve that
  /// throws is not cached: the exception propagates to every waiter of that
  /// attempt and its owner erases the entry so a later call retries. Store
  /// probes and spills happen on the owner thread, outside every shard lock.
  /// Safe to call from many threads, including ThreadPool workers.
  std::shared_ptr<const ValueTable> get_or_solve(const SolveRequest& req);

  /// Point-in-time totals (counters are exact; `entries` sums shard sizes
  /// without a global lock, so it is approximate under concurrent writes).
  SolveCacheStats stats() const;

  /// Re-budgets the RAM tier to `max_bytes` total (re-split evenly across
  /// shards) and immediately evicts LRU tables in every shard that no
  /// longer fits its slice. The keep-newest guarantee survives a shrink:
  /// each shard retains its most recently used table even when that table
  /// alone exceeds the new slice, so resizing to 0 degrades to
  /// one-table-per-shard rather than an always-cold cache. Growing never
  /// evicts, and in-flight solves are never evicted. Thread-safe against
  /// concurrent get_or_solve/stats; the service layer calls this for live
  /// per-tenant quota changes.
  void set_max_bytes(std::size_t max_bytes);

  /// Current total RAM-tier byte budget (Options or set_max_bytes).
  std::size_t max_bytes() const noexcept {
    return max_bytes_.load(std::memory_order_relaxed);
  }

  std::size_t shard_count() const noexcept { return shard_count_; }

 private:
  using TablePtr = std::shared_ptr<const ValueTable>;
  using Future = std::shared_future<TablePtr>;

  struct KeyHash {
    std::size_t operator()(const SolveKey& key) const noexcept {
      return static_cast<std::size_t>(key.hash());
    }
  };

  /// One key's life in the cache. Every request for the key reads the same
  /// shared_future: it blocks while the owner's solve is in flight and is
  /// ready once the owner finishes the entry, so a waiter and a hit take the
  /// one path. `bytes` marks which: 0 in flight, the table's (never-zero)
  /// size once finished.
  struct Entry {
    Future future;                ///< the owner's shared_future
    std::uint64_t last_used = 0;  ///< shard-local LRU clock value
    std::size_t bytes = 0;        ///< table->bytes() once finished, else 0
  };

  struct Shard {
    mutable std::mutex mu;  ///< guards every field below
    std::unordered_map<SolveKey, Entry, KeyHash> map;
    std::uint64_t clock = 0;  ///< monotone per-shard use counter
    std::size_t bytes = 0;    ///< Σ entry.bytes of this map
  };

  /// Evicts LRU finished tables until the shard fits its slice or only
  /// `keep` remains (the keep-newest guarantee). In-flight entries are
  /// never victims.
  void evict_excess_locked(Shard& shard, const SolveKey& keep);

  std::size_t shard_count_;  ///< a power of two: a hash's low bits pick the shard
  std::unique_ptr<Shard[]> shards_;
  std::shared_ptr<TableStore> store_;  ///< optional persistent tier
  // Atomic: set_max_bytes rewrites budgets while other threads evict under
  // their own shard locks (relaxed is enough — eviction against a briefly
  // stale budget is corrected by the resize's own eviction pass).
  std::atomic<std::size_t> per_shard_budget_;
  std::atomic<std::size_t> max_bytes_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> store_hits_{0};
  std::atomic<std::uint64_t> spills_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

}  // namespace nowsched::solver
