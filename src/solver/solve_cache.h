// Tiered memoization of solve_fast results, the shared_ptr-returning solve
// entry point the cache (and sim::BatchRunner) is built on, and a memo of
// opening episodes kept under the same byte budget.
//
// A W(p)[L] table is expensive to compute and cheap to share: it is
// immutable after solve_fast returns, and solver::OptimalPolicy already
// holds its table through a shared_ptr. The cache exploits both facts —
// requests are canonicalized to a SolveKey, and lookup walks the tiers:
//
//   1. finished table resident in RAM       → hit
//   2. in-flight solve for the same key     → wait on its shared_future (hit)
//   3. persistent tier (Options::store)     → store_hit (mmap + compress)
//   4. solve_fast                           → solve, then SPILL to the store
//
// Requests hash onto one of S shards (the low bits of SolveKey::hash()), and
// each shard owns a mutex and ONE table map whose entry for a key carries the
// key's shared_future from insertion to eviction: in flight until its owner
// records the table's byte size and its place in the shard's recency list,
// finished (resident) after.
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
// key, the store checksums what it persists, and a loaded table is the
// compressed copy of the slab a solve writes — so whichever tier answers, the
// caller sees the same bits (tests/conformance pins this per field).
// Counters: hits + misses == completed get_or_solve calls, and
// misses == fresh solves + store_hits — the persistent tier converts
// would-be solves into mmap reads, it never changes results.
//
// Opening episodes. A policy commits its episode as a pure function of
// (residual, interrupts left, c), so every session of one contract (c, U, p)
// under one policy opens with the same episode. find_episode/insert_episode
// memoize it under an EpisodeKey: the caller's policy tag and the EXACT
// contract (an opening episode spans exactly U, so it is not canonicalized).
// A key's first miss only notes the key; the episode is stored from its
// second miss on. So a contract that never repeats (every scenario of an
// unfolded workload) costs a note of about a hundred bytes, not a stored copy
// of its episode. Notes and episodes sit in the same shards as tables, share
// their recency list and are metered by the same byte budget, so `entries`,
// `resident_bytes` and `evictions` count all three. The hit/miss/store/spill
// counters count table lookups only, and the persistent tier never sees an
// episode. An episode is never in flight: two threads that miss one key at
// once may both build it, and insert-if-absent keeps the first (the builds
// are identical).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <variant>

#include "core/schedule.h"
#include "solver/solve_key.h"
#include "solver/table_store.h"
#include "solver/value_table.h"
#include "util/text_record.h"

namespace nowsched::solver {

/// Solves the canonical form of `req` and returns the immutable table by
/// shared_ptr — the entry point OptimalPolicy plugs into directly. No
/// caching; SolveCache calls this on a full miss.
std::shared_ptr<const ValueTable> solve_shared(const SolveRequest& req);

/// Identity of a memoized opening episode: a caller-chosen policy tag and
/// the exact contract (c, U, p). Unlike SolveKey it is not canonicalized.
struct EpisodeKey {
  int policy = 0;
  int max_p = 0;
  Ticks lifespan = 0;
  Ticks c = 1;

  bool operator==(const EpisodeKey&) const = default;

  std::uint64_t hash() const noexcept {
    std::uint64_t h = util::hash_combine(0, static_cast<std::uint64_t>(policy));
    h = util::hash_combine(h, static_cast<std::uint64_t>(max_p));
    h = util::hash_combine(h, static_cast<std::uint64_t>(lifespan));
    return util::hash_combine(h, static_cast<std::uint64_t>(c));
  }
};

/// Lifetime counters. hits + misses == completed get_or_solve calls;
/// misses == (fresh solves) + store_hits; entries/evictions/resident_bytes
/// describe the resident set: tables and the opening-episode memo together.
struct SolveCacheStats {
  std::uint64_t hits = 0;        ///< RAM tier hits + waits on in-flight solves
  std::uint64_t misses = 0;      ///< requests no RAM tier could answer
  std::uint64_t store_hits = 0;  ///< misses answered by the persistent tier
                                 ///< (a mapped read instead of a solve)
  std::uint64_t spills = 0;      ///< fresh solves newly persisted to the store
  std::uint64_t evictions = 0;    ///< tables, episodes and notes evicted
  std::size_t entries = 0;       ///< tables (resident or in flight), episodes, notes
  /// Bytes of finished resident tables, episodes and notes (in-flight
  /// solves count 0 until their size is known).
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
    /// Total byte budget across all shards (split evenly) for resident
    /// tables and the opening-episode memo's episodes and notes. Each shard
    /// always keeps its most recently used table even when it alone exceeds
    /// the slice, and an arriving episode or note survives the eviction
    /// pass it triggers.
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

  using EpisodePtr = std::shared_ptr<const EpisodeSchedule>;

  struct EpisodeLookup {
    EpisodePtr episode;  ///< the memoized episode; nullptr on a miss
    /// On a miss: the key missed before, so the caller should build its
    /// episode and insert_episode it. False on a key's first miss, which
    /// only notes the key.
    bool admit = false;
  };

  /// Looks `key` up in the opening-episode memo. A hit or a repeated miss
  /// is an LRU touch; a first miss notes the key (metered like an entry).
  /// No outcome moves a table counter.
  EpisodeLookup find_episode(const EpisodeKey& key);

  /// Memoizes `episode` under `key` unless an episode is already resident
  /// there, and returns the resident one. Its bytes join the shard's budget;
  /// the eviction pass it triggers keeps it and the shard's most recently
  /// used table.
  EpisodePtr insert_episode(const EpisodeKey& key, EpisodePtr episode);

  /// Point-in-time totals (counters are exact; `entries` sums shard sizes
  /// without a global lock, so it is approximate under concurrent writes).
  SolveCacheStats stats() const;

  /// Re-budgets the RAM tier to `max_bytes` total (re-split evenly across
  /// shards) and immediately evicts LRU tables and episodes in every shard
  /// that no longer fits its slice. The keep-newest guarantee survives a
  /// shrink: each shard retains its most recently used table even when that
  /// table alone exceeds the new slice, so resizing to 0 degrades to
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
    template <class Key>
    std::size_t operator()(const Key& key) const noexcept {
      return static_cast<std::size_t>(key.hash());
    }
  };

  /// A resident entry's place in its shard's recency list: the key of a
  /// finished table, or of an episode or note.
  using LruKey = std::variant<SolveKey, EpisodeKey>;
  using Lru = std::list<LruKey>;

  /// One key's life in the cache. Every request for the key reads the same
  /// shared_future: it blocks while the owner's solve is in flight and is
  /// ready once the owner finishes the entry, so a waiter and a hit take the
  /// one path. `bytes` marks which: 0 in flight, the table's (never-zero)
  /// size once finished.
  struct Entry {
    Future future;          ///< the owner's shared_future
    std::size_t bytes = 0;  ///< table->bytes() once finished, else 0
    Lru::iterator lru;      ///< valid once finished
  };

  /// One memoized opening episode, or the note of a key's first miss
  /// (`episode` nullptr); never in flight.
  struct EpisodeEntry {
    EpisodePtr episode;
    std::size_t bytes = 0;
    Lru::iterator lru;
  };

  struct Shard {
    mutable std::mutex mu;  ///< guards every field below
    std::unordered_map<SolveKey, Entry, KeyHash> map;
    std::unordered_map<EpisodeKey, EpisodeEntry, KeyHash> episodes;
    /// Finished tables, episodes and notes, least recently used first: a use
    /// splices its key to the back, eviction takes from the front.
    Lru lru;
    /// The most recently used finished table, which eviction keeps.
    std::optional<SolveKey> newest_table;
    std::size_t bytes = 0;  ///< Σ entry.bytes of both maps
  };

  /// What one note is metered at: its map node (key, entry, link, cached
  /// hash), bucket slot and recency-list node (key, two links). An episode
  /// adds its schedule's object and period and prefix vectors.
  static constexpr std::size_t kEpisodeNoteBytes =
      sizeof(EpisodeKey) + sizeof(EpisodeEntry) + sizeof(LruKey) + 5 * sizeof(void*);

  Shard& shard_for(std::uint64_t hash) noexcept {
    return shards_[static_cast<std::size_t>(hash) & (shard_count_ - 1)];
  }

  /// Evicts the least recently used tables and episodes until the shard
  /// fits its slice. Never victims: in-flight tables, the shard's most
  /// recently used finished table (the keep-newest guarantee) and
  /// `keep_episode` (the arrival that triggered the pass, when non-null).
  void evict_excess_locked(Shard& shard, const EpisodeKey* keep_episode);

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
