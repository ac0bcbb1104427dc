#include "solver/solve_cache.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "solver/fast_solver.h"

namespace nowsched::solver {

std::shared_ptr<const ValueTable> solve_shared(const SolveRequest& req) {
  const SolveKey key = canonical_key(req);
  return std::make_shared<const ValueTable>(
      solve_fast(key.max_p, key.max_lifespan, Params{key.c}));
}

SolveCache::SolveCache() : SolveCache(Options()) {}

SolveCache::SolveCache(Options options)
    : shard_count_(std::bit_ceil(std::min(options.shards, std::size_t{1} << 20))),
      shards_(std::make_unique<Shard[]>(shard_count_)),
      store_(std::move(options.store)),
      // An even slice per shard. A slice of 0 is legal: each shard then
      // retains only its most recently used table (the keep-newest guarantee).
      per_shard_budget_(options.max_bytes / shard_count_),
      max_bytes_(options.max_bytes) {}

std::shared_ptr<const ValueTable> SolveCache::get_or_solve(const SolveRequest& req) {
  const SolveKey key = canonical_key(req);
  Shard& shard = shard_for(key.hash());

  std::promise<TablePtr> promise;
  Future future;  // stays invalid for the owner
  {
    std::lock_guard<std::mutex> guard(shard.mu);
    auto [it, inserted] = shard.map.try_emplace(key);
    Entry& entry = it->second;
    if (inserted) {
      entry.future = promise.get_future().share();
      misses_.fetch_add(1, std::memory_order_relaxed);
    } else {
      hits_.fetch_add(1, std::memory_order_relaxed);
      if (entry.bytes != 0) {  // a hit on a finished table is a recency touch
        shard.lru.splice(shard.lru.end(), shard.lru, entry.lru);
        shard.newest_table = key;
      }
      future = entry.future;  // copy out, then get() outside the lock
    }
  }
  // A hit or a waiter: ready once finished, else blocks; rethrows the
  // owner's exception.
  if (future.valid()) return future.get();

  // Owner: resolve the miss outside the shard lock — other keys on this
  // shard stay resolvable, and waiters on THIS key block on the future.
  // Only the owner removes an in-flight entry (eviction skips them), so the
  // entry is still registered whichever way the resolution ends.
  TablePtr table;
  bool solved = false;
  try {
    table = store_ ? store_->load(key) : nullptr;
    if (table != nullptr) {
      store_hits_.fetch_add(1, std::memory_order_relaxed);
    } else {
      table = solve_shared(req);
      solved = true;
    }
  } catch (...) {
    promise.set_exception(std::current_exception());
    std::lock_guard<std::mutex> guard(shard.mu);
    shard.map.erase(key);  // not cached: a later call retries
    throw;
  }
  promise.set_value(table);
  {
    std::lock_guard<std::mutex> guard(shard.mu);
    Entry& entry = shard.map.find(key)->second;
    entry.bytes = table->bytes();
    entry.lru = shard.lru.insert(shard.lru.end(), key);
    shard.newest_table = key;
    shard.bytes += entry.bytes;
    evict_excess_locked(shard, nullptr);
  }
  // Spill a FRESH solve to the persistent tier, outside every lock — a
  // store hit is already on disk, and a failed spill only costs the next
  // cold process a solve.
  if (solved && store_ != nullptr && store_->store(key, table)) {
    spills_.fetch_add(1, std::memory_order_relaxed);
  }
  return table;
}

SolveCache::EpisodeLookup SolveCache::find_episode(const EpisodeKey& key) {
  Shard& shard = shard_for(key.hash());
  std::lock_guard<std::mutex> guard(shard.mu);
  auto [it, inserted] = shard.episodes.try_emplace(key);
  EpisodeEntry& entry = it->second;
  if (inserted) {
    entry.bytes = kEpisodeNoteBytes;
    entry.lru = shard.lru.insert(shard.lru.end(), key);
    shard.bytes += entry.bytes;
    evict_excess_locked(shard, &key);
    return {};
  }
  shard.lru.splice(shard.lru.end(), shard.lru, entry.lru);
  return {entry.episode, entry.episode == nullptr};
}

SolveCache::EpisodePtr SolveCache::insert_episode(const EpisodeKey& key,
                                                  EpisodePtr episode) {
  const std::size_t bytes = kEpisodeNoteBytes + sizeof(EpisodeSchedule) +
                            (2 * episode->size() + 1) * sizeof(Ticks);
  Shard& shard = shard_for(key.hash());
  std::lock_guard<std::mutex> guard(shard.mu);
  auto [it, inserted] = shard.episodes.try_emplace(key);
  EpisodeEntry& entry = it->second;
  if (inserted) {
    entry.lru = shard.lru.insert(shard.lru.end(), key);
  } else {
    shard.lru.splice(shard.lru.end(), shard.lru, entry.lru);
    // Another builder got here first; both built the same episode.
    if (entry.episode != nullptr) return entry.episode;
    shard.bytes -= entry.bytes;  // the note becomes the episode
  }
  entry.episode = std::move(episode);
  entry.bytes = bytes;
  shard.bytes += bytes;
  evict_excess_locked(shard, &key);  // never erases `entry`
  return entry.episode;
}

void SolveCache::evict_excess_locked(Shard& shard, const EpisodeKey* keep_episode) {
  // The newest finished table survives, so a single oversized table parks
  // in its shard instead of thrashing, and an episode or note arriving
  // right after the table its session just used cannot displace that table.
  const std::size_t budget = per_shard_budget_.load(std::memory_order_relaxed);
  auto it = shard.lru.begin();
  while (shard.bytes > budget && it != shard.lru.end()) {
    if (const SolveKey* table = std::get_if<SolveKey>(&*it)) {
      if (*table == shard.newest_table) {
        ++it;
        continue;
      }
      const auto victim = shard.map.find(*table);
      shard.bytes -= victim->second.bytes;
      shard.map.erase(victim);
    } else {
      const EpisodeKey& episode = std::get<EpisodeKey>(*it);
      if (keep_episode != nullptr && episode == *keep_episode) {
        ++it;
        continue;
      }
      const auto victim = shard.episodes.find(episode);
      shard.bytes -= victim->second.bytes;
      shard.episodes.erase(victim);
    }
    it = shard.lru.erase(it);
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

void SolveCache::set_max_bytes(std::size_t max_bytes) {
  max_bytes_.store(max_bytes, std::memory_order_relaxed);
  per_shard_budget_.store(max_bytes / shard_count_, std::memory_order_relaxed);
  // Shrinks take effect now, not on the next arrival: walk every shard and
  // evict down to the new slice, keeping the most recently used table (the
  // same guarantee the arrival path gives).
  for (std::size_t i = 0; i < shard_count_; ++i) {
    Shard& shard = shards_[i];
    std::lock_guard<std::mutex> guard(shard.mu);
    evict_excess_locked(shard, nullptr);
  }
}

SolveCacheStats SolveCache::stats() const {
  SolveCacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.store_hits = store_hits_.load(std::memory_order_relaxed);
  s.spills = spills_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < shard_count_; ++i) {
    const Shard& shard = shards_[i];
    std::lock_guard<std::mutex> guard(shard.mu);
    s.entries += shard.map.size() + shard.episodes.size();
    s.resident_bytes += shard.bytes;
  }
  return s;
}

}  // namespace nowsched::solver
