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
  Shard& shard = shards_[static_cast<std::size_t>(key.hash()) & (shard_count_ - 1)];

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
      entry.last_used = ++shard.clock;  // a hit is a recency touch
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
    entry.last_used = ++shard.clock;
    shard.bytes += entry.bytes;
    evict_excess_locked(shard, key);
  }
  // Spill a FRESH solve to the persistent tier, outside every lock — a
  // store hit is already on disk, and a failed spill only costs the next
  // cold process a solve.
  if (solved && store_ != nullptr && store_->store(key, table)) {
    spills_.fetch_add(1, std::memory_order_relaxed);
  }
  return table;
}

void SolveCache::evict_excess_locked(Shard& shard, const SolveKey& keep) {
  // `keep` — the table whose arrival triggered this pass — always survives,
  // so a single oversized table parks in its shard instead of thrashing.
  const std::size_t budget = per_shard_budget_.load(std::memory_order_relaxed);
  while (shard.bytes > budget) {
    auto victim = shard.map.end();
    for (auto it = shard.map.begin(); it != shard.map.end(); ++it) {
      if (it->second.bytes == 0 || it->first == keep) continue;
      if (victim == shard.map.end() ||
          it->second.last_used < victim->second.last_used) {
        victim = it;
      }
    }
    if (victim == shard.map.end()) break;  // nothing evictable remains
    shard.bytes -= victim->second.bytes;
    shard.map.erase(victim);
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
    auto newest = shard.map.end();
    for (auto it = shard.map.begin(); it != shard.map.end(); ++it) {
      if (it->second.bytes == 0) continue;
      if (newest == shard.map.end() ||
          it->second.last_used > newest->second.last_used) {
        newest = it;
      }
    }
    if (newest != shard.map.end()) evict_excess_locked(shard, newest->first);
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
    s.entries += shard.map.size();
    s.resident_bytes += shard.bytes;
  }
  return s;
}

}  // namespace nowsched::solver
