// TableStore — the storage-backend interface beneath solver::SolveCache's
// RAM tier, and its backend: the content-addressed, memory-mapped
// persistent tier (MappedTableStore).
//
// The cache keeps finished tables resident in its own striped map; this
// narrow interface (load / store / clear / stats) is what lets a persistent
// tier slot underneath it: RAM hit → mapped-store hit → solve + spill, with
// identical results in every tier by construction (solves are
// deterministic, stored slabs are checksummed, and a mapped table is an
// immutable ValueTable view over the file's own pages).
//
// ## On-disk format: `nowsched-table v1`
//
// One file per canonical SolveKey, named by the key's platform-stable
// content hash (`<hex16 of SolveKey::hash()>.nwt`), laid out as:
//
//   | offset | size | field                                            |
//   |--------|------|--------------------------------------------------|
//   | 0      | 8    | magic "NWTABLE1"                                 |
//   | 8      | 4    | format version (1)                               |
//   | 12     | 4    | reserved (0)                                     |
//   | 16     | 8    | key.max_p        (int64)                         |
//   | 24     | 8    | key.max_lifespan (int64)                         |
//   | 32     | 8    | key.c            (int64)                         |
//   | 40     | 8    | slab_bytes — payload length                      |
//   | 48     | 8    | slab checksum (util::checksum_bytes)             |
//   | 56     | 8    | header checksum over bytes [0, 56)               |
//   | 64     | ...  | the raw level-major slab, slab_bytes long        |
//
// Same format discipline as the `nowsched-scenario v1` replay files:
// versioned, strict, round-trip tested. Strictness is total — ANY defect
// (short file, wrong magic, stale version, either checksum, header key
// fields that do not match the file's name/request, payload length that
// disagrees with the dims or the file size) REJECTS the file and reads as a
// cache miss; the caller falls back to a fresh solve and the corrupt file
// is unlinked so the next spill heals the store. Integers are stored in
// native byte order: a store directory is shared between processes on one
// host (the multi-process scale-out story), not shipped between
// architectures.
//
// ## Build-once writes, mmap reads
//
// store() publishes via temp-file + atomic rename (util::atomic_write_file)
// and skips keys whose file already exists, so N processes racing to bake
// one key produce one valid entry — every writer that publishes publishes
// the same complete bytes (deterministic solver), and rename is atomic, so
// a reader NEVER sees a torn file. load() maps the file read-only and wraps
// the payload in a zero-copy ValueTable view whose keepalive pins the
// mapping; the kernel page cache makes the second and later mappings of a
// table effectively free, across processes.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "solver/solve_key.h"
#include "solver/value_table.h"

namespace nowsched::solver {

/// Lifetime counters of one backend. Monotone; `entries`/`bytes` are the
/// point-in-time on-disk set.
struct TableStoreStats {
  std::uint64_t hits = 0;        ///< load() calls that returned a table
  std::uint64_t misses = 0;      ///< load() calls with no entry for the key
  std::uint64_t rejected = 0;    ///< load() found an entry but refused it
                                 ///< (corrupt / truncated / version or key
                                 ///< mismatch) — counted separately from
                                 ///< misses so store rot is observable
  std::uint64_t stores = 0;      ///< store() calls that persisted a table
  std::uint64_t store_skips = 0; ///< store() no-ops: entry already present
                                 ///< (build-once) or backend read-only
  std::size_t entries = 0;
  std::size_t bytes = 0;         ///< logical slab bytes held by the backend
};

/// The narrow storage interface beneath SolveCache's RAM tier.
/// Implementations must be safe to call from many threads concurrently, must
/// return tables that are bit-identical to a fresh solve of the key (or
/// nothing), and must treat store() as idempotent per key.
class TableStore {
 public:
  virtual ~TableStore() = default;

  /// The table for `key`, or nullptr when this backend cannot supply it.
  /// Never throws on a defective entry — a table the backend cannot VOUCH
  /// for is a miss, and the caller solves fresh.
  virtual std::shared_ptr<const ValueTable> load(const SolveKey& key) = 0;

  /// Offers a finished table for retention. Returns true when the backend
  /// newly retained/persisted it, false when it declined (already present,
  /// read-only, I/O failure). Must never fail the caller: a spill that
  /// cannot be written only costs the next process a solve.
  virtual bool store(const SolveKey& key,
                     const std::shared_ptr<const ValueTable>& table) = 0;

  /// Drops every entry this backend holds (no-op for read-only backends).
  virtual void clear() = 0;

  virtual TableStoreStats stats() const = 0;
};

/// The persistent tier: a directory of `nowsched-table v1` files (format
/// above), content-addressed by canonical key hash. load() mmaps read-only
/// and returns a zero-copy ValueTable view; store() is build-once via
/// atomic rename. Thread-safe and multi-process-safe by construction (see
/// the header comment); every defective file is rejected, counted, and —
/// unless the store is mounted read-only — unlinked so a later spill
/// rebuilds it.
class MappedTableStore final : public TableStore {
 public:
  struct Options {
    /// Store directory; created (with parents) when missing unless
    /// read_only. Files land directly inside it.
    std::string dir;
    /// A warm shared mount: store() and clear() become no-ops and rejected
    /// files are left in place (some other writer owns the directory).
    bool read_only = false;
    /// Unlink files that fail validation so the store self-heals on the
    /// next spill. Ignored (off) when read_only.
    bool purge_rejected = true;
  };

  /// Throws std::runtime_error when the directory cannot be created (or,
  /// read-only, does not exist) — a misconfigured store path is a setup
  /// bug, unlike the per-file defects load() absorbs.
  explicit MappedTableStore(Options options);

  MappedTableStore(const MappedTableStore&) = delete;
  MappedTableStore& operator=(const MappedTableStore&) = delete;

  /// Maps the key's file, validates the full format (magic, version, both
  /// checksums, header-vs-key identity, payload length vs dims AND file
  /// size), and returns a read-only view table pinning the mapping. Any
  /// defect → nullptr (and the `rejected` counter; the file is unlinked
  /// unless read_only or !purge_rejected). Validation reads the whole
  /// payload once (the checksum pass); later access is served from the
  /// page cache.
  std::shared_ptr<const ValueTable> load(const SolveKey& key) override;

  /// Build-once spill: no-op when the key's file already exists or the
  /// store is read-only; otherwise serializes header + slab and publishes
  /// atomically. I/O failures return false and are counted, never thrown.
  bool store(const SolveKey& key,
             const std::shared_ptr<const ValueTable>& table) override;

  /// Removes every store file in the directory (no-op when read-only).
  void clear() override;

  /// entries/bytes scan the directory (logical slab bytes, headers
  /// excluded) — stats() is for benches and operators, not hot paths.
  TableStoreStats stats() const override;

  const std::string& dir() const noexcept { return options_.dir; }
  bool read_only() const noexcept { return options_.read_only; }

  /// Content-addressed file name of a canonical key:
  /// `<hex16 of key.hash()>.nwt`.
  static std::string file_name(const SolveKey& key);
  std::string path_for(const SolveKey& key) const;

  /// Full-format validation verdict for one store file: empty string when
  /// valid, else a human-readable reason. With `expect`, also enforces that
  /// the header's key fields match (the header/key-mismatch check load()
  /// applies). Exposed for cache_bake's verification pass and the
  /// corruption tests.
  static std::string validate_file(const std::string& path,
                                   const SolveKey* expect = nullptr);

 private:
  Options options_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> stores_{0};
  std::atomic<std::uint64_t> store_skips_{0};
  std::atomic<std::uint64_t> write_tag_{0};  ///< per-process temp-name nonce
};

}  // namespace nowsched::solver
