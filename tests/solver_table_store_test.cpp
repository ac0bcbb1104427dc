// solver/table_store.h — the persistent storage backend beneath SolveCache.
//
// The persistent tier's promises are exactly what these tests pin:
//   * a stored table round-trips FIELD-FOR-FIELD (the bit-identity the
//     whole tiering design rests on), including across a process boundary;
//   * EVERY defect — truncation, a flipped bit anywhere, a stale format
//     version, a header that does not match the requested key — is
//     rejected and read as a miss, never a crash and never a wrong table;
//   * build-once publication: racing writers (threads or forked processes)
//     produce one valid entry;
//   * rejected files self-heal (unlinked, re-spilled) unless read-only.
#include "solver/table_store.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "solver/solve_cache.h"
#include "temp_dir.h"
#include "util/mmap_file.h"

#if !defined(_WIN32)
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace nowsched::solver {
namespace {

SolveRequest small_request(int max_p = 2, Ticks max_lifespan = 64,
                           Ticks c = 8) {
  SolveRequest req;
  req.max_p = max_p;
  req.max_lifespan = max_lifespan;
  req.params.c = c;
  return req;
}

/// Field-for-field comparison: dims, params, and W(p)[L] at every state.
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

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

/// Bakes one small table into `store` and returns {key, freshly solved
/// table}. The store file is at store.path_for(key) afterwards.
std::pair<SolveKey, std::shared_ptr<const ValueTable>> bake_one(
    MappedTableStore& store, const SolveRequest& req) {
  const SolveKey key = canonical_key(req);
  auto table = solve_shared(req);
  EXPECT_TRUE(store.store(key, table));
  return {key, table};
}

// ---------------------------------------------------------------------------
// MappedTableStore — round-trip and format identity
// ---------------------------------------------------------------------------

TEST(MappedTableStore, RoundTripsBitIdentically) {
  nowsched::testing::TempDir dir("store");
  MappedTableStore store({dir.str()});
  const SolveRequest req = small_request();
  auto [key, solved] = bake_one(store, req);

  auto mapped = store.load(key);
  ASSERT_NE(mapped, nullptr);
  expect_tables_identical(*solved, *mapped);

  // The loaded table is compressed like a solved one; the file holds the
  // dense slab.
  EXPECT_EQ(mapped->bytes(), solved->bytes());
  EXPECT_EQ(mapped->slab(), solved->slab());

  const TableStoreStats stats = store.stats();
  EXPECT_EQ(stats.stores, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes, solved->slab().size() * sizeof(Ticks));
}

TEST(MappedTableStore, FileNameIsContentAddressedAndStable) {
  const SolveKey key = canonical_key(small_request());
  EXPECT_EQ(MappedTableStore::file_name(key), MappedTableStore::file_name(key));
  EXPECT_EQ(MappedTableStore::file_name(key).size(), 16u + 4u);  // hex16.nwt
  const SolveKey other = canonical_key(small_request(3, 64, 8));
  EXPECT_NE(MappedTableStore::file_name(key), MappedTableStore::file_name(other));
}

TEST(MappedTableStore, StoreIsBuildOnce) {
  nowsched::testing::TempDir dir("store");
  MappedTableStore store({dir.str()});
  const SolveRequest req = small_request();
  auto [key, table] = bake_one(store, req);
  EXPECT_FALSE(store.store(key, table));  // already present → skip
  EXPECT_EQ(store.stats().stores, 1u);
  EXPECT_EQ(store.stats().store_skips, 1u);
}

TEST(MappedTableStore, MissingEntryIsAMiss) {
  nowsched::testing::TempDir dir("store");
  MappedTableStore store({dir.str()});
  EXPECT_EQ(store.load(canonical_key(small_request())), nullptr);
  EXPECT_EQ(store.stats().misses, 1u);
  EXPECT_EQ(store.stats().rejected, 0u);
}

TEST(MappedTableStore, ClearRemovesEveryEntry) {
  nowsched::testing::TempDir dir("store");
  MappedTableStore store({dir.str()});
  bake_one(store, small_request(1, 32, 8));
  bake_one(store, small_request(2, 32, 8));
  EXPECT_EQ(store.stats().entries, 2u);
  store.clear();
  EXPECT_EQ(store.stats().entries, 0u);
}

TEST(MappedTableStore, ReadOnlyRequiresExistingDirectoryAndDeclinesWrites) {
  nowsched::testing::TempDir dir("store");
  const std::string missing = (dir.path() / "absent").string();
  EXPECT_THROW(MappedTableStore({missing, /*read_only=*/true}),
               std::runtime_error);

  // Bake through a writable mount, then reopen read-only.
  MappedTableStore writer({dir.str()});
  auto [key, table] = bake_one(writer, small_request());
  MappedTableStore reader({dir.str(), /*read_only=*/true});
  ASSERT_NE(reader.load(key), nullptr);
  EXPECT_FALSE(reader.store(canonical_key(small_request(3, 32, 8)),
                            solve_shared(small_request(3, 32, 8))));
  EXPECT_EQ(reader.stats().store_skips, 1u);
  reader.clear();  // no-op
  EXPECT_EQ(reader.stats().entries, 1u);
}

// ---------------------------------------------------------------------------
// Corruption battery: every defect rejects, falls back, never crashes
// ---------------------------------------------------------------------------

/// Applies `mutate` to the baked file's bytes, then asserts load() rejects
/// (nullptr + rejected counter), the corrupt file was purged, and a fresh
/// SolveCache mounted on the store falls back to a correct fresh solve.
void expect_rejected_and_healed(
    const std::string& label,
    const std::function<std::string(std::string)>& mutate) {
  SCOPED_TRACE(label);
  nowsched::testing::TempDir dir("corrupt");
  const SolveRequest req = small_request();
  const SolveKey key = canonical_key(req);
  auto expected = solve_shared(req);

  auto store = std::make_shared<MappedTableStore>(
      MappedTableStore::Options{dir.str()});
  ASSERT_TRUE(store->store(key, expected));
  const std::string path = store->path_for(key);
  write_file(path, mutate(read_file(path)));

  // validate_file names the defect; load() rejects and purges.
  EXPECT_FALSE(MappedTableStore::validate_file(path, &key).empty());
  EXPECT_EQ(store->load(key), nullptr);
  EXPECT_EQ(store->stats().rejected, 1u);
  EXPECT_FALSE(std::filesystem::exists(path)) << "corrupt file not purged";

  // The tiered cache above the store falls back to a fresh (correct) solve
  // and re-spills, healing the store.
  SolveCache cache({2, 16u << 20, store});
  auto healed = cache.get_or_solve(req);
  ASSERT_NE(healed, nullptr);
  expect_tables_identical(*expected, *healed);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().store_hits, 0u);  // the store could not supply it
  EXPECT_EQ(cache.stats().spills, 1u);
  EXPECT_TRUE(MappedTableStore::validate_file(path, &key).empty())
      << "re-spill did not heal the store";
}

TEST(MappedTableStoreCorruption, TruncatedBelowHeaderRejected) {
  expect_rejected_and_healed("truncate-to-12-bytes", [](std::string bytes) {
    return bytes.substr(0, 12);
  });
}

TEST(MappedTableStoreCorruption, TruncatedMidSlabRejected) {
  expect_rejected_and_healed("truncate-mid-slab", [](std::string bytes) {
    return bytes.substr(0, bytes.size() - 7);
  });
}

TEST(MappedTableStoreCorruption, BitFlippedSlabFailsChecksum) {
  expect_rejected_and_healed("flip-slab-bit", [](std::string bytes) {
    bytes[bytes.size() - 1] ^= 0x10;  // one bit, last payload byte
    return bytes;
  });
}

TEST(MappedTableStoreCorruption, BitFlippedHeaderFailsChecksum) {
  // GCC 12 under -O2 models an impossible empty-string path through the
  // std::function invocation and flags this in-bounds write (the file is
  // always 64+ bytes here); scoped suppression, not a real overflow.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wstringop-overflow"
#endif
  expect_rejected_and_healed("flip-header-bit", [](std::string bytes) {
    if (bytes.size() > 40) {
      bytes[40] ^= 0x01;  // slab_bytes field, in the checksummed span
    }
    return bytes;
  });
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
}

TEST(MappedTableStoreCorruption, WrongMagicRejected) {
  expect_rejected_and_healed("wrong-magic", [](std::string bytes) {
    bytes[0] = 'X';
    return bytes;
  });
}

TEST(MappedTableStoreCorruption, StaleFormatVersionRejected) {
  // A structurally perfect file from "format v2": version patched AND the
  // header checksum recomputed, so the VERSION check itself must fire (the
  // checksum cannot save us from a future format we do not understand).
  expect_rejected_and_healed("stale-version", [](std::string bytes) {
    bytes[8] = 2;  // version u32 at offset 8 (little-endian low byte)
    const std::uint64_t sum = util::checksum_bytes(bytes.data(), 56);
    std::memcpy(bytes.data() + 56, &sum, sizeof(sum));
    return bytes;
  });
}

/// Adds `delta` to the payload value W(p)[L] of a baked `small_request()`
/// file and recomputes both checksums, so only the value check can object.
std::string rewrite_payload_value(std::string bytes, int p, Ticks l, Ticks delta) {
  constexpr std::size_t kHeader = 64;
  const std::size_t stride = static_cast<std::size_t>(small_request().max_lifespan) + 1;
  const std::size_t at = kHeader + (static_cast<std::size_t>(p) * stride +
                                    static_cast<std::size_t>(l)) * sizeof(Ticks);
  Ticks value;
  std::memcpy(&value, bytes.data() + at, sizeof(value));
  value += delta;
  std::memcpy(bytes.data() + at, &value, sizeof(value));
  const std::uint64_t slab_sum =
      util::checksum_bytes(bytes.data() + kHeader, bytes.size() - kHeader);
  std::memcpy(bytes.data() + 48, &slab_sum, sizeof(slab_sum));
  const std::uint64_t header_sum = util::checksum_bytes(bytes.data(), 56);
  std::memcpy(bytes.data() + 56, &header_sum, sizeof(header_sum));
  return bytes;
}

TEST(MappedTableStoreCorruption, IllegalLevelWithValidChecksumRejected) {
  // Checksummed payloads that are not W levels: a level that jumps by 3, one
  // that steps down, and one that does not start at 0. Each passes every
  // format check and must still be rejected by the compression pass.
  expect_rejected_and_healed("level-jumps", [](std::string bytes) {
    return rewrite_payload_value(std::move(bytes), 1, 40, 3);
  });
  expect_rejected_and_healed("level-steps-down", [](std::string bytes) {
    return rewrite_payload_value(std::move(bytes), 2, 50, -3);
  });
  expect_rejected_and_healed("level-starts-above-zero", [](std::string bytes) {
    return rewrite_payload_value(std::move(bytes), 0, 0, 1);
  });
}

TEST(MappedTableStoreCorruption, HeaderKeyMismatchRejected) {
  // A VALID file for key A parked at key B's content address (a mis-filed
  // or maliciously renamed entry): internally consistent, but its header
  // identity does not match the request — must be rejected, not served.
  nowsched::testing::TempDir dir("misfiled");
  MappedTableStore store({dir.str()});
  const SolveRequest req_a = small_request(1, 32, 8);
  const SolveRequest req_b = small_request(2, 64, 8);
  auto [key_a, table_a] = bake_one(store, req_a);
  const SolveKey key_b = canonical_key(req_b);
  std::filesystem::rename(store.path_for(key_a), store.path_for(key_b));

  EXPECT_TRUE(MappedTableStore::validate_file(store.path_for(key_b)).empty())
      << "file itself is valid...";
  EXPECT_FALSE(
      MappedTableStore::validate_file(store.path_for(key_b), &key_b).empty())
      << "...but not for key B";
  EXPECT_EQ(store.load(key_b), nullptr);
  EXPECT_EQ(store.stats().rejected, 1u);
  EXPECT_FALSE(std::filesystem::exists(store.path_for(key_b)));
}

TEST(MappedTableStoreCorruption, ReadOnlyStoreRejectsWithoutPurging) {
  nowsched::testing::TempDir dir("ro-corrupt");
  const SolveRequest req = small_request();
  const SolveKey key = canonical_key(req);
  {
    MappedTableStore writer({dir.str()});
    bake_one(writer, req);
  }
  MappedTableStore reader({dir.str(), /*read_only=*/true});
  const std::string path = reader.path_for(key);
  std::string bytes = read_file(path);
  bytes[70] ^= 0x40;
  write_file(path, bytes);

  EXPECT_EQ(reader.load(key), nullptr);
  EXPECT_EQ(reader.stats().rejected, 1u);
  EXPECT_TRUE(std::filesystem::exists(path))
      << "read-only mount must not unlink someone else's file";
}

TEST(MappedTableStoreCorruption, ValidateFileOnMissingPathNamesTheProblem) {
  nowsched::testing::TempDir dir("missing");
  EXPECT_FALSE(
      MappedTableStore::validate_file((dir.path() / "nope.nwt").string())
          .empty());
}

// ---------------------------------------------------------------------------
// Concurrency: read-while-bake (threads) and racing writers (processes)
// ---------------------------------------------------------------------------

TEST(MappedTableStoreConcurrency, ReadWhileBakeIsCleanAndEventuallyHits) {
  // Readers poll while writers bake a disjoint key set; every successful
  // load must be bit-identical to the fresh solve. Runs under TSan in CI.
  nowsched::testing::TempDir dir("race");
  auto store = std::make_shared<MappedTableStore>(
      MappedTableStore::Options{dir.str()});
  constexpr int kKeys = 6;
  std::vector<SolveRequest> requests;
  std::vector<std::shared_ptr<const ValueTable>> solved;
  for (int k = 0; k < kKeys; ++k) {
    requests.push_back(small_request(1 + (k % 3), 32 + 8 * k, 8));
    solved.push_back(solve_shared(requests.back()));
  }

  std::vector<std::thread> threads;
  // Two writer threads contend over every key (exercising build-once skips
  // and temp-tag uniqueness in-process)...
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&] {
      for (int k = 0; k < kKeys; ++k) {
        store->store(canonical_key(requests[k]), solved[k]);
      }
    });
  }
  // ...while reader threads poll until every key serves.
  for (int r = 0; r < 3; ++r) {
    threads.emplace_back([&] {
      for (int k = 0; k < kKeys; ++k) {
        std::shared_ptr<const ValueTable> table;
        while ((table = store->load(canonical_key(requests[k]))) == nullptr) {
          std::this_thread::yield();
        }
        expect_tables_identical(*solved[k], *table);
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(store->stats().rejected, 0u);
  EXPECT_EQ(store->stats().entries, static_cast<std::size_t>(kKeys));
}

#if !defined(_WIN32)
TEST(MappedTableStoreConcurrency, ForkedProcessesRacingBuildOnceProduceOneValidEntry) {
  // N child processes race to solve-and-publish ONE key. Whatever the
  // interleaving of their temp writes and renames, the parent must find
  // exactly one file, fully valid, bit-identical to its own fresh solve —
  // the cross-process half of the determinism story.
  nowsched::testing::TempDir dir("fork");
  const SolveRequest req = small_request(2, 96, 8);
  const SolveKey key = canonical_key(req);

  constexpr int kChildren = 4;
  std::vector<pid_t> children;
  for (int i = 0; i < kChildren; ++i) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0) << "fork failed";
    if (pid == 0) {
      // Child: own store handle, own solve, own spill. _exit (not exit)
      // skips the parent's atexit/gtest teardown.
      int status = 1;
      try {
        MappedTableStore store({dir.str()});
        if (store.store(key, solve_shared(req)) ||
            store.stats().store_skips > 0) {
          status = 0;
        }
      } catch (...) {
      }
      ::_exit(status);
    }
    children.push_back(pid);
  }
  for (const pid_t pid : children) {
    int wstatus = 0;
    ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
    EXPECT_TRUE(WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0)
        << "child " << pid << " failed";
  }

  // Exactly one store file (every temp name cleaned up)...
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path())) {
    EXPECT_EQ(entry.path().extension(), ".nwt")
        << "stray file: " << entry.path();
    ++files;
  }
  EXPECT_EQ(files, 1u);

  // ...fully valid, and bit-identical to a fresh in-process solve: the
  // table solved in process A, mapped in process B.
  MappedTableStore store({dir.str(), /*read_only=*/true});
  EXPECT_TRUE(
      MappedTableStore::validate_file(store.path_for(key), &key).empty());
  auto mapped = store.load(key);
  ASSERT_NE(mapped, nullptr);
  expect_tables_identical(*solve_shared(req), *mapped);
}
#endif  // !_WIN32

}  // namespace
}  // namespace nowsched::solver
