#include "solver/table_store.h"

#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/mmap_file.h"

#if defined(_WIN32)
#include <process.h>
#else
#include <unistd.h>
#endif

namespace nowsched::solver {

// ---------------------------------------------------------------------------
// MappedTableStore — the `nowsched-table v1` format
// ---------------------------------------------------------------------------

namespace {

constexpr char kMagic[8] = {'N', 'W', 'T', 'A', 'B', 'L', 'E', '1'};
constexpr std::uint32_t kFormatVersion = 1;
constexpr const char* kFileSuffix = ".nwt";

/// The fixed 64-byte file header (field table in table_store.h). Packed by
/// construction: 8 + 4 + 4 + 3×8 + 3×8 leaves no padding holes, which the
/// static_asserts pin — checksums over struct bytes must be layout-stable.
struct FileHeader {
  char magic[8];
  std::uint32_t version;
  std::uint32_t reserved;
  std::int64_t max_p;
  std::int64_t max_lifespan;
  std::int64_t c;
  std::uint64_t slab_bytes;
  std::uint64_t slab_checksum;
  std::uint64_t header_checksum;  ///< over the 56 bytes preceding this field
};
static_assert(sizeof(FileHeader) == 64, "nowsched-table v1 header is 64 bytes");
static_assert(std::is_trivially_copyable_v<FileHeader>);
constexpr std::size_t kHeaderChecksumSpan = offsetof(FileHeader, header_checksum);
static_assert(kHeaderChecksumSpan == 56);

FileHeader make_header(const SolveKey& key, std::size_t slab_bytes,
                       std::uint64_t slab_checksum) {
  FileHeader header{};
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.version = kFormatVersion;
  header.reserved = 0;
  header.max_p = key.max_p;
  header.max_lifespan = key.max_lifespan;
  header.c = key.c;
  header.slab_bytes = static_cast<std::uint64_t>(slab_bytes);
  header.slab_checksum = slab_checksum;
  header.header_checksum = util::checksum_bytes(&header, kHeaderChecksumSpan);
  return header;
}

/// Full-format validation against a mapped file. Returns the reason the
/// file is defective, or empty when it is a well-formed `nowsched-table v1`
/// whose header matches `expect` (when given). On success fills *out_header.
std::string check_mapped(const util::MappedFile& file, const SolveKey* expect,
                         FileHeader* out_header) {
  if (file.size() < sizeof(FileHeader)) {
    return "truncated: " + std::to_string(file.size()) +
           " bytes, header needs " + std::to_string(sizeof(FileHeader));
  }
  FileHeader header;
  std::memcpy(&header, file.data(), sizeof(header));
  if (std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0) {
    return "bad magic (not a nowsched-table file)";
  }
  if (header.version != kFormatVersion) {
    return "format version " + std::to_string(header.version) +
           " (this build reads v" + std::to_string(kFormatVersion) + ")";
  }
  if (header.header_checksum !=
      util::checksum_bytes(file.data(), kHeaderChecksumSpan)) {
    return "header checksum mismatch";
  }
  if (header.max_p < 0 || header.max_lifespan < 0 || header.c < 1) {
    return "header key fields out of range";
  }
  const std::size_t expected_slab =
      (static_cast<std::size_t>(header.max_p) + 1) *
      (static_cast<std::size_t>(header.max_lifespan) + 1) * sizeof(Ticks);
  if (header.slab_bytes != expected_slab) {
    return "slab_bytes " + std::to_string(header.slab_bytes) +
           " disagrees with header dims (" + std::to_string(expected_slab) + ")";
  }
  if (file.size() != sizeof(FileHeader) + header.slab_bytes) {
    return "file is " + std::to_string(file.size()) + " bytes, header promises " +
           std::to_string(sizeof(FileHeader) + header.slab_bytes);
  }
  if (expect != nullptr &&
      (header.max_p != expect->max_p ||
       header.max_lifespan != expect->max_lifespan || header.c != expect->c)) {
    return "header key (p=" + std::to_string(header.max_p) + ", L=" +
           std::to_string(header.max_lifespan) + ", c=" +
           std::to_string(header.c) + ") does not match the requested key";
  }
  if (header.slab_checksum !=
      util::checksum_bytes(file.data() + sizeof(FileHeader),
                           static_cast<std::size_t>(header.slab_bytes))) {
    return "slab checksum mismatch";
  }
  if (out_header != nullptr) *out_header = header;
  return {};
}

std::string hex16(std::uint64_t value) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[value & 0xF];
    value >>= 4;
  }
  return out;
}

/// Compresses a checked file's payload into a table. Returns the reason the
/// payload is not a table — some level is not a legal W level — or empty,
/// with the table in *out.
std::string decode_payload(const util::MappedFile& file, const FileHeader& header,
                           std::shared_ptr<const ValueTable>* out) {
  const auto* slab = reinterpret_cast<const Ticks*>(file.data() + sizeof(FileHeader));
  const std::size_t stride = static_cast<std::size_t>(header.max_lifespan) + 1;
  try {
    auto table = std::make_shared<ValueTable>(static_cast<int>(header.max_p),
                                              header.max_lifespan, Params{header.c});
    for (int p = 0; p <= table->max_interrupts(); ++p) {
      table->assign_level(p, std::span<const Ticks>(
                                 slab + static_cast<std::size_t>(p) * stride, stride));
    }
    if (out != nullptr) *out = std::move(table);
  } catch (const std::invalid_argument& e) {
    return std::string("payload is not a value table: ") + e.what();
  }
  return {};
}

}  // namespace

MappedTableStore::MappedTableStore(Options options)
    : options_(std::move(options)) {
  if (options_.dir.empty()) {
    throw std::runtime_error("MappedTableStore: empty store directory");
  }
  std::error_code ec;
  if (options_.read_only) {
    if (!std::filesystem::is_directory(options_.dir, ec)) {
      throw std::runtime_error("MappedTableStore: read-only store directory '" +
                               options_.dir + "' does not exist");
    }
  } else {
    std::filesystem::create_directories(options_.dir, ec);
    if (ec || !std::filesystem::is_directory(options_.dir)) {
      throw std::runtime_error("MappedTableStore: cannot create store directory '" +
                               options_.dir + "': " + ec.message());
    }
  }
}

std::string MappedTableStore::file_name(const SolveKey& key) {
  return hex16(key.hash()) + kFileSuffix;
}

std::string MappedTableStore::path_for(const SolveKey& key) const {
  return (std::filesystem::path(options_.dir) / file_name(key)).string();
}

std::shared_ptr<const ValueTable> MappedTableStore::load(const SolveKey& key) {
  const std::string path = path_for(key);
  std::unique_ptr<util::MappedFile> file = util::MappedFile::open(path);
  if (file == nullptr) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  FileHeader header;
  std::shared_ptr<const ValueTable> table;
  std::string defect = check_mapped(*file, &key, &header);
  if (defect.empty()) defect = decode_payload(*file, header, &table);
  if (!defect.empty()) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    if (!options_.read_only && options_.purge_rejected) {
      std::error_code ec;
      std::filesystem::remove(path, ec);  // best effort; next spill heals
    }
    return nullptr;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  return table;
}

bool MappedTableStore::store(const SolveKey& key,
                             const std::shared_ptr<const ValueTable>& table) {
  if (options_.read_only) {
    store_skips_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  const std::string path = path_for(key);
  std::error_code ec;
  if (std::filesystem::exists(path, ec)) {
    // Build-once: somebody already published this key. A corrupt survivor
    // is healed through load()'s purge path, not overwritten here.
    store_skips_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  const std::vector<Ticks> slab = table->slab();
  const std::size_t slab_bytes = slab.size() * sizeof(Ticks);
  const FileHeader header = make_header(
      key, slab_bytes, util::checksum_bytes(slab.data(), slab_bytes));

  std::vector<unsigned char> payload(sizeof(FileHeader) + slab_bytes);
  std::memcpy(payload.data(), &header, sizeof(header));
  std::memcpy(payload.data() + sizeof(FileHeader), slab.data(), slab_bytes);

  // Process-unique temp tag: two processes (or two tenant caches in one
  // process) racing a spill must not share a temp file, or interleaved
  // writes could publish garbage through a valid rename.
  const std::string tag =
#if defined(_WIN32)
      std::to_string(static_cast<unsigned long>(::_getpid())) +
#else
      std::to_string(static_cast<unsigned long>(::getpid())) +
#endif
      "." + std::to_string(write_tag_.fetch_add(1, std::memory_order_relaxed));
  if (!util::atomic_write_file(path, payload.data(), payload.size(), tag)) {
    return false;
  }
  stores_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void MappedTableStore::clear() {
  if (options_.read_only) return;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(options_.dir, ec)) {
    if (entry.path().extension() == kFileSuffix) {
      std::error_code remove_ec;
      std::filesystem::remove(entry.path(), remove_ec);
    }
  }
}

TableStoreStats MappedTableStore::stats() const {
  TableStoreStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.stores = stores_.load(std::memory_order_relaxed);
  s.store_skips = store_skips_.load(std::memory_order_relaxed);
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(options_.dir, ec)) {
    if (entry.path().extension() != kFileSuffix) continue;
    std::error_code size_ec;
    const auto size = std::filesystem::file_size(entry.path(), size_ec);
    if (size_ec) continue;
    ++s.entries;
    s.bytes += size > sizeof(FileHeader)
                   ? static_cast<std::size_t>(size) - sizeof(FileHeader)
                   : 0;
  }
  return s;
}

std::string MappedTableStore::validate_file(const std::string& path,
                                            const SolveKey* expect) {
  std::unique_ptr<util::MappedFile> file = util::MappedFile::open(path);
  if (file == nullptr) return "cannot open '" + path + "'";
  FileHeader header;
  const std::string defect = check_mapped(*file, expect, &header);
  return defect.empty() ? decode_payload(*file, header, nullptr) : defect;
}

}  // namespace nowsched::solver
