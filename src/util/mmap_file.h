// File I/O primitives for the persistent table store: a platform-stable
// 64-bit content checksum, a read-only memory mapping with RAII lifetime,
// and crash-safe whole-file publication (temp file + atomic rename).
//
// Checksumming uses the same SplitMix64 mixing chain as util/hash.h, so a
// store file's integrity verdict is identical on every platform — the same
// discipline that keeps SolveKey shard assignment and RNG stream derivation
// reproducible. A single flipped bit anywhere in the input avalanches
// through hash_combine, so corruption detection does not depend on where in
// the slab the damage landed.
//
// MappedFile is the read path: the kernel's page cache IS the shared cache
// when N processes map one store file, and the table store compresses a
// mapped payload into its own table before it drops the mapping. On
// platforms without
// <sys/mman.h> the class degrades to read-the-file-into-memory — same
// interface, same correctness, no sharing.
//
// atomic_write_file is the build-once publication primitive: writers dump
// the full payload into a private sibling temp file and rename() it over the
// target, so a reader NEVER observes a half-written file — it sees the old
// file, the new file, or nothing. Concurrent writers of identical content
// (the table store's case: solves are deterministic) are safe by the same
// argument: last rename wins and every version was complete and identical.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#if defined(_WIN32)
#include <fstream>
#include <vector>
#else
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "util/hash.h"

namespace nowsched::util {

/// Platform-stable 64-bit checksum of a byte range: SplitMix64-mixed 8-byte
/// words chained with hash_combine, seeded with the length so that prefixes
/// and zero-padded extensions do not collide. Not cryptographic — this
/// guards against bit rot and truncation, not adversaries with write access
/// to the store directory.
[[nodiscard]] inline std::uint64_t checksum_bytes(const void* data,
                                                  std::size_t size) noexcept {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t h = hash_mix(0x6E777363u /* "nwsc" */ ^
                             static_cast<std::uint64_t>(size));
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    std::uint64_t word;
    std::memcpy(&word, bytes + i, 8);
    h = hash_combine(h, word);
  }
  if (i < size) {
    std::uint64_t tail = 0;
    for (std::size_t k = 0; i < size; ++i, ++k) {
      tail |= static_cast<std::uint64_t>(bytes[i]) << (8 * k);
    }
    h = hash_combine(h, tail);
  }
  return h;
}

/// A whole file mapped (or, on non-POSIX platforms, read) into memory,
/// read-only. Open never throws — a missing or unreadable file is a null
/// return, because for the table store "cannot load" is a cache miss, not
/// an error.
class MappedFile {
 public:
  /// Maps `path` read-only; returns nullptr when the file cannot be opened
  /// or mapped. An empty file maps successfully with size() == 0.
  static std::unique_ptr<MappedFile> open(const std::string& path) {
#if defined(_WIN32)
    std::ifstream in(path, std::ios::binary);
    if (!in) return nullptr;
    std::vector<unsigned char> buffer((std::istreambuf_iterator<char>(in)),
                                      std::istreambuf_iterator<char>());
    if (!in.good() && !in.eof()) return nullptr;
    auto file = std::unique_ptr<MappedFile>(new MappedFile());
    file->buffer_ = std::move(buffer);
    file->size_ = file->buffer_.size();
    file->data_ = file->buffer_.data();
    return file;
#else
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) return nullptr;
    struct stat st;
    if (::fstat(fd, &st) != 0 || st.st_size < 0) {
      ::close(fd);
      return nullptr;
    }
    auto file = std::unique_ptr<MappedFile>(new MappedFile());
    file->size_ = static_cast<std::size_t>(st.st_size);
    if (file->size_ > 0) {
      void* base = ::mmap(nullptr, file->size_, PROT_READ, MAP_SHARED, fd, 0);
      if (base == MAP_FAILED) {
        ::close(fd);
        return nullptr;
      }
      file->mapping_ = base;
      file->data_ = static_cast<const unsigned char*>(base);
    }
    ::close(fd);  // the mapping keeps the inode alive; the fd is not needed
    return file;
#endif
  }

  ~MappedFile() {
#if !defined(_WIN32)
    if (mapping_ != nullptr) ::munmap(mapping_, size_);
#endif
  }

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  const unsigned char* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }

 private:
  MappedFile() = default;

  const unsigned char* data_ = nullptr;
  std::size_t size_ = 0;
#if defined(_WIN32)
  std::vector<unsigned char> buffer_;
#else
  void* mapping_ = nullptr;
#endif
};

/// Publishes `size` bytes at `path` atomically: the payload is written to a
/// sibling temp file (same directory, so rename cannot cross filesystems)
/// and renamed over the target. Returns false — leaving the target
/// untouched — on any I/O failure. `tag` disambiguates concurrent writers'
/// temp names (pass something process/thread-unique); the renames
/// themselves need no coordination because each is atomic and every writer
/// publishes identical complete content or none.
inline bool atomic_write_file(const std::string& path, const void* data,
                              std::size_t size, const std::string& tag) {
  const std::string tmp = path + ".tmp." + tag;
#if defined(_WIN32)
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out.write(static_cast<const char*>(data),
              static_cast<std::streamsize>(size));
    if (!out.good()) {
      out.close();
      std::remove(tmp.c_str());
      return false;
    }
  }
  // Windows rename() fails on an existing target; the table store's content
  // is deterministic per name, so replacing is equivalent to keeping.
  std::remove(path.c_str());
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
#else
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return false;
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  std::size_t written = 0;
  while (written < size) {
    const ::ssize_t n = ::write(fd, bytes + written, size - written);
    if (n < 0) {
      ::close(fd);
      ::unlink(tmp.c_str());
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  // Flush payload before publishing the name: after a crash the target is
  // either absent or complete, never garbage with a valid-looking header.
  if (::fsync(fd) != 0 || ::close(fd) != 0) {
    ::unlink(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return false;
  }
  return true;
#endif
}

}  // namespace nowsched::util
