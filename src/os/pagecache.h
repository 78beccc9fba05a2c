// The kernel page cache: 128KB blocks keyed by (filesystem, path, block).
//
// Sitting *above* the mounted filesystem — and therefore above any FUSE
// stack — the cache is what gives cached random IO (SysBench) near-native
// performance through ITFS while cold streaming reads (grep) and
// metadata-heavy loops (Postmark) pay the full interposition cost, exactly
// the behaviour Figure 9 of the paper reports.
//
// Policy: read misses fetch whole covering blocks through the filesystem
// (readahead); writes update fully covered blocks and invalidate partially
// covered ones; capacity overflow evicts whole blocks oldest-first
// (insertion order), so one large streaming file ages out of the cache
// instead of wiping a hot working set.
//
// Threading: the cache itself follows the machine's single-owner rule (the
// owning kernel is only driven under that machine's lock). Only the
// hit/miss/eviction counters are atomic, so cross-shard observability
// readers (witserve's per-shard page-cache gauges) can sample them without
// taking the machine lock.

#ifndef SRC_OS_PAGECACHE_H_
#define SRC_OS_PAGECACHE_H_

#include <atomic>
#include <list>
#include <map>
#include <string>
#include <tuple>

namespace witos {

class Filesystem;

class PageCache {
 public:
  static constexpr uint64_t kBlockSize = 128 * 1024;

  explicit PageCache(uint64_t capacity_bytes = 64ull * 1024 * 1024)
      : capacity_(capacity_bytes) {}

  // Returns the cached block or nullptr. A present block may be short (the
  // file's EOF block).
  const std::string* Lookup(const Filesystem* fs, const std::string& path,
                            uint64_t block) const;

  void Insert(const Filesystem* fs, const std::string& path, uint64_t block, std::string data);

  // Invalidates the blocks covering [offset, offset+len) of the file; a
  // write that exactly covers a block may Insert() instead.
  void InvalidateRange(const Filesystem* fs, const std::string& path, uint64_t offset,
                       uint64_t len);
  // Invalidates everything cached for the file (truncate/unlink/rename).
  void InvalidateFile(const Filesystem* fs, const std::string& path);
  // Drops every block cached through `fs`. Blocks are keyed by the
  // filesystem's address, so whoever frees a mounted filesystem drops its
  // blocks; a later filesystem at the same address then starts cold.
  void DropFilesystem(const Filesystem* fs);

  void Clear();

  // Resizes the cache; shrinking evicts oldest blocks immediately so the
  // new budget holds (the eviction-sweep bench resizes a live cache).
  void set_capacity(uint64_t capacity_bytes) {
    capacity_ = capacity_bytes;
    EvictUntil(capacity_);
  }
  uint64_t capacity() const { return capacity_; }

  uint64_t bytes() const { return bytes_; }
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  // Blocks pushed out by capacity pressure (invalidations don't count).
  uint64_t evictions() const { return evictions_.load(std::memory_order_relaxed); }
  void CountMiss() const { misses_.fetch_add(1, std::memory_order_relaxed); }

 private:
  using Key = std::tuple<const Filesystem*, std::string, uint64_t>;
  struct Block {
    std::string data;
    std::list<Key>::iterator order_it;  // position in order_
  };

  // Removes one block, keeping blocks_/order_/bytes_ in lockstep.
  void Erase(std::map<Key, Block>::iterator it);
  // Evicts oldest-inserted blocks until bytes_ <= target_bytes.
  void EvictUntil(uint64_t target_bytes);

  std::map<Key, Block> blocks_;
  std::list<Key> order_;  // insertion order, oldest at the front
  uint64_t capacity_;
  uint64_t bytes_ = 0;
  mutable std::atomic<uint64_t> hits_{0};
  mutable std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
};

}  // namespace witos

#endif  // SRC_OS_PAGECACHE_H_
