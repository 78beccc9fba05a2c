#include "src/os/pagecache.h"

namespace witos {

const std::string* PageCache::Lookup(const Filesystem* fs, const std::string& path,
                                     uint64_t block) const {
  auto it = blocks_.find(Key(fs, path, block));
  if (it == blocks_.end()) {
    return nullptr;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  return &it->second.data;
}

void PageCache::Erase(std::map<Key, Block>::iterator it) {
  bytes_ -= it->second.data.size();
  order_.erase(it->second.order_it);
  blocks_.erase(it);
}

void PageCache::EvictUntil(uint64_t target_bytes) {
  while (bytes_ > target_bytes && !order_.empty()) {
    // order_ and blocks_ are kept in lockstep, so the front key is present.
    Erase(blocks_.find(order_.front()));
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

void PageCache::Insert(const Filesystem* fs, const std::string& path, uint64_t block,
                       std::string data) {
  if (data.size() > capacity_) {
    return;  // uncacheable: would evict everything and still not fit
  }
  Key key(fs, path, block);
  auto it = blocks_.find(key);
  if (it != blocks_.end()) {
    // Re-inserting counts as a fresh insertion (the block moves to the back
    // of the eviction order), not as a capacity eviction.
    Erase(it);
  }
  if (bytes_ + data.size() > capacity_) {
    EvictUntil(capacity_ - data.size());
  }
  auto [pos, inserted] = blocks_.emplace(std::move(key), Block{std::move(data), {}});
  (void)inserted;
  order_.push_back(pos->first);
  pos->second.order_it = std::prev(order_.end());
  bytes_ += pos->second.data.size();
}

void PageCache::InvalidateRange(const Filesystem* fs, const std::string& path, uint64_t offset,
                                uint64_t len) {
  if (len == 0) {
    return;
  }
  mutation_generation_.fetch_add(1, std::memory_order_relaxed);
  uint64_t first = offset / kBlockSize;
  uint64_t last = (offset + len - 1) / kBlockSize;
  for (uint64_t block = first; block <= last; ++block) {
    auto it = blocks_.find(Key(fs, path, block));
    if (it != blocks_.end()) {
      Erase(it);
    }
  }
}

void PageCache::InvalidateFile(const Filesystem* fs, const std::string& path) {
  mutation_generation_.fetch_add(1, std::memory_order_relaxed);
  Key low(fs, path, 0);
  Key high(fs, path, ~0ull);
  auto it = blocks_.lower_bound(low);
  while (it != blocks_.end() && it->first <= high) {
    auto next = std::next(it);
    Erase(it);
    it = next;
  }
}

void PageCache::DropFilesystem(const Filesystem* fs) {
  mutation_generation_.fetch_add(1, std::memory_order_relaxed);
  auto it = blocks_.lower_bound(Key(fs, std::string(), 0));
  while (it != blocks_.end() && std::get<0>(it->first) == fs) {
    auto next = std::next(it);
    Erase(it);
    it = next;
  }
}

void PageCache::Clear() {
  mutation_generation_.fetch_add(1, std::memory_order_relaxed);
  blocks_.clear();
  order_.clear();
  bytes_ = 0;
}

}  // namespace witos
