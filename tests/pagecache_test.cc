// Page-cache unit tests plus kernel-level consistency properties: whatever
// the cache does, reads through the kernel must always return what the
// filesystem holds.

#include "src/os/pagecache.h"

#include <gtest/gtest.h>

#include <random>

#include "src/os/kernel.h"

namespace witos {
namespace {

TEST(PageCacheTest, InsertLookupInvalidate) {
  PageCache cache;
  MemFs fs;
  EXPECT_EQ(cache.Lookup(&fs, "/f", 0), nullptr);
  cache.Insert(&fs, "/f", 0, "block-zero");
  ASSERT_NE(cache.Lookup(&fs, "/f", 0), nullptr);
  EXPECT_EQ(*cache.Lookup(&fs, "/f", 0), "block-zero");
  EXPECT_EQ(cache.bytes(), 10u);
  cache.InvalidateFile(&fs, "/f");
  EXPECT_EQ(cache.Lookup(&fs, "/f", 0), nullptr);
  EXPECT_EQ(cache.bytes(), 0u);
}

TEST(PageCacheTest, RangeInvalidationIsBlockGranular) {
  PageCache cache;
  MemFs fs;
  cache.Insert(&fs, "/f", 0, "a");
  cache.Insert(&fs, "/f", 1, "b");
  cache.Insert(&fs, "/f", 2, "c");
  // Invalidate bytes inside block 1 only.
  cache.InvalidateRange(&fs, "/f", PageCache::kBlockSize + 5, 10);
  EXPECT_NE(cache.Lookup(&fs, "/f", 0), nullptr);
  EXPECT_EQ(cache.Lookup(&fs, "/f", 1), nullptr);
  EXPECT_NE(cache.Lookup(&fs, "/f", 2), nullptr);
}

TEST(PageCacheTest, DistinctFilesAndFilesystemsAreDistinctKeys) {
  PageCache cache;
  MemFs fs_a;
  MemFs fs_b;
  cache.Insert(&fs_a, "/f", 0, "from-a");
  cache.Insert(&fs_b, "/f", 0, "from-b");
  cache.Insert(&fs_a, "/g", 0, "other-file");
  EXPECT_EQ(*cache.Lookup(&fs_a, "/f", 0), "from-a");
  EXPECT_EQ(*cache.Lookup(&fs_b, "/f", 0), "from-b");
  cache.InvalidateFile(&fs_a, "/f");
  EXPECT_EQ(cache.Lookup(&fs_a, "/f", 0), nullptr);
  EXPECT_NE(cache.Lookup(&fs_b, "/f", 0), nullptr);
  EXPECT_NE(cache.Lookup(&fs_a, "/g", 0), nullptr);
  // Dropping a filesystem removes every file it cached, and nothing else.
  cache.Insert(&fs_a, "/h", 3, "block-three");
  cache.DropFilesystem(&fs_a);
  EXPECT_EQ(cache.Lookup(&fs_a, "/g", 0), nullptr);
  EXPECT_EQ(cache.Lookup(&fs_a, "/h", 3), nullptr);
  EXPECT_NE(cache.Lookup(&fs_b, "/f", 0), nullptr);
  EXPECT_EQ(cache.bytes(), 6u);
}

TEST(PageCacheTest, OverflowEvictsOldestFirstNotEverything) {
  PageCache cache(1024);
  MemFs fs;
  cache.Insert(&fs, "/a", 0, std::string(400, 'a'));
  cache.Insert(&fs, "/b", 0, std::string(400, 'b'));
  cache.Insert(&fs, "/c", 0, std::string(400, 'c'));
  // Only the oldest block had to go; the other two still fit.
  EXPECT_EQ(cache.Lookup(&fs, "/a", 0), nullptr);
  EXPECT_NE(cache.Lookup(&fs, "/b", 0), nullptr);
  EXPECT_NE(cache.Lookup(&fs, "/c", 0), nullptr);
  EXPECT_EQ(cache.bytes(), 800u);
  EXPECT_EQ(cache.evictions(), 1u);
  // Oversized blocks are simply not cached — and evict nothing.
  cache.Insert(&fs, "/huge", 0, std::string(4096, 'z'));
  EXPECT_EQ(cache.Lookup(&fs, "/huge", 0), nullptr);
  EXPECT_EQ(cache.bytes(), 800u);
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST(PageCacheTest, ReinsertSameKeyKeepsBytesExactAndRefreshesOrder) {
  PageCache cache(1024);
  MemFs fs;
  cache.Insert(&fs, "/a", 0, std::string(400, 'a'));
  cache.Insert(&fs, "/b", 0, std::string(400, 'b'));
  // Overwriting a cached block replaces it in place: exact byte accounting,
  // not an eviction, and the block becomes the newest insertion.
  cache.Insert(&fs, "/a", 0, std::string(100, 'A'));
  EXPECT_EQ(cache.bytes(), 500u);
  EXPECT_EQ(cache.evictions(), 0u);
  cache.Insert(&fs, "/c", 0, std::string(600, 'c'));
  EXPECT_EQ(cache.Lookup(&fs, "/b", 0), nullptr);  // /b was the oldest
  ASSERT_NE(cache.Lookup(&fs, "/a", 0), nullptr);
  EXPECT_EQ(cache.Lookup(&fs, "/a", 0)->size(), 100u);
  EXPECT_NE(cache.Lookup(&fs, "/c", 0), nullptr);
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST(PageCacheTest, InvalidationsDoNotCountAsEvictions) {
  PageCache cache(1024);
  MemFs fs;
  cache.Insert(&fs, "/f", 0, std::string(200, 'x'));
  cache.InvalidateFile(&fs, "/f");
  cache.Insert(&fs, "/g", 0, std::string(200, 'y'));
  cache.Clear();
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_EQ(cache.evictions(), 0u);
}

TEST(KernelCacheTest, RepeatReadsHitCache) {
  Kernel kernel("host");
  std::string content(300 * 1024, 'q');  // spans three blocks
  kernel.root_fs().ProvisionFile("/big", content);
  EXPECT_EQ(*kernel.ReadFile(1, "/big"), content);
  uint64_t misses_after_first = kernel.page_cache().misses();
  EXPECT_GT(misses_after_first, 0u);
  EXPECT_EQ(*kernel.ReadFile(1, "/big"), content);
  EXPECT_EQ(kernel.page_cache().misses(), misses_after_first);  // all hits
  EXPECT_GT(kernel.page_cache().hits(), 0u);
}

TEST(KernelCacheTest, WriteThenReadIsCoherent) {
  Kernel kernel("host");
  kernel.root_fs().ProvisionFile("/f", std::string(256 * 1024, 'a'));
  ASSERT_EQ(kernel.ReadFile(1, "/f")->substr(0, 4), "aaaa");  // warm the cache
  // Overwrite a slice in the middle of block 0.
  auto fd = kernel.Open(1, "/f", kOpenWrite);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(kernel.Lseek(1, *fd, 100).ok());
  ASSERT_TRUE(kernel.Write(1, *fd, "UPDATED").ok());
  ASSERT_TRUE(kernel.Close(1, *fd).ok());
  std::string after = *kernel.ReadFile(1, "/f");
  EXPECT_EQ(after.substr(100, 7), "UPDATED");
  EXPECT_EQ(after.substr(0, 4), "aaaa");
}

TEST(KernelCacheTest, TruncateInvalidates) {
  Kernel kernel("host");
  kernel.root_fs().ProvisionFile("/f", std::string(1000, 'x'));
  ASSERT_EQ(kernel.ReadFile(1, "/f")->size(), 1000u);
  ASSERT_TRUE(kernel.Truncate(1, "/f", 10).ok());
  EXPECT_EQ(kernel.ReadFile(1, "/f")->size(), 10u);
}

TEST(KernelCacheTest, AppendGrowsPastCachedEofBlock) {
  Kernel kernel("host");
  ASSERT_TRUE(kernel.WriteFile(1, "/log", "line1\n").ok());
  EXPECT_EQ(*kernel.ReadFile(1, "/log"), "line1\n");  // caches the short block
  ASSERT_TRUE(kernel.WriteFile(1, "/log", "line2\n", /*append=*/true).ok());
  EXPECT_EQ(*kernel.ReadFile(1, "/log"), "line1\nline2\n");
}

TEST(KernelCacheTest, DropCachesForcesRefetch) {
  Kernel kernel("host");
  kernel.root_fs().ProvisionFile("/f", "content");
  ASSERT_TRUE(kernel.ReadFile(1, "/f").ok());
  uint64_t misses = kernel.page_cache().misses();
  kernel.DropCaches();
  ASSERT_TRUE(kernel.ReadFile(1, "/f").ok());
  EXPECT_GT(kernel.page_cache().misses(), misses);
}

// Property: a random sequence of writes/reads/truncates through the kernel
// always observes exactly the filesystem's ground truth.
class CacheConsistencySweep : public ::testing::TestWithParam<uint32_t> {};

TEST_P(CacheConsistencySweep, RandomOpsStayCoherent) {
  Kernel kernel("host");
  const std::string path = "/workfile";
  ASSERT_TRUE(kernel.WriteFile(1, path, "").ok());
  std::string model;  // reference content
  std::mt19937 rng(GetParam());
  std::uniform_int_distribution<int> action(0, 3);
  std::uniform_int_distribution<size_t> offset_dist(0, 400000);
  std::uniform_int_distribution<size_t> len_dist(1, 200000);
  for (int step = 0; step < 60; ++step) {
    switch (action(rng)) {
      case 0: {  // positioned write
        size_t offset = std::min(offset_dist(rng), model.size());
        std::string chunk(len_dist(rng), static_cast<char>('a' + step % 26));
        auto fd = kernel.Open(1, path, kOpenWrite);
        ASSERT_TRUE(fd.ok());
        ASSERT_TRUE(kernel.Lseek(1, *fd, offset).ok());
        ASSERT_TRUE(kernel.Write(1, *fd, chunk).ok());
        ASSERT_TRUE(kernel.Close(1, *fd).ok());
        if (offset + chunk.size() > model.size()) {
          model.resize(offset + chunk.size(), '\0');
        }
        model.replace(offset, chunk.size(), chunk);
        break;
      }
      case 1: {  // full read must match the model
        EXPECT_EQ(*kernel.ReadFile(1, path), model);
        break;
      }
      case 2: {  // truncate
        size_t size = std::min(offset_dist(rng), model.size());
        ASSERT_TRUE(kernel.Truncate(1, path, size).ok());
        model.resize(size, '\0');
        break;
      }
      default: {  // random positioned read
        size_t offset = offset_dist(rng);
        size_t len = len_dist(rng);
        auto fd = kernel.Open(1, path, kOpenRead);
        ASSERT_TRUE(fd.ok());
        ASSERT_TRUE(kernel.Lseek(1, *fd, offset).ok());
        auto data = kernel.Read(1, *fd, len);
        ASSERT_TRUE(data.ok());
        std::string expected =
            offset >= model.size() ? "" : model.substr(offset, std::min(len, model.size() - offset));
        EXPECT_EQ(*data, expected);
        ASSERT_TRUE(kernel.Close(1, *fd).ok());
        break;
      }
    }
  }
  EXPECT_EQ(*kernel.ReadFile(1, path), model);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheConsistencySweep, ::testing::Range(1u, 9u));

}  // namespace
}  // namespace witos
