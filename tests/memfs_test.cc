#include "src/os/memfs.h"

#include <gtest/gtest.h>

namespace witos {
namespace {

Credentials Root() { return Credentials{}; }

Credentials User(Uid uid) {
  Credentials cred;
  cred.uid = uid;
  cred.gid = uid;
  cred.caps = CapabilitySet::Empty();
  return cred;
}

class MemFsTest : public ::testing::Test {
 protected:
  MemFs fs_;
};

TEST_F(MemFsTest, CreateWriteRead) {
  auto st = fs_.Open("/hello.txt", kOpenCreate | kOpenWrite, 0644, Root());
  ASSERT_TRUE(st.ok());
  ASSERT_TRUE(fs_.WriteAt("/hello.txt", 0, "hi there", Root()).ok());
  std::string buf;
  auto n = fs_.ReadAt("/hello.txt", 0, 100, &buf, Root());
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(buf, "hi there");
}

TEST_F(MemFsTest, ReadAtOffsetAndPastEof) {
  fs_.ProvisionFile("/f", "abcdef");
  std::string buf;
  ASSERT_TRUE(fs_.ReadAt("/f", 2, 2, &buf, Root()).ok());
  EXPECT_EQ(buf, "cd");
  auto n = fs_.ReadAt("/f", 10, 5, &buf, Root());
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 0u);
}

TEST_F(MemFsTest, WriteExtendsFile) {
  fs_.ProvisionFile("/f", "ab");
  ASSERT_TRUE(fs_.WriteAt("/f", 4, "xy", Root()).ok());
  auto st = fs_.GetAttr("/f", Root());
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, 6u);
  std::string buf;
  ASSERT_TRUE(fs_.ReadAt("/f", 0, 10, &buf, Root()).ok());
  EXPECT_EQ(buf, std::string("ab\0\0xy", 6));
}

TEST_F(MemFsTest, OpenNonexistentFails) {
  EXPECT_EQ(fs_.Open("/nope", kOpenRead, 0, Root()).error(), Err::kNoEnt);
}

TEST_F(MemFsTest, OpenExclFailsOnExisting) {
  fs_.ProvisionFile("/f", "x");
  EXPECT_EQ(fs_.Open("/f", kOpenCreate | kOpenExcl | kOpenWrite, 0644, Root()).error(),
            Err::kExist);
}

TEST_F(MemFsTest, TruncOnOpenClearsContent) {
  fs_.ProvisionFile("/f", "content");
  ASSERT_TRUE(fs_.Open("/f", kOpenWrite | kOpenTrunc, 0644, Root()).ok());
  auto st = fs_.GetAttr("/f", Root());
  EXPECT_EQ(st->size, 0u);
}

TEST_F(MemFsTest, MkDirAndReadDir) {
  ASSERT_TRUE(fs_.MkDir("/d", 0755, Root()).ok());
  fs_.ProvisionFile("/d/a", "1");
  fs_.ProvisionFile("/d/b", "2");
  auto entries = fs_.ReadDir("/d", Root());
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 2u);
  EXPECT_EQ((*entries)[0].name, "a");
  EXPECT_EQ((*entries)[1].name, "b");
}

TEST_F(MemFsTest, MkDirExistingFails) {
  ASSERT_TRUE(fs_.MkDir("/d", 0755, Root()).ok());
  EXPECT_EQ(fs_.MkDir("/d", 0755, Root()).error(), Err::kExist);
}

TEST_F(MemFsTest, UnlinkAndRmdirSemantics) {
  fs_.ProvisionFile("/d/f", "x");
  EXPECT_EQ(fs_.Unlink("/d", Root()).error(), Err::kIsDir);
  EXPECT_EQ(fs_.RmDir("/d", Root()).error(), Err::kNotEmpty);
  ASSERT_TRUE(fs_.Unlink("/d/f", Root()).ok());
  ASSERT_TRUE(fs_.RmDir("/d", Root()).ok());
  EXPECT_EQ(fs_.GetAttr("/d", Root()).error(), Err::kNoEnt);
}

TEST_F(MemFsTest, RenameMovesNode) {
  fs_.ProvisionFile("/a/x", "data");
  fs_.ProvisionDir("/b");
  ASSERT_TRUE(fs_.Rename("/a/x", "/b/y", Root()).ok());
  EXPECT_EQ(fs_.GetAttr("/a/x", Root()).error(), Err::kNoEnt);
  std::string buf;
  ASSERT_TRUE(fs_.ReadAt("/b/y", 0, 10, &buf, Root()).ok());
  EXPECT_EQ(buf, "data");
}

TEST_F(MemFsTest, RenameIntoOwnSubtreeRejected) {
  fs_.ProvisionDir("/a/b");
  EXPECT_EQ(fs_.Rename("/a", "/a/b/c", Root()).error(), Err::kInval);
}

// rename(2) over an existing name releases the displaced file as unlink does.
TEST_F(MemFsTest, RenameOverFileFreesItsBytes) {
  fs_.ProvisionFile("/old", std::string(500, 'o'));
  fs_.ProvisionFile("/new", "n");
  ASSERT_EQ(fs_.StatFs()->used_bytes, 501u);
  ASSERT_TRUE(fs_.Rename("/new", "/old", Root()).ok());
  EXPECT_EQ(fs_.StatFs()->used_bytes, 1u);
  EXPECT_EQ(fs_.SlurpForTest("/old").value_or("<missing>"), "n");
}

TEST_F(MemFsTest, RenameFileOverDirectoryIsDir) {
  fs_.ProvisionFile("/f", "x");
  fs_.ProvisionDir("/empty");
  fs_.ProvisionFile("/full/g", "y");
  EXPECT_EQ(fs_.Rename("/f", "/empty", Root()).error(), Err::kIsDir);
  EXPECT_EQ(fs_.Rename("/f", "/full", Root()).error(), Err::kIsDir);
  auto empty = fs_.GetAttr("/empty", Root());
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->type, FileType::kDirectory);
  EXPECT_EQ(fs_.SlurpForTest("/f").value_or("<missing>"), "x");
}

TEST_F(MemFsTest, RenameDirectoryOverFileNotDir) {
  fs_.ProvisionDir("/d");
  fs_.ProvisionFile("/f", "x");
  EXPECT_EQ(fs_.Rename("/d", "/f", Root()).error(), Err::kNotDir);
  EXPECT_EQ(fs_.SlurpForTest("/f").value_or("<missing>"), "x");
  auto dir = fs_.GetAttr("/d", Root());
  ASSERT_TRUE(dir.ok());
  EXPECT_EQ(dir->type, FileType::kDirectory);
}

TEST_F(MemFsTest, RenameOverHardLinkDropsOneLink) {
  fs_.ProvisionFile("/a", std::string(100, 'a'));
  ASSERT_TRUE(fs_.Link("/a", "/b", Root()).ok());
  ASSERT_EQ(fs_.GetAttr("/a", Root())->nlink, 2u);
  fs_.ProvisionFile("/c", "c");
  ASSERT_TRUE(fs_.Rename("/c", "/b", Root()).ok());
  ASSERT_TRUE(fs_.GetAttr("/a", Root()).ok());
  EXPECT_EQ(fs_.GetAttr("/a", Root())->nlink, 1u);
  EXPECT_EQ(fs_.StatFs()->used_bytes, 101u);  // "/a" still holds its bytes
  ASSERT_TRUE(fs_.Unlink("/a", Root()).ok());
  EXPECT_EQ(fs_.StatFs()->used_bytes, 1u);
}

TEST_F(MemFsTest, RenameBetweenNamesOfOneInodeDoesNothing) {
  fs_.ProvisionFile("/a", "same");
  ASSERT_TRUE(fs_.Link("/a", "/b", Root()).ok());
  ASSERT_TRUE(fs_.Rename("/a", "/b", Root()).ok());
  ASSERT_TRUE(fs_.Rename("/a", "/a", Root()).ok());
  ASSERT_TRUE(fs_.GetAttr("/a", Root()).ok());
  EXPECT_EQ(fs_.GetAttr("/a", Root())->nlink, 2u);
  EXPECT_EQ(fs_.GetAttr("/b", Root())->nlink, 2u);
  EXPECT_EQ(fs_.StatFs()->used_bytes, 4u);
}

TEST_F(MemFsTest, RenameDirectoryOverEmptyDirectory) {
  fs_.ProvisionFile("/src/f", "x");
  fs_.ProvisionDir("/dst");
  ASSERT_TRUE(fs_.Rename("/src", "/dst", Root()).ok());
  EXPECT_EQ(fs_.SlurpForTest("/dst/f").value_or("<missing>"), "x");
  EXPECT_EQ(fs_.GetAttr("/src", Root()).error(), Err::kNoEnt);
}

TEST_F(MemFsTest, PermissionDeniedForOtherUser) {
  fs_.ProvisionFile("/secret", "classified", 0, 0, 0600);
  std::string buf;
  EXPECT_EQ(fs_.ReadAt("/secret", 0, 10, &buf, User(1000)).error(), Err::kAcces);
  EXPECT_EQ(fs_.WriteAt("/secret", 0, "x", User(1000)).error(), Err::kAcces);
}

TEST_F(MemFsTest, DirectorySearchPermissionEnforced) {
  fs_.ProvisionFile("/locked/f", "x");
  Credentials root;
  ASSERT_TRUE(fs_.Chmod("/locked", 0700, root).ok());
  std::string buf;
  EXPECT_EQ(fs_.ReadAt("/locked/f", 0, 1, &buf, User(1000)).error(), Err::kAcces);
}

TEST_F(MemFsTest, ChmodOnlyOwnerOrDacOverride) {
  fs_.ProvisionFile("/f", "x", 1000, 1000, 0644);
  EXPECT_EQ(fs_.Chmod("/f", 0600, User(2000)).error(), Err::kPerm);
  EXPECT_TRUE(fs_.Chmod("/f", 0600, User(1000)).ok());
  EXPECT_TRUE(fs_.Chmod("/f", 0644, Root()).ok());
}

TEST_F(MemFsTest, ChownRequiresCapability) {
  fs_.ProvisionFile("/f", "x");
  EXPECT_EQ(fs_.Chown("/f", 1000, 1000, User(1000)).error(), Err::kPerm);
  EXPECT_TRUE(fs_.Chown("/f", 1000, 1000, Root()).ok());
  auto st = fs_.GetAttr("/f", Root());
  EXPECT_EQ(st->uid, 1000u);
}

TEST_F(MemFsTest, SymlinkRoundTrip) {
  fs_.ProvisionSymlink("/link", "/target");
  auto target = fs_.ReadLink("/link", Root());
  ASSERT_TRUE(target.ok());
  EXPECT_EQ(*target, "/target");
  auto st = fs_.GetAttr("/link", Root());
  EXPECT_EQ(st->type, FileType::kSymlink);
  EXPECT_EQ(fs_.ReadLink("/nonlink", Root()).error(), Err::kNoEnt);
}

TEST_F(MemFsTest, DeviceNodes) {
  fs_.ProvisionDevice("/dev/mem", 1, 0600);
  auto st = fs_.GetAttr("/dev/mem", Root());
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->type, FileType::kCharDevice);
  EXPECT_EQ(st->rdev, 1u);
}

TEST_F(MemFsTest, StatFsTracksUsedBytes) {
  auto before = fs_.StatFs();
  fs_.ProvisionFile("/f", std::string(1000, 'x'));
  auto after = fs_.StatFs();
  EXPECT_EQ(after->used_bytes - before->used_bytes, 1000u);
  ASSERT_TRUE(fs_.Unlink("/f", Root()).ok());
  auto freed = fs_.StatFs();
  EXPECT_EQ(freed->used_bytes, before->used_bytes);
}

TEST_F(MemFsTest, TruncateAdjustsSize) {
  fs_.ProvisionFile("/f", "123456");
  ASSERT_TRUE(fs_.Truncate("/f", 3, Root()).ok());
  EXPECT_EQ(fs_.GetAttr("/f", Root())->size, 3u);
  ASSERT_TRUE(fs_.Truncate("/f", 8, Root()).ok());
  EXPECT_EQ(fs_.GetAttr("/f", Root())->size, 8u);
}

TEST_F(MemFsTest, ClockChargedForOperations) {
  SimClock clock;
  MemFs timed("ext4", &clock);
  timed.ProvisionFile("/f", std::string(1 << 20, 'a'));
  uint64_t before = clock.now_ns();
  std::string buf;
  ASSERT_TRUE(timed.ReadAt("/f", 0, 1 << 20, &buf, Root()).ok());
  EXPECT_GT(clock.now_ns(), before);
}

// Generation tracking: the contract is one-sided — a generation may change
// spuriously but must NEVER stay equal across a content-affecting mutation.
// These tests pin the "must change" half plus the uniqueness property that
// makes path-keyed caching safe across rename/recreate.

TEST_F(MemFsTest, GenerationChangesOnEveryMutation) {
  fs_.ProvisionFile("/f", "abc");
  uint64_t g0 = fs_.Generation("/f");
  ASSERT_NE(g0, kNoGeneration);

  ASSERT_TRUE(fs_.WriteAt("/f", 1, "X", Root()).ok());
  uint64_t g1 = fs_.Generation("/f");
  EXPECT_NE(g1, g0);

  ASSERT_TRUE(fs_.Truncate("/f", 1, Root()).ok());
  uint64_t g2 = fs_.Generation("/f");
  EXPECT_NE(g2, g1);

  ASSERT_TRUE(fs_.Open("/f", kOpenWrite | kOpenTrunc, 0, Root()).ok());
  uint64_t g3 = fs_.Generation("/f");
  EXPECT_NE(g3, g2);

  ASSERT_TRUE(fs_.Chmod("/f", 0600, Root()).ok());
  uint64_t g4 = fs_.Generation("/f");
  EXPECT_NE(g4, g3);

  ASSERT_TRUE(fs_.Chown("/f", 5, 5, Root()).ok());
  uint64_t g5 = fs_.Generation("/f");
  EXPECT_NE(g5, g4);

  // Reads are not mutations.
  std::string buf;
  ASSERT_TRUE(fs_.ReadAt("/f", 0, 1, &buf, Root()).ok());
  EXPECT_EQ(fs_.Generation("/f"), g5);
}

TEST_F(MemFsTest, GenerationUniqueAcrossRecreateAndRename) {
  fs_.ProvisionFile("/a", "one");
  uint64_t a0 = fs_.Generation("/a");
  ASSERT_TRUE(fs_.Unlink("/a", Root()).ok());
  EXPECT_EQ(fs_.Generation("/a"), kNoGeneration);
  fs_.ProvisionFile("/a", "two");
  // The recreated file must not reuse the old generation value.
  EXPECT_NE(fs_.Generation("/a"), a0);

  fs_.ProvisionFile("/b", "bee");
  uint64_t b0 = fs_.Generation("/b");
  ASSERT_TRUE(fs_.Rename("/b", "/c", Root()).ok());
  // Same bytes, new identity: the value visible at the target differs from
  // what the source ever reported.
  EXPECT_NE(fs_.Generation("/c"), b0);
  EXPECT_EQ(fs_.Generation("/b"), kNoGeneration);
}

TEST_F(MemFsTest, GenerationSharedAcrossHardLinks) {
  fs_.ProvisionFile("/orig", "data");
  ASSERT_TRUE(fs_.Link("/orig", "/alias", Root()).ok());
  uint64_t orig = fs_.Generation("/orig");
  EXPECT_EQ(fs_.Generation("/alias"), orig);
  // A write through one name is visible in the generation of the other.
  ASSERT_TRUE(fs_.WriteAt("/alias", 0, "DATA", Root()).ok());
  EXPECT_NE(fs_.Generation("/orig"), orig);
  EXPECT_EQ(fs_.Generation("/orig"), fs_.Generation("/alias"));
}

TEST_F(MemFsTest, GenerationUntrackedCases) {
  EXPECT_EQ(fs_.Generation("/missing"), kNoGeneration);
  ASSERT_TRUE(fs_.MkDir("/dir", 0755, Root()).ok());
  EXPECT_EQ(fs_.Generation("/dir"), kNoGeneration);
  EXPECT_EQ(fs_.Generation("relative"), kNoGeneration);
}

}  // namespace
}  // namespace witos
