// Tests for the exclusion (XCL) namespace — the paper's new kernel
// namespace (§5.6): excluded subtrees are inaccessible to member processes
// "disregarding the user privileges", even when the MNT namespace is shared
// with the host.

#include <gtest/gtest.h>

#include <vector>

#include "src/os/kernel.h"

namespace witos {
namespace {

class XclTest : public ::testing::Test {
 protected:
  void SetUp() override {
    kernel_.root_fs().ProvisionFile("/home/user/secret.txt", "classified");
    kernel_.root_fs().ProvisionFile("/home/user/sub/deep.txt", "nested");
    kernel_.root_fs().ProvisionFile("/var/ok.txt", "fine");
  }
  Kernel kernel_{"host"};
};

TEST_F(XclTest, CloneXclInheritsParentTable) {
  Pid parent = *kernel_.Clone(1, "parent", kCloneNewXcl);
  ASSERT_TRUE(kernel_.XclAdd(parent, "/home/user").ok());
  Pid child = *kernel_.Clone(parent, "child", kCloneNewXcl);
  auto table = kernel_.XclList(child);
  ASSERT_TRUE(table.ok());
  ASSERT_EQ(table->size(), 1u);
  EXPECT_EQ((*table)[0], "/home/user");
}

TEST_F(XclTest, ExclusionBlocksRootDespiteSharedMnt) {
  // The contained admin shares the host MNT namespace — no chroot, no ITFS —
  // exactly the scenario XCL exists for.
  Pid admin = *kernel_.Clone(1, "admin", kCloneNewXcl);
  ASSERT_TRUE(kernel_.XclAdd(admin, "/home/user").ok());
  // Superuser privileges do not help.
  EXPECT_EQ(kernel_.ReadFile(admin, "/home/user/secret.txt").error(), Err::kAcces);
  EXPECT_EQ(kernel_.ReadFile(admin, "/home/user/sub/deep.txt").error(), Err::kAcces);
  EXPECT_EQ(kernel_.ReadDir(admin, "/home/user").error(), Err::kAcces);
  EXPECT_EQ(kernel_.WriteFile(admin, "/home/user/new.txt", "x").error(), Err::kAcces);
  // Everything else still works with full privileges.
  EXPECT_EQ(*kernel_.ReadFile(admin, "/var/ok.txt"), "fine");
  // The host is unaffected.
  EXPECT_EQ(*kernel_.ReadFile(1, "/home/user/secret.txt"), "classified");
}

TEST_F(XclTest, DotDotAndSymlinkCannotBypassExclusion) {
  Pid admin = *kernel_.Clone(1, "admin", kCloneNewXcl);
  ASSERT_TRUE(kernel_.XclAdd(admin, "/home/user").ok());
  EXPECT_EQ(kernel_.ReadFile(admin, "/var/../home/user/secret.txt").error(), Err::kAcces);
  // A symlink pointing into the excluded subtree is caught after resolution.
  ASSERT_TRUE(kernel_.SymLink(1, "/home/user/secret.txt", "/tmp/sneaky").ok());
  EXPECT_EQ(kernel_.ReadFile(admin, "/tmp/sneaky").error(), Err::kAcces);
}

TEST_F(XclTest, ExclusionHitsAreAudited) {
  Pid admin = *kernel_.Clone(1, "admin", kCloneNewXcl);
  ASSERT_TRUE(kernel_.XclAdd(admin, "/home/user").ok());
  size_t before = kernel_.audit().CountEvent(AuditEvent::kXclDenied);
  (void)kernel_.ReadFile(admin, "/home/user/secret.txt");
  EXPECT_GT(kernel_.audit().CountEvent(AuditEvent::kXclDenied), before);
}

// An XCL denial is stamped with the kernel clock's reading at the call,
// like every other record in the chain.
TEST_F(XclTest, DenialRecordCarriesTheClockReading) {
  Pid admin = *kernel_.Clone(1, "admin", kCloneNewXcl);
  ASSERT_TRUE(kernel_.XclAdd(admin, "/home").ok());
  kernel_.clock().Advance(123456);
  auto ctx = kernel_.ContextFor(admin);
  ASSERT_TRUE(ctx.ok());
  // The first component is excluded: the walk stops before any lookup, so
  // the clock does not move between the call and the record.
  const uint64_t now = kernel_.clock().now_ns();
  EXPECT_EQ(kernel_.vfs().Resolve(*ctx, "/home/user/secret.txt").error(), Err::kAcces);
  const std::vector<AuditRecord> records = kernel_.audit().Snapshot();
  ASSERT_FALSE(records.empty());
  const AuditRecord& record = records.back();
  EXPECT_EQ(record.event, AuditEvent::kXclDenied);
  EXPECT_EQ(record.time_ns, now);
  EXPECT_NE(record.time_ns, 0u);
}

TEST_F(XclTest, AddRemoveSyscalls) {
  Pid admin = *kernel_.Clone(1, "admin", kCloneNewXcl);
  ASSERT_TRUE(kernel_.XclAdd(admin, "/home/user").ok());
  ASSERT_TRUE(kernel_.XclRemove(admin, "/home/user").ok());
  EXPECT_EQ(*kernel_.ReadFile(admin, "/home/user/secret.txt"), "classified");
  EXPECT_EQ(kernel_.XclRemove(admin, "/nonexistent").error(), Err::kNoEnt);
}

TEST_F(XclTest, ModificationRequiresSysAdmin) {
  Pid admin = *kernel_.Clone(1, "admin", kCloneNewXcl);
  ASSERT_TRUE(kernel_.XclAdd(admin, "/home/user").ok());
  // ContainIT strips CAP_SYS_ADMIN from contained users: they cannot remove
  // their own exclusions.
  ASSERT_TRUE(kernel_.CapDrop(admin, {Capability::kSysAdmin}).ok());
  EXPECT_EQ(kernel_.XclRemove(admin, "/home/user").error(), Err::kPerm);
  EXPECT_EQ(kernel_.XclAdd(admin, "/etc").error(), Err::kPerm);
}

TEST_F(XclTest, InitialNamespaceHasEmptyTable) {
  auto table = kernel_.XclList(1);
  ASSERT_TRUE(table.ok());
  EXPECT_TRUE(table->empty());
}

TEST_F(XclTest, SeparateXclNamespacesAreIndependent) {
  Pid a = *kernel_.Clone(1, "a", kCloneNewXcl);
  Pid b = *kernel_.Clone(1, "b", kCloneNewXcl);
  ASSERT_TRUE(kernel_.XclAdd(a, "/home/user").ok());
  EXPECT_EQ(kernel_.ReadFile(a, "/home/user/secret.txt").error(), Err::kAcces);
  EXPECT_EQ(*kernel_.ReadFile(b, "/home/user/secret.txt"), "classified");
}

TEST_F(XclTest, RenameCannotCrossExclusionBoundaryEitherWay) {
  Pid admin = *kernel_.Clone(1, "admin", kCloneNewXcl);
  ASSERT_TRUE(kernel_.XclAdd(admin, "/home/user").ok());
  size_t before = kernel_.audit().CountEvent(AuditEvent::kXclDenied);
  // Out of the excluded tree: would exfiltrate sealed content.
  EXPECT_EQ(kernel_.Rename(admin, "/home/user/secret.txt", "/var/stolen.txt").error(),
            Err::kAcces);
  // Into the excluded tree: would hide content where the admin's own session
  // can no longer account for it.
  EXPECT_EQ(kernel_.Rename(admin, "/var/ok.txt", "/home/user/planted.txt").error(),
            Err::kAcces);
  EXPECT_GE(kernel_.audit().CountEvent(AuditEvent::kXclDenied), before + 2);
  // Nothing moved: the host still sees both files where they were.
  EXPECT_EQ(*kernel_.ReadFile(1, "/home/user/secret.txt"), "classified");
  EXPECT_EQ(*kernel_.ReadFile(1, "/var/ok.txt"), "fine");
}

// Property sweep: for every excluded prefix, no path under it is readable
// while sibling paths remain readable.
class XclSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(XclSweep, ExcludedSubtreeSealed) {
  Kernel kernel("host");
  kernel.root_fs().ProvisionFile("/a/b/c/file", "1");
  kernel.root_fs().ProvisionFile("/a/b2/file", "2");
  kernel.root_fs().ProvisionFile("/d/file", "3");
  Pid admin = *kernel.Clone(1, "admin", kCloneNewXcl);
  ASSERT_TRUE(kernel.XclAdd(admin, GetParam()).ok());
  EXPECT_EQ(kernel.ReadFile(admin, GetParam() + "/file").error(), Err::kAcces);
  EXPECT_TRUE(kernel.ReadFile(admin, "/d/file").ok() || GetParam() == "/d");
}

INSTANTIATE_TEST_SUITE_P(Prefixes, XclSweep,
                         ::testing::Values("/a/b/c", "/a/b2", "/a", "/d"));

}  // namespace
}  // namespace witos
