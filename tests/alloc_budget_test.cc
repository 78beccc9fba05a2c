// Heap-allocation budget of path syscalls. Path resolution walks one
// buffer, so a syscall allocates only for the strings it returns, and the
// count does not grow with path depth. This binary replaces the global
// operator new with a counting one, which is why it stands alone.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "src/container/containit.h"
#include "src/fs/itfs_policy.h"
#include "src/os/kernel.h"

namespace {
thread_local uint64_t t_allocs = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++t_allocs;
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace witos {
namespace {

// Allocations of the second of two identical calls: the first fills the
// caches (ITFS verdicts, page cache) that a steady workload keeps warm.
template <typename F>
uint64_t AllocsOf(F&& call) {
  call();
  const uint64_t before = t_allocs;
  call();
  return t_allocs - before;
}

// "/component-01/.../component-<depth-1>/payload.txt". Every name is long
// enough that each returned path string leaves the small-string buffer at
// every depth, so only the walk itself could make the count grow.
std::string PathOfDepth(int depth) {
  std::string path;
  for (int i = 1; i < depth; ++i) {
    path += "/component-0" + std::to_string(i);
  }
  return path + "/payload.txt";
}

constexpr int kDepths[] = {2, 5, 8};
constexpr uint64_t kStatBudget = 4;

class AllocBudgetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int depth : kDepths) {
      kernel_.root_fs().ProvisionFile(PathOfDepth(depth), "payload");
    }
  }

  // The Figure 9 measured configuration: the whole host root through ITFS
  // with the deny-documents rule and signature inspection.
  Pid Fig9Shell() {
    witcontain::PerforatedContainerSpec spec;
    spec.name = "fig9";
    spec.fs.kind = witcontain::FsView::Kind::kWholeRoot;
    spec.fs.policy.AddRule(witfs::ItfsPolicy::DenyDocumentsRule());
    spec.fs.policy.set_log_all(false);
    spec.fs.inspection = witfs::InspectionMode::kSignature;
    spec.net.sniff = false;
    auto id = containit_.Deploy(spec, "FS-1", "admin1");
    EXPECT_TRUE(id.ok());
    return id.ok() ? containit_.FindSession(*id)->shell : kNoPid;
  }

  Kernel kernel_{"host"};
  witcontain::ContainIt containit_{&kernel_, nullptr};
};

TEST_F(AllocBudgetTest, StatPathIsDepthIndependentOnHostAndInContainer) {
  const Pid container = Fig9Shell();
  ASSERT_NE(container, kNoPid);
  for (Pid pid : {kernel_.init_pid(), container}) {
    uint64_t at_depth[3] = {};
    for (int i = 0; i < 3; ++i) {
      const std::string path = PathOfDepth(kDepths[i]);
      at_depth[i] = AllocsOf([&] { ASSERT_TRUE(kernel_.StatPath(pid, path).ok()) << path; });
      EXPECT_LE(at_depth[i], kStatBudget) << "pid " << pid << " " << path;
    }
    std::printf("pid %d StatPath allocations at depths 2/5/8: %llu/%llu/%llu\n", pid,
                static_cast<unsigned long long>(at_depth[0]),
                static_cast<unsigned long long>(at_depth[1]),
                static_cast<unsigned long long>(at_depth[2]));
    EXPECT_EQ(at_depth[0], at_depth[1]) << "pid " << pid;
    EXPECT_EQ(at_depth[1], at_depth[2]) << "pid " << pid;
  }
}

TEST_F(AllocBudgetTest, OpenCloseIsDepthIndependentOnHostAndInContainer) {
  const Pid container = Fig9Shell();
  ASSERT_NE(container, kNoPid);
  for (Pid pid : {kernel_.init_pid(), container}) {
    uint64_t at_depth[3] = {};
    for (int i = 0; i < 3; ++i) {
      const std::string path = PathOfDepth(kDepths[i]);
      at_depth[i] = AllocsOf([&] {
        auto fd = kernel_.Open(pid, path, kOpenRead);
        ASSERT_TRUE(fd.ok()) << path;
        ASSERT_TRUE(kernel_.Close(pid, *fd).ok());
      });
    }
    std::printf("pid %d Open+Close allocations at depths 2/5/8: %llu/%llu/%llu\n", pid,
                static_cast<unsigned long long>(at_depth[0]),
                static_cast<unsigned long long>(at_depth[1]),
                static_cast<unsigned long long>(at_depth[2]));
    EXPECT_EQ(at_depth[0], at_depth[1]) << "pid " << pid;
    EXPECT_EQ(at_depth[1], at_depth[2]) << "pid " << pid;
  }
}

}  // namespace
}  // namespace witos
