// Heap-allocation budget of path syscalls. Path resolution walks one
// buffer, so a syscall allocates only for the strings it returns, and the
// count does not grow with path depth. Also the buffers an appended MemFs
// file grows through, the ITFS gate of an allowed access (nothing), and the
// evidence path: a journaled chain append allocates only its caller's
// detail string. This binary replaces the
// global operator new with a counting one, which is why it stands alone.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "src/container/containit.h"
#include "src/core/cluster.h"
#include "src/durability/durability.h"
#include "src/fs/itfs_policy.h"
#include "src/os/audit.h"
#include "src/os/kernel.h"
#include "src/os/memfs.h"

namespace {
thread_local uint64_t t_allocs = 0;
// While t_record is set, the sizes of this thread's first kMaxRecorded
// allocations of at least kRecordMin bytes.
constexpr std::size_t kRecordMin = 4096;
constexpr int kMaxRecorded = 32;
thread_local bool t_record = false;
thread_local std::size_t t_recorded[kMaxRecorded];
thread_local int t_num_recorded = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++t_allocs;
  if (t_record && size >= kRecordMin && t_num_recorded < kMaxRecorded) {
    t_recorded[t_num_recorded++] = size;
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
// Out of line: where GCC inlines them next to a call of the operator new
// above, it takes the free() for a mismatched deallocation.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

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

// The buffers an appended file grows through follow its size, whatever its
// first write: a journal whose first record comes from whichever thread won
// a race grows through the same allocations either way.
TEST(MemFsGrowthTest, AppendedFileGrowsThroughTheSameBuffersWhateverItsFirstWrite) {
  auto buffers = [](size_t first_write) {
    MemFs fs;
    fs.ProvisionFile("/journal.wal", std::string(first_write, 'f'));
    const std::string record(64, 'r');
    t_num_recorded = 0;
    t_record = true;
    for (uint64_t offset = first_write; offset < (1u << 20); offset += record.size()) {
      if (!fs.WriteAt("/journal.wal", offset, record, Credentials{}).ok()) {
        break;
      }
    }
    t_record = false;
    return std::vector<std::size_t>(t_recorded, t_recorded + t_num_recorded);
  };
  const std::vector<std::size_t> after_82 = buffers(82);
  EXPECT_FALSE(after_82.empty());
  EXPECT_EQ(after_82, buffers(91));
  for (std::size_t size : after_82) {
    // std::string allocates its capacity plus the terminator.
    EXPECT_TRUE(std::has_single_bit(size - 1)) << size;
  }
}

// An allowed access that no rule matches leaves no record: reads through a
// ticket image's ITFS allocate no more than the same reads on the
// filesystem under it, whatever the length of the path.
TEST(ItfsAllocBudgetTest, AllowedReadsThroughATicketImageAllocateNoMoreThanItsLowerFs) {
  watchit::Cluster cluster;
  watchit::Machine& machine = cluster.AddMachine("host00", witnet::Ipv4Addr(10, 0, 3, 10));
  watchit::ClusterManager manager(&cluster);
  watchit::Ticket ticket;
  ticket.id = "TKT-ALLOC";
  ticket.target_machine = "host00";
  ticket.assigned_class = "T-1";
  ticket.admin = "alice";
  auto deployment = manager.Deploy(ticket);
  ASSERT_TRUE(deployment.ok());
  const witcontain::Session* session = machine.containit().FindSession(deployment->session);
  ASSERT_NE(session->itfs, nullptr);
  const size_t chain_before = machine.kernel().audit().size();

  // 30 bytes: past the small-string buffer, so a copy of it would allocate.
  const std::string path = "/home/user/.matlab/license.lic";
  constexpr int kReads = 1000;
  std::string buf;
  buf.reserve(4096);
  auto reads = [&](Filesystem* fs) {
    for (int i = 0; i < kReads; ++i) {
      ASSERT_TRUE(fs->ReadAt(path, 0, 64, &buf, Credentials{}).ok());
    }
  };
  const uint64_t lower = AllocsOf([&] { reads(&machine.kernel().root_fs()); });
  const uint64_t through_itfs = AllocsOf([&] { reads(session->itfs.get()); });
  std::printf("%d allowed reads: %llu allocations on the lower fs, %llu through ITFS\n", kReads,
              static_cast<unsigned long long>(lower),
              static_cast<unsigned long long>(through_itfs));
  EXPECT_LE(through_itfs, lower);
  EXPECT_EQ(session->itfs_tally->Read().allowed, 2u * kReads);
  EXPECT_EQ(machine.kernel().audit().size(), chain_before);
  (void)manager.Expire(&*deployment);
}

// A machine's chain append, journaled: the chain stores the record in its
// arena and the journal frames it into its reused buffer, so the append
// allocates only the detail string its caller builds, plus the amortized
// growth of the arena, the index and the journal file.
TEST(EvidenceAllocBudgetTest, JournaledChainAppendAllocatesOnlyItsDetail) {
  watchit::Cluster cluster;
  watchit::Machine& machine = cluster.AddMachine("host00", witnet::Ipv4Addr(10, 0, 3, 10));
  witdur::DurabilityManager durability(std::make_shared<MemFs>());
  durability.Attach(&cluster);
  AuditLog& chain = machine.kernel().audit();
  constexpr uint64_t kAppends = 4096;
  constexpr uint64_t kGrowthBudget = 16;
  auto append_all = [&] {
    for (uint64_t i = 0; i < kAppends; ++i) {
      // 41 bytes: past the small-string buffer, so each detail is one
      // allocation of the caller's.
      chain.Append(AuditEvent::kBrokerRequest, 4242, 1000,
                   std::string("GRANT alice TKT-1042 [T-6] install netcat"), 1'000'000 + i);
    }
  };
  append_all();  // the buffers reach the size a steady machine holds
  const uint64_t journaled_before = durability.journal().records_appended();
  const uint64_t seals_before = chain.epoch_count();
  const uint64_t before = t_allocs;
  append_all();
  const uint64_t allocs = t_allocs - before;
  std::printf("%llu journaled chain appends: %llu allocations\n",
              static_cast<unsigned long long>(kAppends),
              static_cast<unsigned long long>(allocs));
  EXPECT_LE(allocs, kAppends + kGrowthBudget);
  // Every append and every seal it triggered reached the journal.
  EXPECT_EQ(durability.journal().records_appended() - journaled_before,
            kAppends + chain.epoch_count() - seals_before);
  EXPECT_TRUE(chain.Verify());
}

}  // namespace
}  // namespace witos
