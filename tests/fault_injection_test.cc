// witfault: deterministic fault injection across the containment stack.
//
// The containment invariant under test (paper §4, Table 1): no injected
// EIO/ENOSPC/ENOMEM interleaving may ever let an operation through on a
// subtree the ITFS policy or the XCL exclusion table seals off. Faults may
// make *allowed* operations fail — they must never make *denied* operations
// succeed, and they must never flip a signature-mode policy open.

#include "src/os/fault.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/fs/itfs.h"
#include "src/obs/metrics.h"
#include "src/os/kernel.h"
#include "src/os/memfs.h"

namespace witos {
namespace {

const Err kInjectable[] = {Err::kIo, Err::kNoSpc, Err::kNoMem};

// --- FaultPlan scheduling ----------------------------------------------------

TEST(FaultPlanTest, NthCallTriggerFiresExactlyOnce) {
  FaultPlan plan;
  plan.FailNthCall(3, Err::kIo);
  EXPECT_EQ(plan.Decide(FaultOpKind::kOpen), Err::kOk);
  EXPECT_EQ(plan.Decide(FaultOpKind::kRead), Err::kOk);
  EXPECT_EQ(plan.Decide(FaultOpKind::kWrite), Err::kIo);
  EXPECT_EQ(plan.Decide(FaultOpKind::kWrite), Err::kOk);
  EXPECT_EQ(plan.calls(), 4u);
  EXPECT_EQ(plan.injected(), 1u);
  EXPECT_EQ(plan.injected_for(FaultOpKind::kWrite), 1u);
}

TEST(FaultPlanTest, PerOpTriggersCountPerKind) {
  FaultPlan plan;
  plan.FailNthOp(FaultOpKind::kWrite, 2, Err::kNoSpc);
  plan.FailOp(FaultOpKind::kUnlink, Err::kAcces);
  EXPECT_EQ(plan.Decide(FaultOpKind::kWrite), Err::kOk);   // write #1
  EXPECT_EQ(plan.Decide(FaultOpKind::kRead), Err::kOk);
  EXPECT_EQ(plan.Decide(FaultOpKind::kWrite), Err::kNoSpc);  // write #2
  EXPECT_EQ(plan.Decide(FaultOpKind::kUnlink), Err::kAcces);
  EXPECT_EQ(plan.Decide(FaultOpKind::kUnlink), Err::kAcces);
}

TEST(FaultPlanTest, EveryNthCallTrigger) {
  FaultPlan plan;
  plan.FailEveryNthCall(3, Err::kIo);
  int injected = 0;
  for (int i = 0; i < 9; ++i) {
    if (plan.Decide(FaultOpKind::kRead) != Err::kOk) {
      ++injected;
    }
  }
  EXPECT_EQ(injected, 3);
}

TEST(FaultPlanTest, ProbabilisticScheduleIsSeedDeterministic) {
  auto run = [](uint64_t seed) {
    FaultPlan plan(seed);
    plan.FailWithProbability(0.3, Err::kIo);
    std::vector<bool> decisions;
    for (int i = 0; i < 200; ++i) {
      decisions.push_back(plan.Decide(FaultOpKind::kRead) != Err::kOk);
    }
    return decisions;
  };
  EXPECT_EQ(run(7), run(7));       // same seed, same schedule
  EXPECT_NE(run(7), run(8));       // different seed, different schedule
  // Rewind replays the identical schedule without re-registering triggers.
  FaultPlan plan(7);
  plan.FailWithProbability(0.3, Err::kIo);
  std::vector<bool> first;
  for (int i = 0; i < 200; ++i) {
    first.push_back(plan.Decide(FaultOpKind::kRead) != Err::kOk);
  }
  plan.Rewind();
  EXPECT_EQ(plan.calls(), 0u);
  std::vector<bool> second;
  for (int i = 0; i < 200; ++i) {
    second.push_back(plan.Decide(FaultOpKind::kRead) != Err::kOk);
  }
  EXPECT_EQ(first, second);
}

TEST(FaultPlanTest, CountersFlowIntoMetricsRegistry) {
  witobs::MetricsRegistry registry;
  FaultPlan plan;
  plan.EnableMetrics(&registry);
  plan.FailOp(FaultOpKind::kWrite, Err::kNoSpc);
  (void)plan.Decide(FaultOpKind::kRead);
  (void)plan.Decide(FaultOpKind::kWrite);
  (void)plan.Decide(FaultOpKind::kWrite);
  EXPECT_EQ(registry.GetCounter("watchit_fault_calls_total")->Value(), 3u);
  EXPECT_EQ(registry.GetCounter("watchit_fault_injected_total", {{"op", "write"}})->Value(), 2u);
  EXPECT_EQ(registry.GetCounter("watchit_fault_injected_total", {{"op", "read"}})->Value(), 0u);
}

// --- ErrorInjectingVfs decorator ---------------------------------------------

TEST(ErrorInjectingVfsTest, ForwardsCleanlyWithoutTriggers) {
  auto lower = std::make_shared<MemFs>();
  lower->ProvisionFile("/f", "hello");
  auto plan = std::make_shared<FaultPlan>();
  ErrorInjectingVfs faulty(lower, plan);
  std::string buf;
  ASSERT_TRUE(faulty.ReadAt("/f", 0, 16, &buf, Credentials{}).ok());
  EXPECT_EQ(buf, "hello");
  EXPECT_EQ(faulty.FsType(), "faultfs.ext4");
  EXPECT_GT(plan->calls(), 0u);
  EXPECT_EQ(plan->injected(), 0u);
}

TEST(ErrorInjectingVfsTest, InjectedWriteFaultLeavesLowerUntouched) {
  auto lower = std::make_shared<MemFs>();
  lower->ProvisionFile("/f", "hello");
  auto plan = std::make_shared<FaultPlan>();
  plan->FailOp(FaultOpKind::kWrite, Err::kNoSpc);
  ErrorInjectingVfs faulty(lower, plan);
  EXPECT_EQ(faulty.WriteAt("/f", 0, "XXXXX", Credentials{}).error(), Err::kNoSpc);
  std::string buf;
  ASSERT_TRUE(lower->ReadAt("/f", 0, 16, &buf, Credentials{}).ok());
  EXPECT_EQ(buf, "hello");
}

// --- ITFS gate invariant under systematic fault sweeps -----------------------

witfs::ItfsPolicy ContainmentPolicy() {
  witfs::ItfsPolicy policy;
  policy.AddRule(witfs::ItfsPolicy::DenyDocumentsRule());
  policy.AddRule(witfs::ItfsPolicy::ProtectPathsRule({"/usr/watchit"}));
  policy.AddRule(witfs::ItfsPolicy::ReadOnlyRule({"/etc"}));
  policy.set_inspection_mode(witfs::InspectionMode::kSignature);
  return policy;
}

std::shared_ptr<MemFs> ContainmentLower() {
  auto lower = std::make_shared<MemFs>();
  lower->ProvisionFile("/etc/passwd", "root:x:0:0\n");
  lower->ProvisionFile("/home/payroll.xlsx", std::string("PK\x03\x04") + "salaries");
  lower->ProvisionFile("/home/disguised.log", "%PDF-1.4 secret report");
  lower->ProvisionFile("/home/notes.txt", "todo\n");
  lower->ProvisionFile("/usr/watchit/broker", "\x7f" "ELF");
  return lower;
}

// CrashMonkey-style systematic sweep: fail the nth intercepted lower-fs call
// with each injectable errno, and assert the gate never opens.
TEST(ItfsFaultSweepTest, DeniedOperationsStayDeniedUnderEveryNthCallFault) {
  for (Err err : kInjectable) {
    for (uint64_t nth = 1; nth <= 12; ++nth) {
      auto plan = std::make_shared<FaultPlan>();
      plan->FailNthCall(nth, err);
      auto faulty = std::make_shared<ErrorInjectingVfs>(ContainmentLower(), plan);
      witfs::Itfs itfs(faulty, ContainmentPolicy(), Credentials{});

      // Every one of these must stay an error, whatever the fault did.
      EXPECT_FALSE(itfs.Open("/usr/watchit/broker", kOpenRead, 0, Credentials{}).ok())
          << "nth=" << nth;
      EXPECT_FALSE(itfs.Open("/home/payroll.xlsx", kOpenRead, 0, Credentials{}).ok())
          << "nth=" << nth;
      EXPECT_FALSE(itfs.WriteAt("/etc/passwd", 0, "pwned", Credentials{}).ok())
          << "nth=" << nth;
      EXPECT_FALSE(itfs.Unlink("/usr/watchit/broker", Credentials{}).ok()) << "nth=" << nth;
      EXPECT_FALSE(itfs.Rename("/usr/watchit/broker", "/home/b", Credentials{}).ok())
          << "nth=" << nth;

      // Allowed operations may fail with the injected error but must never
      // return wrong content.
      std::string buf;
      auto read = itfs.ReadAt("/home/notes.txt", 0, 16, &buf, Credentials{});
      if (read.ok()) {
        EXPECT_EQ(buf, "todo\n") << "nth=" << nth;
      }
    }
  }
}

// Regression (found by this sweep): in signature mode a faulted head read
// used to leave `head` empty and let content smuggled under an innocent
// extension pass the content rules — a fault-induced fail-open. The gate now
// fails closed and logs the denial.
TEST(ItfsFaultSweepTest, FaultedHeadReadFailsClosedNotOpen) {
  auto plan = std::make_shared<FaultPlan>();
  plan->FailNthOp(FaultOpKind::kRead, 1, Err::kIo);
  auto faulty = std::make_shared<ErrorInjectingVfs>(ContainmentLower(), plan);
  AuditLog audit;
  witfs::Itfs itfs(faulty, ContainmentPolicy(), Credentials{}, nullptr, &audit);
  // The disguised PDF is only catchable via its magic bytes; with the head
  // fetch faulted the open must be denied, not quietly allowed.
  auto open = itfs.Open("/home/disguised.log", kOpenRead, 0, Credentials{});
  ASSERT_FALSE(open.ok());
  EXPECT_EQ(open.error(), Err::kIo);
  ASSERT_EQ(audit.size(), 1u);
  EXPECT_EQ(audit.Snapshot().back().event, AuditEvent::kFileDenied);
  EXPECT_EQ(audit.Snapshot().back().detail, "open /home/disguised.log [head-fetch-failed]");
  // Once the fault clears, a benign file opens normally again.
  EXPECT_TRUE(itfs.Open("/home/notes.txt", kOpenRead, 0, Credentials{}).ok());
}

TEST(ItfsFaultSweepTest, MissingFileHeadReadStillAllowsCreation) {
  // The fail-closed path must not break legitimate creates: ENOENT on the
  // head fetch of a not-yet-existing file is benign, not environmental.
  auto plan = std::make_shared<FaultPlan>();  // no faults
  auto faulty = std::make_shared<ErrorInjectingVfs>(ContainmentLower(), plan);
  witfs::Itfs itfs(faulty, ContainmentPolicy(), Credentials{});
  EXPECT_TRUE(
      itfs.Open("/home/new.txt", kOpenCreate | kOpenWrite, 0644, Credentials{}).ok());
}

// The verdict-cache path must not weaken the fail-closed invariant: after a
// mutation the cached verdict is stale, the gate re-reads the head, and an
// injected read error on that refresh must deny — the old cached allow must
// never paper over the failed read.
TEST(ItfsFaultSweepTest, CachedVerdictNeverMasksFreshReadError) {
  auto plan = std::make_shared<FaultPlan>();
  auto lower = ContainmentLower();
  auto faulty = std::make_shared<ErrorInjectingVfs>(lower, plan);
  AuditLog audit;
  witfs::Itfs itfs(faulty, ContainmentPolicy(), Credentials{}, nullptr, &audit);
  ASSERT_TRUE(itfs.policy_snapshot()->CacheableVerdicts());

  // Prime the cache: notes.txt classifies clean and is allowed.
  ASSERT_TRUE(itfs.Open("/home/notes.txt", kOpenRead, 0, Credentials{}).ok());
  ASSERT_TRUE(itfs.Open("/home/notes.txt", kOpenRead, 0, Credentials{}).ok());
  ASSERT_GE(itfs.verdict_cache_stats().hits, 1u);

  // Mutate out-of-band (new generation), then fault the refresh read. The
  // priming miss consumed read #1, so the refresh is read #2.
  ASSERT_TRUE(lower->WriteAt("/home/notes.txt", 0, "%PDF-1.4 now a pdf", Credentials{}).ok());
  plan->FailNthOp(FaultOpKind::kRead, 2, Err::kIo);
  auto open = itfs.Open("/home/notes.txt", kOpenRead, 0, Credentials{});
  ASSERT_FALSE(open.ok());
  EXPECT_EQ(open.error(), Err::kIo);
  EXPECT_EQ(audit.Snapshot().back().detail, "open /home/notes.txt [head-fetch-failed]");

  // The failed read must not have been cached: with the fault cleared the
  // next open re-reads, sees the PDF magic, and denies on the content rule.
  auto retry = itfs.Open("/home/notes.txt", kOpenRead, 0, Credentials{});
  ASSERT_FALSE(retry.ok());
  EXPECT_EQ(retry.error(), Err::kAcces);
}

// Mid-rename fault: the rename fails atomically — source intact, no
// destination debris.
TEST(ItfsFaultSweepTest, MidRenameFaultLeavesSourceIntact) {
  for (Err err : kInjectable) {
    auto plan = std::make_shared<FaultPlan>();
    plan->FailNthOp(FaultOpKind::kRename, 1, err);
    auto lower = ContainmentLower();
    auto faulty = std::make_shared<ErrorInjectingVfs>(lower, plan);
    witfs::Itfs itfs(faulty, ContainmentPolicy(), Credentials{});
    EXPECT_EQ(itfs.Rename("/home/notes.txt", "/home/moved.txt", Credentials{}).error(), err);
    EXPECT_TRUE(lower->GetAttr("/home/notes.txt", Credentials{}).ok());
    EXPECT_FALSE(lower->GetAttr("/home/moved.txt", Credentials{}).ok());
  }
}

// --- XCL exclusion invariant under fault sweeps ------------------------------

// Builds a kernel with a fault-injected filesystem mounted at /data holding
// an excluded secret subtree, and an admin confined by XCL.
struct XclFaultRig {
  explicit XclFaultRig(std::shared_ptr<FaultPlan> plan) : kernel("host") {
    auto lower = std::make_shared<MemFs>("tmpfs");
    lower->ProvisionFile("/secret/classified.txt", "classified");
    lower->ProvisionFile("/ok/public.txt", "public");
    auto faulty = std::make_shared<ErrorInjectingVfs>(lower, std::move(plan));
    EXPECT_TRUE(kernel.MkDir(1, "/data").ok());
    EXPECT_TRUE(kernel.Mount(1, faulty, "/data", "faultfs").ok());
    admin = *kernel.Clone(1, "admin", kCloneNewXcl);
    EXPECT_TRUE(kernel.XclAdd(admin, "/data/secret").ok());
  }
  Kernel kernel;
  Pid admin = kNoPid;
};

TEST(XclFaultSweepTest, ExcludedSubtreeSealedUnderEveryNthCallFault) {
  for (Err err : kInjectable) {
    for (uint64_t nth = 1; nth <= 10; ++nth) {
      auto plan = std::make_shared<FaultPlan>();
      plan->FailNthCall(nth, err);
      XclFaultRig rig(plan);
      // The exclusion must hold on every fault interleaving, and must never
      // surface the secret bytes.
      auto secret = rig.kernel.ReadFile(rig.admin, "/data/secret/classified.txt");
      EXPECT_FALSE(secret.ok()) << "err-sweep nth=" << nth;
      EXPECT_FALSE(rig.kernel.ReadDir(rig.admin, "/data/secret").ok()) << "nth=" << nth;
      EXPECT_FALSE(
          rig.kernel.WriteFile(rig.admin, "/data/secret/new.txt", "x").ok())
          << "nth=" << nth;
      EXPECT_FALSE(
          rig.kernel.Rename(rig.admin, "/data/ok/public.txt", "/data/secret/out.txt").ok())
          << "nth=" << nth;
      // Non-excluded paths may fail with the injected error, never leak the
      // wrong content.
      auto ok_read = rig.kernel.ReadFile(rig.admin, "/data/ok/public.txt");
      if (ok_read.ok()) {
        EXPECT_EQ(*ok_read, "public") << "nth=" << nth;
      }
    }
  }
}

TEST(XclFaultSweepTest, ProbabilisticStormNeverLeaksExcludedContent) {
  // syzkaller-style randomized campaign on a fixed seed: 20% of lower-fs
  // calls fail while an admin hammers the excluded subtree.
  auto plan = std::make_shared<FaultPlan>(0xC0FFEE);
  plan->FailWithProbability(0.2, Err::kIo);
  XclFaultRig rig(plan);
  for (int i = 0; i < 300; ++i) {
    auto read = rig.kernel.ReadFile(rig.admin, "/data/secret/classified.txt");
    ASSERT_FALSE(read.ok()) << "iteration " << i;
    auto dir = rig.kernel.ReadDir(rig.admin, "/data/secret");
    ASSERT_FALSE(dir.ok()) << "iteration " << i;
  }
  EXPECT_GT(plan->injected(), 0u);  // the storm actually stormed
}

// --- XclAdd dedupe regression ------------------------------------------------

TEST(XclFaultSweepTest, DuplicateXclAddClearsWithOneRemove) {
  // Pre-fix, N identical XclAdd calls pushed N entries and one XclRemove
  // peeled off only one: the supervisor believed the exclusion was lifted
  // while the subtree stayed sealed (or worse, the reverse bookkeeping bug
  // in a retry loop). Adds are now idempotent.
  Kernel kernel("host");
  kernel.root_fs().ProvisionFile("/home/user/secret.txt", "classified");
  Pid admin = *kernel.Clone(1, "admin", kCloneNewXcl);
  ASSERT_TRUE(kernel.XclAdd(admin, "/home/user").ok());
  ASSERT_TRUE(kernel.XclAdd(admin, "/home/user").ok());      // retry
  ASSERT_TRUE(kernel.XclAdd(admin, "/home/user/").ok());     // trailing slash
  ASSERT_TRUE(kernel.XclAdd(admin, "/home//user/.").ok());   // unnormalized
  ASSERT_EQ(kernel.XclList(admin)->size(), 1u);
  ASSERT_TRUE(kernel.XclRemove(admin, "/home/user").ok());
  EXPECT_TRUE(kernel.XclList(admin)->empty());
  EXPECT_EQ(*kernel.ReadFile(admin, "/home/user/secret.txt"), "classified");
}

// --- ItfsPolicy prefix normalization regression ------------------------------

TEST(PolicyNormalizationTest, UnnormalizedRulePrefixesStillMatch) {
  // Pre-fix, a trailing-slash or dotted prefix never matched PathIsUnder and
  // the rule was silently inert.
  witfs::ItfsPolicy policy;
  policy.AddRule(witfs::ItfsPolicy::ProtectPathsRule({"/usr/watchit/", "/var/../var/log"}));
  auto lower = ContainmentLower();
  witfs::Itfs itfs(lower, std::move(policy), Credentials{});
  EXPECT_EQ(itfs.Open("/usr/watchit/broker", kOpenRead, 0, Credentials{}).error(), Err::kAcces);
  EXPECT_EQ(
      itfs.policy_snapshot()->Evaluate(witfs::ItfsOpKind::kOpen, "/var/log/syslog", {}).deny,
      true);
  // Unrelated paths are untouched.
  EXPECT_TRUE(itfs.Open("/home/notes.txt", kOpenRead, 0, Credentials{}).ok());
}

}  // namespace
}  // namespace witos
