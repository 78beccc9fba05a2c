#include <gtest/gtest.h>

#include "src/os/kernel.h"

namespace witos {
namespace {

class KernelProcessTest : public ::testing::Test {
 protected:
  Kernel kernel_{"testhost"};
};

TEST_F(KernelProcessTest, BootCreatesInit) {
  EXPECT_TRUE(kernel_.ProcessAlive(1));
  EXPECT_EQ(kernel_.FindProcess(1)->name, "init");
  EXPECT_EQ(*kernel_.GetHostname(1), "testhost");
}

TEST_F(KernelProcessTest, CloneCreatesChild) {
  auto pid = kernel_.Clone(1, "worker", 0);
  ASSERT_TRUE(pid.ok());
  EXPECT_TRUE(kernel_.ProcessAlive(*pid));
  EXPECT_EQ(kernel_.FindProcess(*pid)->ppid, 1);
  // Shares all namespaces with init.
  for (size_t i = 0; i < kNsTypeCount; ++i) {
    EXPECT_EQ(kernel_.FindProcess(*pid)->ns.ids[i], kernel_.FindProcess(1)->ns.ids[i]);
  }
}

TEST_F(KernelProcessTest, ExitWaitReapsZombie) {
  Pid child = *kernel_.Clone(1, "worker", 0);
  ASSERT_TRUE(kernel_.Exit(child, 0).ok());
  EXPECT_FALSE(kernel_.ProcessAlive(child));
  auto reaped = kernel_.Wait(1);
  ASSERT_TRUE(reaped.ok());
  EXPECT_EQ(*reaped, child);
  EXPECT_EQ(kernel_.FindProcess(child), nullptr);
  EXPECT_EQ(kernel_.Wait(1).error(), Err::kChild);
}

// Regression: Exit used to point an orphan's ppid at init without adding it
// to init's children, so no Wait(init) could ever reap it (ECHILD).
TEST_F(KernelProcessTest, OrphanIsReapableByInit) {
  Pid a = *kernel_.Clone(1, "a", 0);
  Pid b = *kernel_.Clone(a, "b", 0);
  ASSERT_TRUE(kernel_.Exit(a, 0).ok());
  EXPECT_EQ(kernel_.FindProcess(b)->ppid, 1);
  EXPECT_EQ(*kernel_.Wait(1), a);
  ASSERT_TRUE(kernel_.Exit(b, 0).ok());
  auto reaped = kernel_.Wait(1);
  ASSERT_TRUE(reaped.ok());
  EXPECT_EQ(*reaped, b);
  EXPECT_EQ(kernel_.process_count(), 1u);
}

TEST_F(KernelProcessTest, ReapFreesPidEverywhere) {
  PidNamespace& host_ns = kernel_.namespaces().Pidns(kernel_.namespaces().initial(NsType::kPid));
  Pid contained = *kernel_.Clone(1, "contained", kCloneNewPid);
  Pid inner = *kernel_.Clone(contained, "inner", 0);
  PidNamespace& inner_ns =
      kernel_.namespaces().Pidns(kernel_.FindProcess(contained)->ns.Get(NsType::kPid));
  EXPECT_EQ(kernel_.Reap(inner).error(), Err::kAgain);  // still running
  EXPECT_EQ(kernel_.Reap(4242).error(), Err::kSrch);

  // A zombie whose PID namespace is still alive: both maps forget it.
  ASSERT_TRUE(kernel_.Exit(inner, 0).ok());
  ASSERT_TRUE(kernel_.Reap(inner).ok());
  EXPECT_EQ(kernel_.FindProcess(inner), nullptr);
  EXPECT_EQ(inner_ns.host_to_local.count(inner), 0u);
  EXPECT_EQ(host_ns.host_to_local.count(inner), 0u);
  EXPECT_TRUE(kernel_.FindProcess(contained)->children.empty());

  // A zombie that took its PID namespace down with it: the host map still
  // drops the pid, and init no longer lists it.
  ASSERT_TRUE(kernel_.Exit(contained, 0).ok());
  ASSERT_TRUE(kernel_.Reap(contained).ok());
  EXPECT_EQ(host_ns.host_to_local.count(contained), 0u);
  EXPECT_TRUE(kernel_.FindProcess(1)->children.empty());
  EXPECT_EQ(kernel_.process_count(), 1u);
  EXPECT_EQ(kernel_.ListProcesses(1)->size(), 1u);
}

TEST_F(KernelProcessTest, CloneNewNamespacesRequiresSysAdmin) {
  Pid child = *kernel_.Clone(1, "worker", 0);
  ASSERT_TRUE(kernel_.CapDrop(child, {Capability::kSysAdmin}).ok());
  EXPECT_EQ(kernel_.Clone(child, "sub", kCloneNewPid).error(), Err::kPerm);
  EXPECT_TRUE(kernel_.Clone(child, "sub", 0).ok());
}

TEST_F(KernelProcessTest, PidNamespaceIsolatesView) {
  Pid contained = *kernel_.Clone(1, "contained", kCloneNewPid);
  Pid inner = *kernel_.Clone(contained, "inner", 0);

  // From inside: only the two container processes, renumbered from 1.
  auto inside = kernel_.ListProcesses(contained);
  ASSERT_TRUE(inside.ok());
  ASSERT_EQ(inside->size(), 2u);
  EXPECT_EQ((*inside)[0].pid, 1);
  EXPECT_EQ((*inside)[0].name, "contained");
  EXPECT_EQ((*inside)[1].pid, 2);
  EXPECT_EQ((*inside)[1].name, "inner");

  // From the host: everything visible with host pids.
  auto outside = kernel_.ListProcesses(1);
  ASSERT_TRUE(outside.ok());
  EXPECT_EQ(outside->size(), 3u);
  (void)inner;
}

TEST_F(KernelProcessTest, KillAcrossPidNamespaceInvisible) {
  Pid contained = *kernel_.Clone(1, "contained", kCloneNewPid);
  Pid host_proc = *kernel_.Clone(1, "victim", 0);
  // The contained process cannot even name the host process.
  auto host_local = kernel_.HostToLocalPid(contained, host_proc);
  EXPECT_FALSE(host_local.ok());
  EXPECT_EQ(kernel_.Kill(contained, 99).error(), Err::kSrch);
  // The host can kill into the container (pid translation).
  auto local = kernel_.HostToLocalPid(1, contained);
  ASSERT_TRUE(local.ok());
  EXPECT_TRUE(kernel_.Kill(1, *local).ok());
}

TEST_F(KernelProcessTest, KillPermissionModel) {
  Pid root_proc = *kernel_.Clone(1, "rootproc", 0);
  Pid user_proc = *kernel_.Clone(1, "userproc", 0);
  ASSERT_TRUE(kernel_.Setuid(user_proc, 1000).ok());
  // Unprivileged user cannot kill a root process.
  EXPECT_EQ(kernel_.Kill(user_proc, root_proc).error(), Err::kPerm);
  // Root kills anyone.
  EXPECT_TRUE(kernel_.Kill(root_proc, user_proc).ok());
}

TEST_F(KernelProcessTest, SetuidDropsCapabilities) {
  Pid child = *kernel_.Clone(1, "worker", 0);
  ASSERT_TRUE(kernel_.Setuid(child, 1000).ok());
  EXPECT_EQ(kernel_.FindProcess(child)->cred.uid, 1000u);
  EXPECT_TRUE(kernel_.FindProcess(child)->cred.caps.empty());
  // And cannot go back to root.
  EXPECT_EQ(kernel_.Setuid(child, 0).error(), Err::kPerm);
}

TEST_F(KernelProcessTest, UtsNamespaceIsolation) {
  Pid contained = *kernel_.Clone(1, "contained", kCloneNewUts);
  ASSERT_TRUE(kernel_.SetHostname(contained, "lnx-pcont").ok());
  EXPECT_EQ(*kernel_.GetHostname(contained), "lnx-pcont");
  EXPECT_EQ(*kernel_.GetHostname(1), "testhost");  // host unaffected
}

TEST_F(KernelProcessTest, IpcNamespaceIsolation) {
  ASSERT_TRUE(kernel_.ShmPut(1, "key", "host-value").ok());
  Pid contained = *kernel_.Clone(1, "contained", kCloneNewIpc);
  EXPECT_EQ(kernel_.ShmGet(contained, "key").error(), Err::kNoEnt);
  ASSERT_TRUE(kernel_.ShmPut(contained, "key", "container-value").ok());
  EXPECT_EQ(*kernel_.ShmGet(1, "key"), "host-value");
  EXPECT_EQ(*kernel_.ShmGet(contained, "key"), "container-value");
}

TEST_F(KernelProcessTest, SharedIpcWithoutIsolation) {
  Pid child = *kernel_.Clone(1, "child", 0);
  ASSERT_TRUE(kernel_.ShmPut(1, "k", "v").ok());
  EXPECT_EQ(*kernel_.ShmGet(child, "k"), "v");
}

TEST_F(KernelProcessTest, SetnsJoinsNamespace) {
  Pid contained = *kernel_.Clone(1, "contained", kCloneNewUts);
  ASSERT_TRUE(kernel_.SetHostname(contained, "inner").ok());
  Pid helper = *kernel_.Clone(1, "nsenter", 0);
  ASSERT_TRUE(kernel_.Setns(helper, contained, NsType::kUts).ok());
  EXPECT_EQ(*kernel_.GetHostname(helper), "inner");
}

TEST_F(KernelProcessTest, SetnsRequiresSysAdmin) {
  Pid contained = *kernel_.Clone(1, "contained", kCloneNewUts);
  Pid helper = *kernel_.Clone(1, "helper", 0);
  ASSERT_TRUE(kernel_.CapDrop(helper, {Capability::kSysAdmin}).ok());
  EXPECT_EQ(kernel_.Setns(helper, contained, NsType::kUts).error(), Err::kPerm);
}

TEST_F(KernelProcessTest, UnshareCreatesFreshNamespace) {
  Pid child = *kernel_.Clone(1, "child", 0);
  NsId before = kernel_.FindProcess(child)->ns.Get(NsType::kUts);
  ASSERT_TRUE(kernel_.Unshare(child, kCloneNewUts).ok());
  NsId after = kernel_.FindProcess(child)->ns.Get(NsType::kUts);
  EXPECT_NE(before, after);
  EXPECT_EQ(*kernel_.GetHostname(child), "testhost");  // copied content
}

TEST_F(KernelProcessTest, DeathHookFires) {
  std::vector<Pid> deaths;
  kernel_.AddDeathHook([&deaths](Pid pid) { deaths.push_back(pid); });
  Pid child = *kernel_.Clone(1, "child", 0);
  ASSERT_TRUE(kernel_.Exit(child, 0).ok());
  ASSERT_EQ(deaths.size(), 1u);
  EXPECT_EQ(deaths[0], child);
}

TEST_F(KernelProcessTest, NamespaceRefcountingDestroysEmptyNamespaces) {
  size_t before = kernel_.namespaces().live_count();
  Pid contained = *kernel_.Clone(1, "contained", kCloneNewUts | kCloneNewPid | kCloneNewIpc);
  EXPECT_EQ(kernel_.namespaces().live_count(), before + 3);
  ASSERT_TRUE(kernel_.Exit(contained, 0).ok());
  EXPECT_EQ(kernel_.namespaces().live_count(), before);
}

TEST_F(KernelProcessTest, PtraceRequiresCapability) {
  Pid tracer = *kernel_.Clone(1, "tracer", 0);
  Pid victim = *kernel_.Clone(1, "victim", 0);
  EXPECT_TRUE(kernel_.Ptrace(tracer, victim).ok());
  ASSERT_TRUE(kernel_.CapDrop(tracer, {Capability::kSysPtrace}).ok());
  EXPECT_EQ(kernel_.Ptrace(tracer, victim).error(), Err::kPerm);
  EXPECT_GE(kernel_.audit().CountEvent(AuditEvent::kCapabilityDenied), 1u);
}

TEST_F(KernelProcessTest, RebootRequiresCapability) {
  bool rebooted = false;
  kernel_.SetRebootHook([&rebooted] { rebooted = true; });
  Pid child = *kernel_.Clone(1, "child", 0);
  ASSERT_TRUE(kernel_.CapDrop(child, {Capability::kSysBoot}).ok());
  EXPECT_EQ(kernel_.Reboot(child).error(), Err::kPerm);
  EXPECT_FALSE(rebooted);
  EXPECT_TRUE(kernel_.Reboot(1).ok());
  EXPECT_TRUE(rebooted);
}

}  // namespace
}  // namespace witos
