// ContainIT integration tests: deploying perforated containers, namespace
// holes, ITFS monitoring, the watchdog, and on-line file sharing.

#include "src/container/containit.h"

#include <gtest/gtest.h>

#include "src/container/image_repo.h"
#include "src/container/spec.h"
#include "src/net/network.h"

namespace witcontain {
namespace {

class ContainItTest : public ::testing::Test {
 protected:
  void SetUp() override {
    kernel_ = std::make_unique<witos::Kernel>("lnx-host");
    kernel_->root_fs().ProvisionFile("/home/user/notes.txt", "user notes", 1000, 1000);
    kernel_->root_fs().ProvisionFile("/home/user/payroll.xlsx",
                                     std::string("PK\x03\x04") + "salaries", 1000, 1000);
    kernel_->root_fs().ProvisionFile("/etc/passwd", "root:x:0:0\n");
    kernel_->root_fs().ProvisionFile("/var/log/syslog", "boot ok\n");
    net_ = std::make_unique<witnet::NetStack>(&fabric_, &kernel_->audit(), &kernel_->clock());
    containit_ = std::make_unique<ContainIt>(kernel_.get(), net_.get());

    fabric_.AddEndpoint("license-server", kLicense);
    fabric_.AddService(kLicense, 27000, [](const witnet::Packet&) { return "LICENSE OK"; });
    fabric_.AddEndpoint("evil", kEvil);
    fabric_.AddService(kEvil, 443, [](const witnet::Packet&) { return "got it"; });
  }

  // The chain's ITFS denial records, in order.
  std::vector<witos::AuditRecord> FileDenials() const {
    return kernel_->audit().Filter([](const witos::AuditRecord& record) {
      return record.event == witos::AuditEvent::kFileDenied;
    });
  }

  PerforatedContainerSpec LicenseSpec() {
    PerforatedContainerSpec spec;
    spec.name = "T-1";
    spec.fs.kind = FsView::Kind::kDirs;
    spec.fs.visible_dirs = {"/home/user"};
    spec.fs.policy.AddRule(witfs::ItfsPolicy::DenyDocumentsRule());
    spec.net.allowed = {{kLicense, 27000, "license-server"}};
    return spec;
  }

  const witnet::Ipv4Addr kLicense{witnet::Ipv4Addr(10, 0, 0, 10)};
  const witnet::Ipv4Addr kEvil{witnet::Ipv4Addr(203, 0, 113, 66)};
  witnet::Network fabric_;
  std::unique_ptr<witos::Kernel> kernel_;
  std::unique_ptr<witnet::NetStack> net_;
  std::unique_ptr<ContainIt> containit_;
};

TEST_F(ContainItTest, DeploySetsUpSession) {
  auto id = containit_->Deploy(LicenseSpec(), "TKT-1", "alice");
  ASSERT_TRUE(id.ok());
  Session* session = containit_->FindSession(*id);
  ASSERT_NE(session, nullptr);
  EXPECT_EQ(containit_->FindRetired(*id), nullptr);
  EXPECT_TRUE(kernel_->ProcessAlive(session->container_init));
  EXPECT_TRUE(kernel_->ProcessAlive(session->shell));
  EXPECT_GT(session->deploy_duration_ns, 0u);
  EXPECT_EQ(containit_->active_sessions(), 1u);
  EXPECT_EQ(kernel_->audit().CountEvent(witos::AuditEvent::kContainerDeployed), 1u);
}

TEST_F(ContainItTest, HostnameIsolated) {
  auto id = containit_->Deploy(LicenseSpec(), "TKT-1", "alice");
  Session* session = containit_->FindSession(*id);
  EXPECT_EQ(*kernel_->GetHostname(session->shell), "ITContainer");
  EXPECT_EQ(*kernel_->GetHostname(1), "lnx-host");
}

TEST_F(ContainItTest, FilesystemViewLimitedToVisibleDirs) {
  auto id = containit_->Deploy(LicenseSpec(), "TKT-1", "alice");
  witos::Pid shell = containit_->FindSession(*id)->shell;
  // The exposed directory is reachable (through ITFS).
  EXPECT_EQ(*kernel_->ReadFile(shell, "/home/user/notes.txt"), "user notes");
  // The rest of the host fs is simply absent from the private root.
  EXPECT_EQ(kernel_->ReadFile(shell, "/etc/passwd").error(), witos::Err::kNoEnt);
  EXPECT_EQ(kernel_->ReadFile(shell, "/var/log/syslog").error(), witos::Err::kNoEnt);
}

TEST_F(ContainItTest, ItfsDeniesDocumentsInsideView) {
  auto id = containit_->Deploy(LicenseSpec(), "TKT-1", "alice");
  Session* session = containit_->FindSession(*id);
  EXPECT_EQ(kernel_->ReadFile(session->shell, "/home/user/payroll.xlsx").error(),
            witos::Err::kAcces);
  EXPECT_EQ(session->itfs_tally->Read().denied, 1u);
  // One chained record, attributed to the session's host-side worker.
  std::vector<witos::AuditRecord> denials = FileDenials();
  ASSERT_EQ(denials.size(), 1u);
  EXPECT_EQ(denials[0].detail, "open /home/user/payroll.xlsx [deny-documents]");
  EXPECT_EQ(denials[0].pid, session->host_worker);
}

TEST_F(ContainItTest, ContainerWritesReachHostFiles) {
  auto id = containit_->Deploy(LicenseSpec(), "TKT-1", "alice");
  witos::Pid shell = containit_->FindSession(*id)->shell;
  ASSERT_TRUE(kernel_->WriteFile(shell, "/home/user/.matlab-license", "FEATURE ok").ok());
  // Visible on the host: the bind mount exposes the real files.
  EXPECT_EQ(*kernel_->ReadFile(1, "/home/user/.matlab-license"), "FEATURE ok");
}

TEST_F(ContainItTest, PidNamespaceHidesHost) {
  auto id = containit_->Deploy(LicenseSpec(), "TKT-1", "alice");
  witos::Pid shell = containit_->FindSession(*id)->shell;
  auto procs = kernel_->ListProcesses(shell);
  ASSERT_TRUE(procs.ok());
  // Only containIT(init) + bash are visible, with container-local pids.
  ASSERT_EQ(procs->size(), 2u);
  EXPECT_EQ((*procs)[0].pid, 1);
  EXPECT_EQ((*procs)[0].name, "containIT");
  EXPECT_EQ((*procs)[1].name, "bash");
}

TEST_F(ContainItTest, ProcfsReflectsContainerPidNs) {
  auto id = containit_->Deploy(LicenseSpec(), "TKT-1", "alice");
  witos::Pid shell = containit_->FindSession(*id)->shell;
  auto entries = kernel_->ReadDir(shell, "/proc");
  ASSERT_TRUE(entries.ok());
  size_t pid_dirs = 0;
  for (const auto& entry : *entries) {
    if (entry.type == witos::FileType::kDirectory) {
      ++pid_dirs;
    }
  }
  EXPECT_EQ(pid_dirs, 2u);
  auto status = kernel_->ReadFile(shell, "/proc/1/status");
  ASSERT_TRUE(status.ok());
  EXPECT_NE(status->find("containIT"), std::string::npos);
}

TEST_F(ContainItTest, NetworkViewRestrictedToAllowedEndpoints) {
  auto id = containit_->Deploy(LicenseSpec(), "TKT-1", "alice");
  Session* session = containit_->FindSession(*id);
  const witos::Process* proc = kernel_->FindProcess(session->shell);
  witos::NsId net_ns = proc->ns.Get(witos::NsType::kNet);
  // License server reachable.
  EXPECT_TRUE(net_->Request(net_ns, kLicense, 27000, "checkout matlab", session->shell, 0).ok());
  // Everything else unreachable.
  EXPECT_FALSE(net_->Request(net_ns, kEvil, 443, "exfil", session->shell, 0).ok());
}

TEST_F(ContainItTest, CapabilitiesStripped) {
  auto id = containit_->Deploy(LicenseSpec(), "TKT-1", "alice");
  const witos::Process* init = kernel_->FindProcess(containit_->FindSession(*id)->container_init);
  for (witos::Capability cap : ForbiddenCaps().ToList()) {
    EXPECT_FALSE(init->cred.caps.Has(cap)) << witos::CapabilityName(cap);
  }
  EXPECT_FALSE(init->cred.caps.Has(witos::Capability::kSysBoot));
}

TEST_F(ContainItTest, ProcessMgmtSharesPidNsAndKeepsBoot) {
  PerforatedContainerSpec spec = LicenseSpec();
  spec.process_mgmt = true;
  spec.isolate.erase(witos::NsType::kPid);
  auto id = containit_->Deploy(spec, "TKT-2", "alice");
  Session* session = containit_->FindSession(*id);
  // Host processes visible.
  auto procs = kernel_->ListProcesses(session->shell);
  ASSERT_TRUE(procs.ok());
  EXPECT_GT(procs->size(), 2u);
  const witos::Process* init = kernel_->FindProcess(session->container_init);
  EXPECT_TRUE(init->cred.caps.Has(witos::Capability::kSysBoot));
}

TEST_F(ContainItTest, WholeRootViewThroughItfs) {
  PerforatedContainerSpec spec;
  spec.name = "T-6";
  spec.fs.kind = FsView::Kind::kWholeRoot;
  spec.fs.policy.AddRule(witfs::ItfsPolicy::DenyDocumentsRule());
  auto id = containit_->Deploy(spec, "TKT-3", "alice");
  witos::Pid shell = containit_->FindSession(*id)->shell;
  // The whole host fs is visible...
  EXPECT_EQ(*kernel_->ReadFile(shell, "/etc/passwd"), "root:x:0:0\n");
  EXPECT_EQ(*kernel_->ReadFile(shell, "/var/log/syslog"), "boot ok\n");
  // ...but documents are still blocked by the blanket policy.
  EXPECT_EQ(kernel_->ReadFile(shell, "/home/user/payroll.xlsx").error(), witos::Err::kAcces);
  // And every operation was monitored.
  const witobs::OutcomeCounts fs_ops = containit_->FindSession(*id)->itfs_tally->Read();
  EXPECT_GE(fs_ops.allowed, 2u);
  EXPECT_EQ(fs_ops.denied, 1u);
  EXPECT_EQ(FileDenials().size(), 1u);
}

TEST_F(ContainItTest, TerminateKillsSessionProcesses) {
  auto id = containit_->Deploy(LicenseSpec(), "TKT-1", "alice");
  witos::Pid shell = containit_->FindSession(*id)->shell;
  ASSERT_TRUE(containit_->Terminate(*id, "done").ok());
  // The Session is freed; its record stays.
  EXPECT_EQ(containit_->FindSession(*id), nullptr);
  const SessionRecord* record = containit_->FindRetired(*id);
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->ticket_id, "TKT-1");
  EXPECT_EQ(record->shell, shell);
  EXPECT_EQ(record->termination_reason, "done");
  EXPECT_FALSE(kernel_->ProcessAlive(shell));
  EXPECT_EQ(containit_->active_sessions(), 0u);
  EXPECT_EQ(kernel_->audit().CountEvent(witos::AuditEvent::kContainerTerminated), 1u);
}

TEST_F(ContainItTest, WatchdogTerminatesOnPeerDeath) {
  // Attack 7: kill the ITFS daemon -> the whole session dies.
  auto id = containit_->Deploy(LicenseSpec(), "TKT-1", "alice");
  const Session* session = containit_->FindSession(*id);
  witos::Pid shell = session->shell;
  ASSERT_NE(session->itfs_daemon, witos::kNoPid);
  ASSERT_TRUE(kernel_->Exit(session->itfs_daemon, -9).ok());
  EXPECT_EQ(containit_->FindSession(*id), nullptr);
  EXPECT_FALSE(kernel_->ProcessAlive(shell));
  const SessionRecord* record = containit_->FindRetired(*id);
  ASSERT_NE(record, nullptr);
  EXPECT_NE(record->termination_reason.find("peer"), std::string::npos);
}

TEST_F(ContainItTest, OnlineFileSharingExtendsView) {
  auto id = containit_->Deploy(LicenseSpec(), "TKT-1", "alice");
  witos::Pid shell = containit_->FindSession(*id)->shell;
  EXPECT_EQ(kernel_->ReadFile(shell, "/var/log/syslog").error(), witos::Err::kNoEnt);
  // The broker maps /var/log into the running container — no restart.
  ASSERT_TRUE(containit_->ShareDirectory(*id, "/var/log", "/var/log").ok());
  EXPECT_EQ(*kernel_->ReadFile(shell, "/var/log/syslog"), "boot ok\n");
  // The host's own view is untouched (mount lives in the container ns).
  EXPECT_EQ(*kernel_->ReadFile(1, "/var/log/syslog"), "boot ok\n");
}

TEST_F(ContainItTest, SharedDirectoryIsStillMonitored) {
  auto id = containit_->Deploy(LicenseSpec(), "TKT-1", "alice");
  witos::Pid shell = containit_->FindSession(*id)->shell;
  kernel_->root_fs().ProvisionFile("/var/data/report.pdf", "%PDF-1.4 secret");
  ASSERT_TRUE(containit_->ShareDirectory(*id, "/var/data", "/var/data").ok());
  // The newly shared files go through a fresh ITFS bind mount: documents
  // stay blocked, and the denial is the session's like the view's.
  EXPECT_EQ(kernel_->ReadFile(shell, "/var/data/report.pdf").error(), witos::Err::kAcces);
  std::vector<witos::AuditRecord> denials = FileDenials();
  ASSERT_EQ(denials.size(), 1u);
  EXPECT_EQ(denials[0].detail, "open /var/data/report.pdf [deny-documents]");
  EXPECT_EQ(denials[0].pid, containit_->FindSession(*id)->host_worker);
}

TEST_F(ContainItTest, TraditionalContainerFullyIsolated) {
  auto spec = PerforatedContainerSpec::Traditional("T-11");
  auto id = containit_->Deploy(spec, "TKT-4", "alice");
  witos::Pid shell = containit_->FindSession(*id)->shell;
  EXPECT_EQ(kernel_->ReadFile(shell, "/home/user/notes.txt").error(), witos::Err::kNoEnt);
  auto procs = kernel_->ListProcesses(shell);
  EXPECT_EQ(procs->size(), 2u);
  const witos::Process* proc = kernel_->FindProcess(shell);
  EXPECT_FALSE(
      net_->Request(proc->ns.Get(witos::NsType::kNet), kLicense, 27000, "x", shell, 0).ok());
}

TEST_F(ContainItTest, MultipleConcurrentSessions) {
  auto id1 = containit_->Deploy(LicenseSpec(), "TKT-1", "alice");
  auto id2 = containit_->Deploy(LicenseSpec(), "TKT-2", "bob");
  ASSERT_TRUE(id1.ok());
  ASSERT_TRUE(id2.ok());
  EXPECT_EQ(containit_->active_sessions(), 2u);
  // Sessions have independent filesystems and processes.
  witos::Pid shell1 = containit_->FindSession(*id1)->shell;
  witos::Pid shell2 = containit_->FindSession(*id2)->shell;
  ASSERT_TRUE(kernel_->WriteFile(shell1, "/tmp/mine", "session1").ok());
  EXPECT_EQ(kernel_->ReadFile(shell2, "/tmp/mine").error(), witos::Err::kNoEnt);
  ASSERT_TRUE(containit_->Terminate(*id1, "done").ok());
  EXPECT_NE(containit_->FindSession(*id2), nullptr);
  EXPECT_EQ(containit_->FindSessionByTicket("TKT-2")->id, *id2);
  EXPECT_EQ(containit_->FindSessionByTicket("TKT-1"), nullptr);
}

TEST_F(ContainItTest, ImageDeploysShareOneCompiledPolicy) {
  // The repository compiles each image once; every session and every
  // file-sharing mount of that image runs the very same CompiledPolicy.
  ImageRepository repo;
  repo.Register("T-1", LicenseSpec());
  PerforatedContainerSpec unmonitored = LicenseSpec();
  unmonitored.fs.kind = FsView::Kind::kPrivate;
  unmonitored.fs.monitor = false;  // only ShareDirectory mounts ITFS
  repo.Register("T-11", unmonitored);
  const witfs::CompiledPolicy* t1 = repo.Lookup("T-1")->fs.compiled().get();
  const witfs::CompiledPolicy* t11 = repo.Lookup("T-11")->fs.compiled().get();
  ASSERT_NE(t1, nullptr);
  ASSERT_NE(t11, nullptr);

  auto first = containit_->Deploy(*repo.Lookup("T-1"), "TKT-1", "alice");
  auto second = containit_->Deploy(*repo.Lookup("T-1"), "TKT-2", "bob");
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(containit_->FindSession(*first)->itfs->policy_snapshot().get(), t1);
  EXPECT_EQ(containit_->FindSession(*second)->itfs->policy_snapshot().get(), t1);

  auto shared = containit_->Deploy(*repo.Lookup("T-11"), "TKT-3", "carol");
  ASSERT_TRUE(shared.ok());
  ASSERT_EQ(containit_->FindSession(*shared)->itfs, nullptr);
  kernel_->root_fs().ProvisionFile("/var/data/report.pdf", "%PDF-1.4 secret");
  ASSERT_TRUE(containit_->ShareDirectory(*shared, "/var/data", "/var/data").ok());
  Session* session = containit_->FindSession(*shared);
  ASSERT_NE(session->itfs, nullptr);
  EXPECT_EQ(session->itfs->policy_snapshot().get(), t11);
  EXPECT_EQ(kernel_->ReadFile(session->shell, "/var/data/report.pdf").error(),
            witos::Err::kAcces);
}

TEST_F(ContainItTest, RuleAddedToLookedUpSpecIsEnforced) {
  ImageRepository repo;
  repo.Register("T-1", LicenseSpec());
  PerforatedContainerSpec spec = *repo.Lookup("T-1");
  witfs::ItfsRule deny_notes;
  deny_notes.name = "deny-notes";
  deny_notes.path_prefixes = {"/home/user/notes.txt"};
  spec.fs.policy.AddRule(std::move(deny_notes));
  EXPECT_EQ(spec.fs.compiled(), nullptr);  // the image's policy is stale for this spec

  auto edited = containit_->Deploy(spec, "TKT-1", "alice");
  ASSERT_TRUE(edited.ok());
  Session* session = containit_->FindSession(*edited);
  EXPECT_NE(session->itfs->policy_snapshot().get(), repo.Lookup("T-1")->fs.compiled().get());
  EXPECT_EQ(kernel_->ReadFile(session->shell, "/home/user/notes.txt").error(),
            witos::Err::kAcces);
  // The image itself is untouched.
  auto plain = containit_->Deploy(*repo.Lookup("T-1"), "TKT-2", "bob");
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(*kernel_->ReadFile(containit_->FindSession(*plain)->shell, "/home/user/notes.txt"),
            "user notes");
}

TEST_F(ContainItTest, CompiledPolicyFollowsPolicyRevision) {
  FsView view;
  view.policy.AddRule(witfs::ItfsPolicy::DenyDocumentsRule());
  EXPECT_EQ(view.compiled(), nullptr);
  ASSERT_TRUE(view.Compile());
  ASSERT_NE(view.compiled(), nullptr);
  EXPECT_FALSE(view.Compile());  // current: nothing to do

  FsView copy = view;  // a copy keeps the policy and its compiled form
  EXPECT_EQ(copy.compiled(), view.compiled());
  copy.inspection = witfs::InspectionMode::kSignature;
  EXPECT_EQ(copy.compiled(), nullptr);
  copy.inspection = witfs::InspectionMode::kExtensionOnly;
  EXPECT_EQ(copy.compiled(), view.compiled());
  copy.policy.set_log_all(false);
  EXPECT_EQ(copy.compiled(), nullptr);

  // A builder whose rules were moved away no longer matches what was
  // compiled from them.
  witfs::ItfsPolicy taken = std::move(view.policy);
  EXPECT_EQ(view.compiled(), nullptr);
  EXPECT_EQ(taken.rule_count(), 1u);
  // Distinct mutations never share a revision.
  witfs::ItfsPolicy a;
  witfs::ItfsPolicy b;
  a.set_log_all(false);
  b.set_log_all(false);
  EXPECT_NE(a.revision(), b.revision());
}

TEST_F(ContainItTest, PolicyCompileObservedWhereItHappens) {
  witobs::MetricsRegistry registry;
  containit_->EnableMetrics(&registry);
  auto compiles = [&] { return registry.FindHistogram("watchit_policy_compile_ns")->Count(); };
  ImageRepository repo;
  repo.Register("T-1", LicenseSpec());
  EXPECT_EQ(compiles(), 0u);

  // Deploys of a compiled image share its policy: no compile, no sample.
  ASSERT_TRUE(containit_->Deploy(*repo.Lookup("T-1"), "TKT-1", "alice").ok());
  auto id = containit_->Deploy(*repo.Lookup("T-1"), "TKT-2", "alice");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(containit_->ShareDirectory(*id, "/var/log", "/var/log").ok());
  EXPECT_EQ(compiles(), 0u);

  // A hand-built spec is compiled on deploy, once per session.
  auto hand_built = containit_->Deploy(LicenseSpec(), "TKT-3", "alice");
  ASSERT_TRUE(hand_built.ok());
  EXPECT_EQ(compiles(), 1u);
  ASSERT_TRUE(containit_->ShareDirectory(*hand_built, "/var/log", "/var/log").ok());
  EXPECT_EQ(compiles(), 1u);

  // A swap installs a fresh compile.
  containit_->FindSession(*hand_built)->itfs->SwapPolicy(LicenseSpec().fs.policy.Compile());
  EXPECT_EQ(compiles(), 2u);
}

}  // namespace
}  // namespace witcontain
