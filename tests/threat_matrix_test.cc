// The Table 1 threat matrix as executable tests: each attack from the
// paper's §6 threat analysis is mounted against a deployed WatchIT
// environment and must be neutralized by the corresponding defence.

#include <gtest/gtest.h>

#include "src/broker/anomaly.h"
#include "src/core/cluster.h"
#include "src/core/session.h"
#include "src/core/ticket_class.h"
#include "src/durability/durability.h"
#include "src/os/audit.h"
#include "src/os/memfs.h"
#include "src/workload/ticket_gen.h"
#include "src/workload/topology.h"

namespace watchit {
namespace {

class ThreatMatrixTest : public ::testing::Test {
 protected:
  void SetUp() override {
    machine_ = &cluster_.AddMachine("userpc", witnet::Ipv4Addr(10, 0, 1, 50));
    manager_ = std::make_unique<ClusterManager>(&cluster_);
  }

  // Deploys a container of `cls` for mallory's ticket `id` on `machine`.
  Deployment DeployTicket(const std::string& id, const std::string& machine,
                          const std::string& cls) {
    Ticket ticket;
    ticket.id = id;
    ticket.target_machine = machine;
    ticket.assigned_class = cls;
    ticket.admin = "mallory";
    auto deployment = manager_->Deploy(ticket);
    EXPECT_TRUE(deployment.ok());
    return *deployment;
  }

  // Deploys a container of `cls` and returns a logged-in admin session.
  std::unique_ptr<AdminSession> DeployAndLogin(const std::string& cls) {
    Deployment deployment = DeployTicket("TKT-" + cls, "userpc", cls);
    auto session = std::make_unique<AdminSession>(machine_, deployment.session,
                                                  deployment.certificate, &cluster_.ca());
    EXPECT_TRUE(session->Login().ok());
    return session;
  }

  witos::Kernel& kernel() { return machine_->kernel(); }

  static size_t LoginRejections(witos::Kernel& kernel) {
    return kernel.audit()
        .Filter([](const witos::AuditRecord& record) {
          return record.detail.rfind("login rejected", 0) == 0;
        })
        .size();
  }

  Cluster cluster_;
  Machine* machine_ = nullptr;
  std::unique_ptr<ClusterManager> manager_;
};

// Attack 1: escape the perforated container via a second chroot().
TEST_F(ThreatMatrixTest, Attack1ChrootEscapeBlocked) {
  auto session = DeployAndLogin("T-1");
  witos::Pid shell = session->shell();
  ASSERT_TRUE(kernel().MkDir(shell, "/tmp/escape").ok());
  EXPECT_EQ(kernel().Chroot(shell, "/tmp/escape").error(), witos::Err::kPerm);
  EXPECT_GE(kernel().audit().CountEvent(witos::AuditEvent::kCapabilityDenied), 1u);
}

// Attack 2: bind shell via ptrace of an outside process.
TEST_F(ThreatMatrixTest, Attack2PtraceBlocked) {
  auto session = DeployAndLogin("T-5");  // T-5 shares the host PID namespace
  witos::Pid shell = session->shell();
  // The host's init is visible from the shared PID namespace...
  auto procs = kernel().ListProcesses(shell);
  ASSERT_TRUE(procs.ok());
  ASSERT_GT(procs->size(), 2u);
  // ...but attaching to it is impossible without CAP_SYS_PTRACE.
  EXPECT_EQ(kernel().Ptrace(shell, 1).error(), witos::Err::kPerm);
}

// Attack 3: create a raw disk device and mount the real filesystem on it.
TEST_F(ThreatMatrixTest, Attack3RawDiskBlocked) {
  auto session = DeployAndLogin("T-6");  // whole-root view, maximal power
  witos::Pid shell = session->shell();
  EXPECT_EQ(kernel().MkNod(shell, "/tmp/sda", witos::FileType::kBlockDevice, 8).error(),
            witos::Err::kPerm);
  // Even if a device node pre-existed, mount needs CAP_SYS_ADMIN.
  auto fs = std::make_shared<witos::MemFs>("tmpfs");
  EXPECT_EQ(kernel().Mount(shell, fs, "/tmp", "sda").error(), witos::Err::kPerm);
}

// Attack 4: tap kernel memory through /dev/mem or /dev/kmem.
TEST_F(ThreatMatrixTest, Attack4DevMemBlocked) {
  auto session = DeployAndLogin("T-6");
  witos::Pid shell = session->shell();
  // The whole-root view exposes /dev — but opening the memory devices
  // requires the paper's new capability, which ContainIT strips.
  EXPECT_EQ(kernel().Open(shell, "/dev/mem", witos::kOpenRead).error(), witos::Err::kPerm);
  EXPECT_EQ(kernel().Open(shell, "/dev/kmem", witos::kOpenRead).error(), witos::Err::kPerm);
}

// Attack 5: tamper with WatchIT's own software.
TEST_F(ThreatMatrixTest, Attack5WatchItSoftwareProtected) {
  auto session = DeployAndLogin("T-6");
  // ITFS denies even reading WatchIT files inside the view...
  EXPECT_FALSE(session->ReadFile("/usr/watchit/permission-broker").ok());
  // ...and the TCB write guard denies mutation from anywhere, even the host.
  EXPECT_EQ(kernel().WriteFile(1, "/usr/watchit/permission-broker", "evil").error(),
            witos::Err::kPerm);
  EXPECT_TRUE(machine_->tcb_intact());
}

// Attack 6: tamper with the broker's log files. An in-place rewrite breaks
// the chain itself.
TEST_F(ThreatMatrixTest, Attack6LogTamperingDetected) {
  auto session = DeployAndLogin("T-5");
  ASSERT_TRUE(session->Pb(witbroker::kVerbPs, {}).ok());
  witos::AuditLog& log = kernel().audit();
  ASSERT_TRUE(session->Pb(witbroker::kVerbRestartService, {"cron"}).ok());
  ASSERT_TRUE(log.Verify());
  log.TamperForTest(0, "GRANT mallory nothing");
  EXPECT_FALSE(log.Verify());
}

// Attack 6, the smarter attacker: rewrite a record after the last sealed
// root and recompute every hash after it. The chain and its roots still
// verify; the journal's host-side copy does not match.
TEST_F(ThreatMatrixTest, Attack6RewriteAndRechainCaughtByJournal) {
  witdur::DurabilityManager durability(std::make_shared<witos::MemFs>());
  durability.Attach(&cluster_);
  auto session = DeployAndLogin("T-5");
  witos::AuditLog& log = kernel().audit();
  ASSERT_TRUE(session->Pb(witbroker::kVerbPs, {}).ok());
  log.SealEpoch(kernel().clock().now_ns());
  ASSERT_TRUE(session->Pb(witbroker::kVerbReadFile, {"/etc/shadow"}).ok());
  ASSERT_TRUE(durability.ChainMatchesJournal(*machine_));

  const size_t sealed = log.EpochRootsSnapshot().back().size;
  ASSERT_LT(sealed, log.size());
  log.TamperForTest(log.size() - 1, "GRANT mallory TKT-T-5 [T-5] ps", /*rechain=*/true);
  EXPECT_TRUE(log.Verify());
  EXPECT_FALSE(durability.ChainMatchesJournal(*machine_));
}

// Attack 7: kill a WatchIT component to escape monitoring.
TEST_F(ThreatMatrixTest, Attack7KillComponentTerminatesSession) {
  auto session = DeployAndLogin("T-1");
  const witcontain::SessionId id = session->container()->id;
  witos::Pid itfs_daemon = session->container()->itfs_daemon;
  ASSERT_NE(itfs_daemon, witos::kNoPid);
  ASSERT_TRUE(kernel().Exit(itfs_daemon, -9).ok());
  // Terminated: only the session's record is left.
  EXPECT_EQ(session->container(), nullptr);
  const witcontain::SessionRecord* record = machine_->containit().FindRetired(id);
  ASSERT_NE(record, nullptr);
  EXPECT_NE(record->termination_reason.find("peer"), std::string::npos);
  // The admin's shell is gone; further commands fail.
  EXPECT_FALSE(session->ReadFile("/home/user/notes.txt").ok());
}

// Attack 7b: killing the permission broker also tears sessions down.
TEST_F(ThreatMatrixTest, Attack7KillBrokerTerminatesSessions) {
  auto session = DeployAndLogin("T-1");
  const witcontain::SessionId id = session->container()->id;
  ASSERT_TRUE(kernel().Exit(machine_->broker_pid(), -9).ok());
  EXPECT_EQ(session->container(), nullptr);
  EXPECT_NE(machine_->containit().FindRetired(id), nullptr);
}

// Attack 8: read a classified file, encrypt it, exfiltrate it.
TEST_F(ThreatMatrixTest, Attack8EncryptAndExfiltrateBlocked) {
  auto session = DeployAndLogin("T-6");  // has (whitelisted) web access
  // Step 1 fails outright: ITFS blocks the classified file by signature.
  EXPECT_FALSE(session->ReadFile("/home/user/documents/payroll.xlsx").ok());
  // Step 2 fallback: even exfiltrating *other* content that looks encrypted
  // is dropped by the sniffer on the wire.
  const witcontain::Session* info = session->container();
  const witos::Process* shell = kernel().FindProcess(info->shell);
  witos::NsId net_ns = shell->ns.Get(witos::NsType::kNet);
  std::string encrypted;
  std::mt19937 rng(7);
  for (int i = 0; i < 2048; ++i) {
    encrypted += static_cast<char>(rng() & 0xff);
  }
  auto repo = witload::kSoftwareRepo;  // an in-view destination
  EXPECT_EQ(machine_->net().Request(net_ns, repo.addr, repo.port, encrypted, 0).error(),
            witos::Err::kTimedOut);
  EXPECT_GE(info->sniffer->blocked_count(), 1u);
}

// Attack 9: fake tickets — IT personnel cannot create trouble tickets, so a
// session only exists for a real, bound ticket; certificates are
// unforgeable and machine-specific.
TEST_F(ThreatMatrixTest, Attack9ForgedCertificateRejected) {
  Ticket ticket;
  ticket.id = "TKT-REAL";
  ticket.target_machine = "userpc";
  ticket.assigned_class = "T-1";
  ticket.admin = "mallory";
  auto deployment = manager_->Deploy(ticket);
  ASSERT_TRUE(deployment.ok());
  // Mallory edits her certificate to claim a juicier ticket class.
  Certificate forged = deployment->certificate;
  forged.ticket_class = "T-6";
  AdminSession session(machine_, deployment->session, forged, &cluster_.ca());
  EXPECT_EQ(session.Login().error(), witos::Err::kPerm);
  // And a self-made certificate is unknown to the CA.
  Certificate invented;
  invented.serial = 9999;
  invented.admin = "mallory";
  AdminSession session2(machine_, deployment->session, invented, &cluster_.ca());
  EXPECT_EQ(session2.Login().error(), witos::Err::kPerm);
}

// Attack 9, expiry forgery: the CA secret is the constructor default, and
// anyone holding one certificate can recover it by running FNV-1a
// backwards. Mallory signs a copy of her certificate with a far later
// expiry, exactly as the CA signs. The CA accepts only the certificate it
// issued, unchanged, so once the genuine one expires the copy is refused.
TEST_F(ThreatMatrixTest, Attack9ResignedExpiryRejected) {
  Ticket ticket;
  ticket.id = "TKT-SHORT";
  ticket.target_machine = "userpc";
  ticket.assigned_class = "T-1";
  ticket.admin = "mallory";
  auto deployment = manager_->Deploy(ticket, /*lifetime_ns=*/1000);
  ASSERT_TRUE(deployment.ok());
  constexpr uint64_t kRecoveredSecret = 0x57a7c417u;
  auto sign = [](const Certificate& cert) {
    return witos::Fnv1a(cert.admin + "|" + cert.machine + "|" + cert.ticket_id + "|" +
                            cert.ticket_class + "|" + std::to_string(cert.serial) + "|" +
                            std::to_string(cert.issued_ns) + "|" +
                            std::to_string(cert.expires_ns),
                        kRecoveredSecret);
  };
  // Mallory's signing reproduces the CA's.
  ASSERT_EQ(sign(deployment->certificate), deployment->certificate.signature);
  Certificate forged = deployment->certificate;
  forged.expires_ns = 1ull << 62;
  forged.signature = sign(forged);

  kernel().clock().Advance(2000);  // past the genuine expiry
  const uint64_t now = kernel().clock().now_ns();
  EXPECT_EQ(cluster_.ca().Validate(deployment->certificate, now), CertStatus::kExpired);
  EXPECT_EQ(cluster_.ca().Validate(forged, now), CertStatus::kForged);
  AdminSession session(machine_, deployment->session, forged, &cluster_.ca());
  EXPECT_EQ(session.Login().error(), witos::Err::kPerm);
  EXPECT_EQ(LoginRejections(kernel()), 1u);
}

// Attack 9, certificate reuse: a validly signed certificate opens only the
// session it was issued for. Mallory's genuine certificate for a ticket on
// userpc does not log in to her session on another machine.
TEST_F(ThreatMatrixTest, Attack9CertificateReuseAcrossMachinesRejected) {
  Machine& devbox = cluster_.AddMachine("devbox", witnet::Ipv4Addr(10, 0, 1, 51));
  Deployment here = DeployTicket("TKT-HERE", "userpc", "T-1");
  Deployment there = DeployTicket("TKT-THERE", "devbox", "T-1");
  AdminSession reused(&devbox, there.session, here.certificate, &cluster_.ca());
  EXPECT_EQ(reused.Login().error(), witos::Err::kPerm);
  EXPECT_EQ(LoginRejections(devbox.kernel()), 1u);
  // The certificate issued for that session still opens it.
  AdminSession own(&devbox, there.session, there.certificate, &cluster_.ca());
  EXPECT_TRUE(own.Login().ok());
}

// ... nor, on one machine, a session deployed for another ticket — here a
// broader class than the one her certificate names.
TEST_F(ThreatMatrixTest, Attack9CertificateReuseAcrossTicketsRejected) {
  Deployment narrow = DeployTicket("TKT-NARROW", "userpc", "T-1");
  Deployment broad = DeployTicket("TKT-BROAD", "userpc", "T-6");
  AdminSession reused(machine_, broad.session, narrow.certificate, &cluster_.ca());
  EXPECT_EQ(reused.Login().error(), witos::Err::kPerm);
  EXPECT_EQ(LoginRejections(kernel()), 1u);
  AdminSession own(machine_, broad.session, broad.certificate, &cluster_.ca());
  EXPECT_TRUE(own.Login().ok());
}

// Attack 10: ticket stringing — even across classes, the blanket hard
// constraints (document filter, sniffer rules) hold in every container.
TEST_F(ThreatMatrixTest, Attack10StringingStillConstrained) {
  for (int cls = 1; cls <= 10; ++cls) {
    auto session = DeployAndLogin(witload::TicketClassName(cls));
    EXPECT_FALSE(session->ReadFile("/home/user/documents/payroll.xlsx").ok())
        << "class T-" << cls << " leaked the document";
    EXPECT_FALSE(session->ReadFile("/home/user/documents/patients.pdf").ok());
  }
}

// Attack 11: malware installation from the web — only whitelisted sites are
// reachable, and only for the software class.
TEST_F(ThreatMatrixTest, Attack11WebRestrictedToWhitelist) {
  auto session = DeployAndLogin("T-6");
  // Whitelisted mirror reachable.
  EXPECT_TRUE(session->Connect("eclipse-mirror", 0).ok());
  // Arbitrary internet host is not.
  EXPECT_FALSE(session->Connect("evil-host", 0).ok());
  // Other classes get no web at all.
  auto license_session = DeployAndLogin("T-1");
  EXPECT_FALSE(license_session->Connect("eclipse-mirror", 0).ok());
}

// Expired certificates stop working ("revoked once the ticket time
// expires").
TEST_F(ThreatMatrixTest, ExpiredCertificateLosesAccess) {
  Ticket ticket;
  ticket.id = "TKT-SHORT";
  ticket.target_machine = "userpc";
  ticket.assigned_class = "T-1";
  ticket.admin = "alice";
  auto deployment = manager_->Deploy(ticket, /*lifetime_ns=*/1000);
  ASSERT_TRUE(deployment.ok());
  AdminSession session(machine_, deployment->session, deployment->certificate, &cluster_.ca());
  ASSERT_TRUE(session.Login().ok());
  ASSERT_TRUE(session.ReadFile("/home/user/notes.txt").ok());
  kernel().clock().Advance(2000);  // ticket time passes
  EXPECT_EQ(session.ReadFile("/home/user/notes.txt").error(), witos::Err::kPerm);
}

// Broker rate limits are per class: one admin alternating requests between
// tickets of two throttled classes with different windows gets each class's
// budget, no more — the classes do not reset each other's counts.
TEST_F(ThreatMatrixTest, RateLimitBudgetsHoldPerClassForOneAdmin) {
  witbroker::ClassPolicy minute;
  minute.allowed_verbs = {witbroker::kVerbPs};
  minute.max_requests_per_window = 3;
  minute.window_ns = 60ull * 1000000000ull;
  witbroker::ClassPolicy longer = minute;
  longer.max_requests_per_window = 4;
  longer.window_ns = 90ull * 1000000000ull;
  machine_->policy().SetPolicy("T-1", minute);
  machine_->policy().SetPolicy("T-5", longer);
  // 1000 s in, the two windows have different indices (16 and 11), and
  // neither ends during the test.
  kernel().clock().Advance(1000ull * 1000000000ull);
  auto first = DeployAndLogin("T-1");
  auto second = DeployAndLogin("T-5");
  size_t first_granted = 0;
  size_t second_granted = 0;
  for (int i = 0; i < 10; ++i) {
    first_granted += first->Pb(witbroker::kVerbPs, {}).ok() ? 1u : 0u;
    second_granted += second->Pb(witbroker::kVerbPs, {}).ok() ? 1u : 0u;
  }
  EXPECT_EQ(first_granted, 3u);
  EXPECT_EQ(second_granted, 4u);
}

// Driver updates (TCB changes) must go through the broker and be signed.
TEST_F(ThreatMatrixTest, DriverUpdateNeedsPolicySignature) {
  auto session = DeployAndLogin("T-11");
  // Unsigned module: the TCB guard rejects it even via the broker.
  EXPECT_FALSE(session->Pb(witbroker::kVerbDriverUpdate, {"rootkit"}).ok());
  // Signed module: allowed, audited.
  machine_->tcb().AuthorizeModule("raid-ctl");
  EXPECT_TRUE(session->Pb(witbroker::kVerbDriverUpdate, {"raid-ctl"}).ok());
  EXPECT_EQ(kernel().loaded_modules(), std::vector<std::string>{"raid-ctl"});
  // For classes other than T-11 the policy denies the verb entirely.
  auto t1 = DeployAndLogin("T-1");
  EXPECT_FALSE(t1->Pb(witbroker::kVerbDriverUpdate, {"raid-ctl"}).ok());
}

// Anomaly detection over the broker log catches a rogue admin's unusual
// requests.
TEST_F(ThreatMatrixTest, AnomalyDetectionFlagsRogueRequests) {
  auto session = DeployAndLogin("T-5");
  // Benign history: routine ps / restarts.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(session->Pb(witbroker::kVerbPs, {}).ok());
  }
  witbroker::AnomalyDetector detector;
  detector.Fit(witbroker::BrokerEventsOf(kernel().audit().Snapshot()));
  // The rogue request: reading the shadow file via the broker.
  ASSERT_TRUE(session->Pb(witbroker::kVerbReadFile, {"/etc/shadow"}).ok());
  auto events = witbroker::BrokerEventsOf(kernel().audit().Snapshot());
  auto scores = detector.Analyze(events);
  EXPECT_TRUE(scores.back().flagged);
}

}  // namespace
}  // namespace watchit
