// Tests for certificates, TCB integrity, machines/cluster and the IT
// framework.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "src/core/case_study.h"
#include "src/core/cluster.h"
#include "src/core/session.h"
#include "src/core/ticket_class.h"
#include "src/workload/ticket_gen.h"
#include "src/workload/topology.h"

namespace watchit {
namespace {

TEST(CertificateTest, IssueValidateLifecycle) {
  CertificateAuthority ca;
  Certificate cert = ca.Issue("alice", "userpc", "TKT-1", "T-1", 1000, 500);
  EXPECT_EQ(ca.Validate(cert, 1200), CertStatus::kValid);
  EXPECT_EQ(ca.Validate(cert, 1500), CertStatus::kExpired);
  ca.Revoke(cert.serial);
  EXPECT_EQ(ca.Validate(cert, 1200), CertStatus::kRevoked);
}

TEST(CertificateTest, TamperingIsForgery) {
  CertificateAuthority ca;
  Certificate cert = ca.Issue("alice", "userpc", "TKT-1", "T-1", 0, 1000);
  Certificate forged = cert;
  forged.admin = "mallory";
  EXPECT_EQ(ca.Validate(forged, 10), CertStatus::kForged);
  forged = cert;
  forged.expires_ns = 1ull << 60;
  EXPECT_EQ(ca.Validate(forged, 10), CertStatus::kForged);
  Certificate unknown;
  unknown.serial = 424242;
  EXPECT_EQ(ca.Validate(unknown, 10), CertStatus::kUnknown);
}

TEST(CertificateTest, DifferentSecretsProduceDifferentSignatures) {
  CertificateAuthority a(1), b(2);
  Certificate cert_a = a.Issue("x", "m", "t", "c", 0, 1);
  Certificate cert_b = b.Issue("x", "m", "t", "c", 0, 1);
  EXPECT_NE(cert_a.signature, cert_b.signature);
}

// Revoking erases the certificate: what stays of it is its serial, in a run
// of revoked serials. Out-of-order revocations split and rejoin the runs.
TEST(CertificateTest, RevokedSerialsReadRevokedWhateverTheFields) {
  CertificateAuthority ca;
  std::vector<Certificate> certs;
  for (int i = 0; i < 6; ++i) {
    certs.push_back(ca.Issue("alice", "userpc", "TKT-" + std::to_string(i), "T-1", 0, 1000));
  }
  uint64_t notified = 0;
  ca.set_revoke_listener([&](uint64_t) { ++notified; });
  for (size_t i : {4u, 1u, 2u, 5u, 1u}) {
    ca.Revoke(certs[i].serial);
  }
  EXPECT_EQ(notified, 4u);  // the second revoke of serial 2 is silent
  EXPECT_EQ(ca.revoked_count(), 4u);
  EXPECT_EQ(ca.issued_count(), 6u);
  using Run = CertificateAuthority::RevokedRun;
  EXPECT_EQ(ca.RevokedRunsSnapshot(), (std::vector<Run>{{2, 3}, {5, 6}}));
  ASSERT_EQ(ca.IssuedSnapshot().size(), 2u);
  EXPECT_EQ(ca.IssuedSnapshot()[0], certs[0]);
  EXPECT_EQ(ca.IssuedSnapshot()[1], certs[3]);

  Certificate modified = certs[1];
  modified.ticket_class = "T-6";
  modified.expires_ns = 1ull << 62;
  EXPECT_EQ(ca.Validate(certs[1], 10), CertStatus::kRevoked);
  EXPECT_EQ(ca.Validate(modified, 10), CertStatus::kRevoked);
  EXPECT_EQ(ca.Validate(certs[0], 10), CertStatus::kValid);
  EXPECT_FALSE(ca.IsRevoked(certs[0].serial));
  EXPECT_TRUE(ca.IsRevoked(certs[2].serial));

  // A serial this CA never issued stays unknown, and revoking it changes
  // nothing.
  ca.Revoke(4242);
  Certificate unknown;
  unknown.serial = 4242;
  EXPECT_EQ(ca.Validate(unknown, 10), CertStatus::kUnknown);
  EXPECT_FALSE(ca.IsRevoked(4242));
  EXPECT_EQ(ca.revoked_count(), 4u);
  EXPECT_EQ(ca.issued_count(), 6u);
  EXPECT_EQ(notified, 4u);
}

// Recovery from a checkpoint that holds live certificates only: a revoked
// serial arrives with no issue record, and still counts and advances the
// serials.
TEST(CertificateTest, RestoredRevocationWithoutItsIssue) {
  CertificateAuthority ca;
  ASSERT_TRUE(ca.RestoreRevokedRun(7, 7).ok());
  ASSERT_TRUE(ca.RestoreRevokedRun(7, 7).ok());
  EXPECT_TRUE(ca.IsRevoked(7));
  EXPECT_EQ(ca.revoked_count(), 1u);
  EXPECT_EQ(ca.issued_count(), 1u);
  EXPECT_EQ(ca.Issue("alice", "userpc", "TKT-1", "T-1", 0, 1000).serial, 8u);

  // A journaled serial no CA issues would wrap the next serial onto ones
  // already issued: refused, and the serials keep counting.
  EXPECT_EQ(ca.RestoreRevokedRun(UINT64_MAX, UINT64_MAX).error(), witos::Err::kInval);
  EXPECT_EQ(ca.RestoreRevokedRun(0, 0).error(), witos::Err::kInval);
  Certificate wrapping;
  wrapping.serial = UINT64_MAX;
  EXPECT_EQ(ca.RestoreIssued(wrapping).error(), witos::Err::kInval);
  EXPECT_EQ(ca.revoked_count(), 1u);
  EXPECT_EQ(ca.Issue("alice", "userpc", "TKT-2", "T-1", 0, 1000).serial, 9u);

  // A certificate restored live, then its revocation: erased.
  CertificateAuthority other;
  Certificate cert = other.Issue("alice", "userpc", "TKT-1", "T-1", 0, 1000);
  CertificateAuthority restored;
  ASSERT_TRUE(restored.RestoreIssued(cert).ok());
  ASSERT_TRUE(restored.RestoreRevokedRun(cert.serial, cert.serial).ok());
  EXPECT_TRUE(restored.IssuedSnapshot().empty());
  EXPECT_EQ(restored.Validate(cert, 10), CertStatus::kRevoked);
  EXPECT_EQ(restored.RestoreIssued(cert).error(), witos::Err::kExist);
}

// A checkpoint's revoked run merges with the runs and certificates already
// restored: live certificates inside it are erased, overlapping serials
// count once, and a run of 2^40 serials restores without touching each.
TEST(CertificateTest, RestoredRunMergesWithRevocationsAndLiveCertificates) {
  using Run = CertificateAuthority::RevokedRun;
  CertificateAuthority origin;
  std::vector<Certificate> certs;
  for (int i = 0; i < 12; ++i) {
    certs.push_back(origin.Issue("alice", "userpc", "TKT-" + std::to_string(i), "T-1", 0, 1000));
  }
  CertificateAuthority ca;
  for (const Certificate& cert : certs) {
    ASSERT_TRUE(ca.RestoreIssued(cert).ok());  // serials 1..12 live
  }
  ASSERT_TRUE(ca.RestoreRevokedRun(2, 2).ok());
  ASSERT_TRUE(ca.RestoreRevokedRun(9, 9).ok());
  EXPECT_EQ(ca.revoked_count(), 2u);
  EXPECT_EQ(ca.issued_count(), 12u);

  // 3..10 overlaps serial 9's run, touches serial 2's, and covers seven
  // live certificates (3..8 and 10).
  ASSERT_TRUE(ca.RestoreRevokedRun(3, 10).ok());
  EXPECT_EQ(ca.RevokedRunsSnapshot(), (std::vector<Run>{{2, 10}}));
  EXPECT_EQ(ca.revoked_count(), 9u);
  EXPECT_EQ(ca.issued_count(), 12u);
  ASSERT_EQ(ca.IssuedSnapshot().size(), 3u);
  EXPECT_EQ(ca.IssuedSnapshot()[0], certs[0]);
  EXPECT_EQ(ca.IssuedSnapshot()[1], certs[10]);
  EXPECT_EQ(ca.Validate(certs[4], 10), CertStatus::kRevoked);
  EXPECT_EQ(ca.Validate(certs[11], 10), CertStatus::kValid);
  // Idempotent, and a run inside a held one changes nothing.
  ASSERT_TRUE(ca.RestoreRevokedRun(3, 10).ok());
  ASSERT_TRUE(ca.RestoreRevokedRun(5, 6).ok());
  EXPECT_EQ(ca.revoked_count(), 9u);

  // A run bridging two held runs joins them; live serial 11 is erased.
  ASSERT_TRUE(ca.RestoreRevokedRun(20, 30).ok());
  ASSERT_TRUE(ca.RestoreRevokedRun(11, 19).ok());
  EXPECT_EQ(ca.RevokedRunsSnapshot(), (std::vector<Run>{{2, 30}}));
  EXPECT_EQ(ca.revoked_count(), 29u);
  EXPECT_EQ(ca.issued_count(), 30u);  // certificate 1 is the one live
  EXPECT_EQ(ca.Issue("bob", "userpc", "TKT-X", "T-1", 0, 1000).serial, 31u);

  // A run of 2^40 serials: O(runs) work, exact counts, serials move past it.
  constexpr uint64_t kHuge = uint64_t{1} << 40;
  ASSERT_TRUE(ca.RestoreRevokedRun(100, 100 + kHuge - 1).ok());
  EXPECT_EQ(ca.revoked_count(), 29u + kHuge);
  EXPECT_TRUE(ca.IsRevoked(100 + kHuge / 2));
  EXPECT_EQ(ca.Issue("bob", "userpc", "TKT-Y", "T-1", 0, 1000).serial, 100 + kHuge);

  // Inverted or unissuable bounds: EINVAL, and nothing changes.
  const std::vector<Run> before = ca.RevokedRunsSnapshot();
  EXPECT_EQ(ca.RestoreRevokedRun(50, 40).error(), witos::Err::kInval);
  EXPECT_EQ(ca.RestoreRevokedRun(0, 40).error(), witos::Err::kInval);
  EXPECT_EQ(ca.RestoreRevokedRun(50, UINT64_MAX).error(), witos::Err::kInval);
  EXPECT_EQ(ca.RevokedRunsSnapshot(), before);
  EXPECT_EQ(ca.revoked_count(), 29u + kHuge);
}

// A long run of tickets leaves only its live certificates in the CA.
TEST(CertificateTest, DeployExpireCyclesLeaveNoCertificates) {
  Cluster cluster;
  cluster.AddMachine("userpc", witnet::Ipv4Addr(10, 0, 1, 50));
  ClusterManager manager(&cluster);
  for (int i = 0; i < 100; ++i) {
    Ticket ticket;
    ticket.id = "TKT-" + std::to_string(i);
    ticket.target_machine = "userpc";
    ticket.assigned_class = "T-1";
    ticket.admin = "alice";
    auto deployment = manager.Deploy(ticket);
    ASSERT_TRUE(deployment.ok());
    ASSERT_TRUE(manager.Expire(&*deployment).ok());
  }
  EXPECT_TRUE(cluster.ca().IssuedSnapshot().empty());
  EXPECT_EQ(cluster.ca().issued_count(), 100u);
  EXPECT_EQ(cluster.ca().revoked_count(), 100u);
}

TEST(TcbTest, EnrollAndValidate) {
  witos::Kernel kernel("host");
  kernel.root_fs().ProvisionFile("/usr/watchit/bin", "v1");
  Tcb tcb(&kernel, {"/usr/watchit"});
  tcb.Enroll();
  EXPECT_TRUE(tcb.ValidateBoot());
  // Out-of-band tampering (before the guard) breaks the measurement.
  kernel.root_fs().ProvisionFile("/usr/watchit/bin", "evil");
  EXPECT_FALSE(tcb.ValidateBoot());
}

TEST(TcbTest, GuardBlocksWritesAndModules) {
  witos::Kernel kernel("host");
  kernel.root_fs().ProvisionFile("/usr/watchit/bin", "v1");
  kernel.root_fs().ProvisionDir("/lib/modules");
  Tcb tcb(&kernel, {"/usr/watchit"});
  tcb.Enroll();
  tcb.InstallGuard();
  EXPECT_EQ(kernel.WriteFile(1, "/usr/watchit/bin", "evil").error(), witos::Err::kPerm);
  EXPECT_TRUE(tcb.ValidateBoot());
  EXPECT_EQ(kernel.LoadModule(1, "rootkit").error(), witos::Err::kPerm);
  tcb.AuthorizeModule("good-driver");
  EXPECT_TRUE(kernel.LoadModule(1, "good-driver").ok());
  // Unprotected paths unaffected.
  EXPECT_TRUE(kernel.WriteFile(1, "/tmp/scratch", "fine").ok());
}

TEST(MachineTest, BootsTrustedAndProvisioned) {
  witnet::Network fabric;
  Machine machine("userpc", witnet::Ipv4Addr(10, 0, 1, 50), &fabric);
  EXPECT_TRUE(machine.tcb_intact());
  EXPECT_TRUE(machine.kernel().ProcessAlive(machine.broker_pid()));
  EXPECT_TRUE(machine.kernel().ReadFile(1, "/etc/passwd").ok());
  EXPECT_TRUE(machine.kernel().ReadFile(1, "/home/user/documents/payroll.xlsx").ok());
}

TEST(ClusterTest, ServicesRespondOnFabric) {
  Cluster cluster;
  Machine& machine = cluster.AddMachine("userpc", witnet::Ipv4Addr(10, 0, 1, 50));
  // The host's own namespace has a default route: all services reachable.
  witos::NsId host_ns = machine.NetNsOf(1);
  auto resp = machine.net().Request(host_ns, witload::kLicenseServer.addr,
                                    witload::kLicenseServer.port, "checkout", 1, 0);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->substr(0, 6), "FLEXLM");
}

TEST(ClusterManagerTest, DeployBindsTicketIssuesCert) {
  Cluster cluster;
  cluster.AddMachine("userpc", witnet::Ipv4Addr(10, 0, 1, 50));
  ClusterManager manager(&cluster);
  Ticket ticket;
  ticket.id = "TKT-9";
  ticket.target_machine = "userpc";
  ticket.assigned_class = "T-9";
  ticket.admin = "alice";
  auto deployment = manager.Deploy(ticket);
  ASSERT_TRUE(deployment.ok());
  EXPECT_EQ(deployment->certificate.ticket_class, "T-9");
  EXPECT_EQ(cluster.ca().Validate(deployment->certificate,
                                  deployment->machine->kernel().clock().now_ns()),
            CertStatus::kValid);
  ASSERT_TRUE(manager.Expire(&*deployment).ok());
  EXPECT_EQ(cluster.ca().Validate(deployment->certificate, 0), CertStatus::kRevoked);
  // Unknown machine / class fail cleanly.
  ticket.target_machine = "ghost";
  EXPECT_FALSE(manager.Deploy(ticket).ok());
  ticket.target_machine = "userpc";
  ticket.assigned_class = "T-99";
  EXPECT_FALSE(manager.Deploy(ticket).ok());
}

TEST(FrameworkTest, ClassifiesSyntheticTickets) {
  witload::TicketGenerator::Options options;
  options.seed = 3;
  witload::TicketGenerator gen(options);
  auto history = gen.GenerateBatch(800, witload::TicketGenerator::HistoricalDistribution());
  std::vector<std::pair<std::string, std::string>> labelled;
  for (const auto& t : history) {
    labelled.emplace_back(t.text, t.true_class);
  }
  ItFramework::Config config;
  config.lda.iterations = 150;
  ItFramework framework(config);
  framework.TrainOnHistory(labelled);
  ASSERT_TRUE(framework.trained());

  // Held-out tickets: overall accuracy should be solidly above chance.
  witload::TicketGenerator::Options eval_options;
  eval_options.seed = 99;
  eval_options.typo_rate = 0.03;
  witload::TicketGenerator eval_gen(eval_options);
  auto eval = eval_gen.GenerateBatch(200, witload::TicketGenerator::HistoricalDistribution());
  size_t correct = 0;
  for (const auto& t : eval) {
    correct += framework.Classify(t.text) == t.true_class ? 1u : 0u;
  }
  EXPECT_GT(correct, 140u) << "accuracy " << correct << "/200";
}

TEST(FrameworkTest, ConcurrentClassifyMatchesSingleThreaded) {
  // Many serving workers share one trained framework; with metrics on,
  // concurrent classification must neither race nor change a prediction.
  witload::TicketGenerator::Options options;
  options.seed = 4;
  witload::TicketGenerator gen(options);
  std::vector<std::pair<std::string, std::string>> labelled;
  for (const auto& t :
       gen.GenerateBatch(400, witload::TicketGenerator::HistoricalDistribution())) {
    labelled.emplace_back(t.text, t.true_class);
  }
  ItFramework::Config config;
  config.lda.iterations = 80;
  ItFramework framework(config);
  witobs::MetricsRegistry registry;
  framework.EnableMetrics(&registry);
  framework.TrainOnHistory(labelled);

  witload::TicketGenerator::Options eval_options;
  eval_options.seed = 41;
  eval_options.typo_rate = 0.03;
  witload::TicketGenerator eval_gen(eval_options);
  auto eval = eval_gen.GenerateBatch(60, witload::TicketGenerator::EvaluationDistribution());
  std::vector<std::string> expected;
  for (const auto& t : eval) {
    expected.push_back(framework.Classify(t.text));
  }

  constexpr size_t kThreads = 8;
  std::vector<std::vector<std::string>> got(kThreads);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      // Each thread starts at a different ticket so the threads overlap on
      // different work.
      got[i].resize(eval.size());
      for (size_t n = 0; n < eval.size(); ++n) {
        size_t j = (n + i * 7) % eval.size();
        got[i][j] = framework.Classify(eval[j].text);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  for (size_t i = 0; i < kThreads; ++i) {
    EXPECT_EQ(got[i], expected) << "thread " << i;
  }
  const uint64_t classified = eval.size() * (kThreads + 1);
  EXPECT_EQ(registry.FindHistogram("watchit_framework_classify_latency_ns")->Count(),
            classified);
}

TEST(SessionTest, CommandsRespectView) {
  Cluster cluster;
  Machine& machine = cluster.AddMachine("userpc", witnet::Ipv4Addr(10, 0, 1, 50));
  ClusterManager manager(&cluster);
  Ticket ticket;
  ticket.id = "TKT-1";
  ticket.target_machine = "userpc";
  ticket.assigned_class = "T-1";
  ticket.admin = "alice";
  auto deployment = manager.Deploy(ticket);
  ASSERT_TRUE(deployment.ok());
  AdminSession session(&machine, deployment->session, deployment->certificate, &cluster.ca());
  ASSERT_TRUE(session.Login().ok());

  EXPECT_EQ(*session.Hostname(), "ITContainer");
  EXPECT_TRUE(session.ReadFile("/home/user/.matlab/license.lic").ok());
  EXPECT_FALSE(session.ReadFile("/etc/shadow").ok());
  EXPECT_TRUE(session.Connect("license-server", 0).ok());
  EXPECT_FALSE(session.Connect("shared-storage", 0).ok());
  EXPECT_FALSE(session.RestartService("sshd").ok());  // no process mgmt in T-1
  EXPECT_FALSE(session.Reboot().ok());
  auto ps = session.Ps();
  ASSERT_TRUE(ps.ok());
  EXPECT_EQ(ps->size(), 2u);
  // The PB prefix works, mirroring Figure 6.
  auto pb_ps = session.Pb(witbroker::kVerbPs, {});
  ASSERT_TRUE(pb_ps.ok());
  EXPECT_NE(pb_ps->find("PermissionBroker"), std::string::npos);
}

// Login is the one CA call a session makes: later ops check the
// certificate's deadline against the machine clock and take no CA lock.
TEST(SessionTest, OpsAfterLoginTakeNoCaLock) {
  Cluster cluster;
  Machine& machine = cluster.AddMachine("userpc", witnet::Ipv4Addr(10, 0, 1, 50));
  ClusterManager manager(&cluster);
  Ticket ticket;
  ticket.id = "TKT-1";
  ticket.target_machine = "userpc";
  ticket.assigned_class = "T-1";
  ticket.admin = "alice";
  auto deployment = manager.Deploy(ticket);
  ASSERT_TRUE(deployment.ok());
  witobs::MetricsRegistry registry;
  cluster.ca().EnableLockMetrics(&registry);
  const witobs::Histogram* ca_hold =
      registry.FindHistogram("watchit_lock_hold_ns", {{"lock", "ca"}});
  ASSERT_NE(ca_hold, nullptr);

  AdminSession session(&machine, deployment->session, deployment->certificate, &cluster.ca());
  ASSERT_TRUE(session.Login().ok());
  const uint64_t after_login = ca_hold->Count();
  EXPECT_EQ(after_login, 1u);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(session.ReadFile("/home/user/.matlab/license.lic").ok());
  }
  EXPECT_EQ(ca_hold->Count(), after_login);
}

TEST(SessionTest, ReplayFallsBackToBroker) {
  Cluster cluster;
  Machine& machine = cluster.AddMachine("userpc", witnet::Ipv4Addr(10, 0, 1, 50));
  ClusterManager manager(&cluster);
  Ticket ticket;
  ticket.id = "TKT-2";
  ticket.target_machine = "userpc";
  ticket.assigned_class = "T-1";
  ticket.admin = "alice";
  auto deployment = manager.Deploy(ticket);
  ASSERT_TRUE(deployment.ok());
  AdminSession session(&machine, deployment->session, deployment->certificate, &cluster.ca());
  ASSERT_TRUE(session.Login().ok());

  // In-view op: home-directory write.
  witload::RequiredOp write_op;
  write_op.kind = witload::OpKind::kWriteFile;
  write_op.path = "/home/user/.matlab/license.lic";
  auto r1 = session.Replay(write_op);
  EXPECT_TRUE(r1.in_view);
  EXPECT_FALSE(r1.used_broker);

  // Out-of-view op: host process listing (T-1 has an isolated PID ns).
  witload::RequiredOp ps_op;
  ps_op.kind = witload::OpKind::kListProcesses;
  auto r2 = session.Replay(ps_op);
  EXPECT_FALSE(r2.in_view);
  EXPECT_TRUE(r2.used_broker);
  EXPECT_TRUE(r2.broker_ok);
  EXPECT_EQ(r2.category, witload::BrokerCategory::kProcessManagement);

  // Out-of-view network op: the broker widens the view, then it works.
  witload::RequiredOp net_op;
  net_op.kind = witload::OpKind::kConnect;
  net_op.endpoint_name = "software-repo";
  net_op.port = 80;
  auto r3 = session.Replay(net_op);
  EXPECT_FALSE(r3.in_view);
  EXPECT_TRUE(r3.used_broker);
  EXPECT_TRUE(r3.broker_ok);
  EXPECT_EQ(r3.category, witload::BrokerCategory::kNetwork);
  // After the grant, the endpoint is in view for subsequent attempts.
  EXPECT_TRUE(session.Connect("software-repo", 80).ok());
}

}  // namespace
}  // namespace watchit
