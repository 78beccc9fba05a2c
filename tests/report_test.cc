// Forensic reporting tests: a benign session scores low; a probing rogue
// floats to the top of the triage queue; a session's denied paths cover
// every ITFS mount of it; its network lines are exactly what its own
// processes did; a closed session's record reports what the live session
// did; a tampered evidence chain is reported as such, not read; and triage
// runs race-free beside a serving machine.

#include "src/core/report.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <random>
#include <thread>

#include "src/core/cluster.h"
#include "src/core/session.h"
#include "src/workload/topology.h"

namespace watchit {
namespace {

class ReportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    machine_ = &cluster_.AddMachine("userpc", witnet::Ipv4Addr(10, 0, 1, 50));
    manager_ = std::make_unique<ClusterManager>(&cluster_);
  }

  Deployment Deploy(const std::string& cls, const std::string& id, const std::string& admin) {
    Ticket ticket;
    ticket.id = id;
    ticket.target_machine = "userpc";
    ticket.assigned_class = cls;
    ticket.admin = admin;
    return *manager_->Deploy(ticket);
  }

  Cluster cluster_;
  Machine* machine_ = nullptr;
  std::unique_ptr<ClusterManager> manager_;
};

TEST_F(ReportTest, BenignSessionScoresLow) {
  Deployment deployment = Deploy("T-1", "TKT-GOOD", "alice");
  AdminSession session(machine_, deployment.session, deployment.certificate, &cluster_.ca());
  ASSERT_TRUE(session.Login().ok());
  ASSERT_TRUE(session.ReadFile("/home/user/.matlab/license.lic").ok());
  ASSERT_TRUE(session.Connect("license-server", 0).ok());

  ForensicReporter reporter(machine_);
  auto forensics = reporter.Collect(deployment.session);
  ASSERT_TRUE(forensics.ok());
  EXPECT_EQ(forensics->admin, "alice");
  EXPECT_GT(forensics->fs_ops, 0u);
  EXPECT_EQ(forensics->fs_denied, 0u);
  EXPECT_EQ(forensics->severity, 0);
  std::string rendered = ForensicReporter::Render(*forensics);
  EXPECT_NE(rendered.find("TKT-GOOD"), std::string::npos);
  EXPECT_NE(rendered.find("severity: 0"), std::string::npos);
}

TEST_F(ReportTest, ProbingSessionScoresHighAndTriagesFirst) {
  Deployment good = Deploy("T-1", "TKT-GOOD", "alice");
  AdminSession good_session(machine_, good.session, good.certificate, &cluster_.ca());
  ASSERT_TRUE(good_session.Login().ok());
  (void)good_session.ReadFile("/home/user/.matlab/license.lic");

  Deployment bad = Deploy("T-6", "TKT-BAD", "mallory");
  AdminSession bad_session(machine_, bad.session, bad.certificate, &cluster_.ca());
  ASSERT_TRUE(bad_session.Login().ok());
  witos::Kernel& kernel = machine_->kernel();
  witos::Pid shell = bad_session.shell();
  // Probe the sandbox: chroot escape, /dev/mem, classified file.
  (void)kernel.MkDir(shell, "/tmp/jailbreak");
  (void)kernel.Chroot(shell, "/tmp/jailbreak");
  (void)kernel.Open(shell, "/dev/mem", witos::kOpenRead);
  (void)bad_session.ReadFile("/home/user/documents/payroll.xlsx");
  (void)bad_session.ReadFile("/home/user/documents/patients.pdf");

  ForensicReporter reporter(machine_);
  auto bad_forensics = reporter.Collect(bad.session);
  ASSERT_TRUE(bad_forensics.ok());
  EXPECT_GE(bad_forensics->capability_denials, 2u);
  EXPECT_GE(bad_forensics->fs_denied, 2u);
  EXPECT_GT(bad_forensics->severity, 30);
  EXPECT_FALSE(bad_forensics->denied_paths.empty());

  auto queue = reporter.TriageQueue();
  ASSERT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue[0].ticket_id, "TKT-BAD");
  EXPECT_EQ(queue[1].ticket_id, "TKT-GOOD");
  EXPECT_GT(queue[0].severity, queue[1].severity);
}

TEST_F(ReportTest, BrokerActivityAppearsInReport) {
  Deployment deployment = Deploy("T-5", "TKT-PB", "alice");
  AdminSession session(machine_, deployment.session, deployment.certificate, &cluster_.ca());
  ASSERT_TRUE(session.Login().ok());
  ASSERT_TRUE(session.Pb(witbroker::kVerbPs, {}).ok());
  ASSERT_FALSE(session.Pb(witbroker::kVerbDriverUpdate, {"rootkit"}).ok());  // denied

  ForensicReporter reporter(machine_);
  auto forensics = reporter.Collect(deployment.session);
  ASSERT_TRUE(forensics.ok());
  EXPECT_EQ(forensics->broker_requests, 2u);
  EXPECT_EQ(forensics->broker_denied, 1u);
  std::string rendered = ForensicReporter::Render(*forensics);
  EXPECT_NE(rendered.find("DENY driver_update rootkit"), std::string::npos);
}

// A session's denied-path lines are the chain's denial records under its
// host worker: one per denial, on its view and on a directory shared into
// the running container alike, and none of another session's.
TEST_F(ReportTest, DeniedPathsCoverEveryMountOfTheSession) {
  machine_->kernel().root_fs().ProvisionFile("/var/data/report.pdf", "%PDF-1.4 quarterly");
  Deployment shared = Deploy("T-1", "TKT-SHARED", "alice");
  ASSERT_TRUE(
      machine_->containit().ShareDirectory(shared.session, "/var/data", "/var/data").ok());
  AdminSession session(machine_, shared.session, shared.certificate, &cluster_.ca());
  ASSERT_TRUE(session.Login().ok());
  EXPECT_EQ(session.ReadFile("/var/data/report.pdf").error(), witos::Err::kAcces);
  EXPECT_EQ(session.ReadFile("/home/user/documents/payroll.xlsx").error(), witos::Err::kAcces);

  Deployment other = Deploy("T-6", "TKT-OTHER", "mallory");
  AdminSession other_session(machine_, other.session, other.certificate, &cluster_.ca());
  ASSERT_TRUE(other_session.Login().ok());
  EXPECT_EQ(other_session.ReadFile("/home/user/documents/patients.pdf").error(),
            witos::Err::kAcces);

  ForensicReporter reporter(machine_);
  auto live = reporter.Collect(shared.session);
  ASSERT_TRUE(live.ok());
  EXPECT_EQ(live->fs_denied, 2u);
  const std::vector<std::string> expected = {
      "open /var/data/report.pdf [deny-documents]",
      "open /home/user/documents/payroll.xlsx [deny-documents]"};
  EXPECT_EQ(live->denied_paths, expected);
  auto other_live = reporter.Collect(other.session);
  ASSERT_TRUE(other_live.ok());
  EXPECT_EQ(other_live->denied_paths,
            std::vector<std::string>{"open /home/user/documents/patients.pdf [deny-documents]"});

  ASSERT_TRUE(manager_->Expire(&shared).ok());
  auto retired = reporter.Collect(shared.session);
  ASSERT_TRUE(retired.ok());
  EXPECT_EQ(retired->fs_denied, 2u);
  EXPECT_EQ(retired->denied_paths, expected);
}

// Everything a report says about a session, except whether it is live.
void ExpectSameEvidence(const SessionForensics& a, const SessionForensics& b) {
  EXPECT_EQ(a.ticket_id, b.ticket_id);
  EXPECT_EQ(a.admin, b.admin);
  EXPECT_EQ(a.container_class, b.container_class);
  EXPECT_EQ(a.fs_ops, b.fs_ops);
  EXPECT_EQ(a.fs_denied, b.fs_denied);
  EXPECT_EQ(a.denied_paths, b.denied_paths);
  EXPECT_EQ(a.connections, b.connections);
  EXPECT_EQ(a.network_blocked, b.network_blocked);
  EXPECT_EQ(a.packets_blocked, b.packets_blocked);
  EXPECT_EQ(a.network_lines, b.network_lines);
  EXPECT_EQ(a.broker_requests, b.broker_requests);
  EXPECT_EQ(a.broker_denied, b.broker_denied);
  EXPECT_EQ(a.broker_lines, b.broker_lines);
  EXPECT_EQ(a.flagged_anomalies, b.flagged_anomalies);
  EXPECT_EQ(a.capability_denials, b.capability_denials);
  EXPECT_EQ(a.xcl_denials, b.xcl_denials);
  EXPECT_EQ(a.tcb_violations, b.tcb_violations);
  EXPECT_EQ(a.severity, b.severity);
}

// A probing session: denied documents, /dev/mem, a chroot attempt, broker
// requests both granted and denied, and a connect outside its view.
void Probe(Machine* machine, AdminSession* session) {
  witos::Kernel& kernel = machine->kernel();
  (void)kernel.MkDir(session->shell(), "/tmp/jailbreak");
  (void)kernel.Chroot(session->shell(), "/tmp/jailbreak");
  (void)kernel.Open(session->shell(), "/dev/mem", witos::kOpenRead);
  (void)session->ReadFile("/home/user/documents/payroll.xlsx");
  (void)session->ReadFile("/home/user/.bashrc");
  (void)session->Pb(witbroker::kVerbInstall, {"netcat"});
  (void)session->Pb(witbroker::kVerbDriverUpdate, {"rootkit"});
  (void)session->Connect("evil-host", 0);
}

// Sends 2,048 random bytes to the software repository from the session's
// shell: in view for T-6, and dropped by the IDS as encrypted.
witos::Result<std::string> SendEncrypted(Machine* machine, const AdminSession& session) {
  std::string encrypted;
  std::mt19937 rng(7);
  for (int i = 0; i < 2048; ++i) {
    encrypted += static_cast<char>(rng() & 0xff);
  }
  const witos::Process* shell = machine->kernel().FindProcess(session.shell());
  return machine->net().Request(shell->ns.Get(witos::NsType::kNet),
                                witload::kSoftwareRepo.addr, witload::kSoftwareRepo.port,
                                encrypted, session.shell(), witos::kRootUid);
}

TEST_F(ReportTest, RetiredSessionKeepsItsEvidence) {
  Deployment deployment = Deploy("T-6", "TKT-GONE", "mallory");
  AdminSession session(machine_, deployment.session, deployment.certificate, &cluster_.ca());
  ASSERT_TRUE(session.Login().ok());
  Probe(machine_, &session);

  ForensicReporter reporter(machine_);
  auto live = reporter.Collect(deployment.session);
  ASSERT_TRUE(live.ok());
  EXPECT_TRUE(live->still_active);
  EXPECT_GT(live->fs_denied, 0u);
  EXPECT_FALSE(live->denied_paths.empty());
  EXPECT_GT(live->capability_denials, 0u);
  EXPECT_EQ(live->broker_requests, 2u);
  EXPECT_EQ(live->broker_denied, 1u);
  EXPECT_EQ(live->broker_lines.size(), 2u);

  ASSERT_TRUE(manager_->Expire(&deployment).ok());
  EXPECT_EQ(machine_->containit().FindSession(deployment.session), nullptr);
  auto retired = reporter.Collect(deployment.session);
  ASSERT_TRUE(retired.ok());
  EXPECT_FALSE(retired->still_active);
  EXPECT_EQ(retired->termination_reason, "ticket expired");
  ExpectSameEvidence(*retired, *live);
}

// A chain that fails verification is reported as such: no denied paths,
// network lines or counts, broker lines or counts, anomalies or probe
// counts are read from it. The ITFS totals in the session's own record
// still stand.
TEST_F(ReportTest, TamperedChainWithholdsEvidence) {
  Deployment deployment = Deploy("T-6", "TKT-TAMPER", "mallory");
  AdminSession session(machine_, deployment.session, deployment.certificate, &cluster_.ca());
  ASSERT_TRUE(session.Login().ok());
  Probe(machine_, &session);
  EXPECT_EQ(SendEncrypted(machine_, session).error(), witos::Err::kTimedOut);
  ForensicReporter reporter(machine_);
  auto honest = reporter.Collect(deployment.session);
  ASSERT_TRUE(honest.ok());
  ASSERT_FALSE(honest->broker_lines.empty());
  ASSERT_EQ(honest->broker_requests, 2u);
  ASSERT_EQ(honest->broker_denied, 1u);
  ASSERT_FALSE(honest->denied_paths.empty());
  ASSERT_GT(honest->capability_denials, 0u);
  ASSERT_EQ(honest->packets_blocked, 1u);
  ASSERT_NE(ForensicReporter::Render(*honest).find("sniffer blocked 2048B"), std::string::npos);

  machine_->broker().log().TamperForTest(0, "GRANT mallory nothing-to-see");
  auto tampered = reporter.Collect(deployment.session);
  ASSERT_TRUE(tampered.ok());
  const std::string rendered = ForensicReporter::Render(*tampered);
  EXPECT_NE(rendered.find("FAILED verification"), std::string::npos);
  EXPECT_TRUE(tampered->denied_paths.empty());
  EXPECT_EQ(rendered.find("denied: "), std::string::npos);
  EXPECT_TRUE(tampered->broker_lines.empty());
  EXPECT_TRUE(tampered->flagged_anomalies.empty());
  EXPECT_EQ(tampered->capability_denials, 0u);
  EXPECT_EQ(tampered->xcl_denials, 0u);
  EXPECT_EQ(tampered->tcb_violations, 0u);
  EXPECT_EQ(rendered.find("DENY driver_update"), std::string::npos);
  EXPECT_TRUE(tampered->network_lines.empty());
  EXPECT_EQ(tampered->connections, 0u);
  EXPECT_EQ(tampered->network_blocked, 0u);
  EXPECT_EQ(tampered->packets_blocked, 0u);
  EXPECT_EQ(rendered.find("sniffer blocked"), std::string::npos);
  EXPECT_EQ(rendered.find("BLOCK"), std::string::npos);
  EXPECT_NE(rendered.find("network lines and counts"), std::string::npos);
  EXPECT_EQ(tampered->broker_requests, 0u);
  EXPECT_EQ(tampered->broker_denied, 0u);
  EXPECT_NE(rendered.find("broker lines and counts"), std::string::npos);
  EXPECT_NE(rendered.find("broker: 0 requests, 0 denied"), std::string::npos);
  EXPECT_EQ(tampered->fs_denied, honest->fs_denied);
  std::vector<SessionForensics> queue = reporter.TriageQueue();
  ASSERT_EQ(queue.size(), 1u);
  EXPECT_TRUE(queue[0].broker_lines.empty());
}

// The forensic reader against a serving machine: the only state the two
// threads share is the evidence log. One thread sends broker batches and
// makes host-side kernel denials; the other runs the triage queue and
// verifies the chain. Run under TSan (report_test is in the TSan CI job).
TEST_F(ReportTest, TriageRacesNothingWhileTheMachineServes) {
  for (int i = 0; i < 3; ++i) {
    Deployment deployment = Deploy("T-6", "TKT-OLD-" + std::to_string(i), "mallory");
    AdminSession session(machine_, deployment.session, deployment.certificate, &cluster_.ca());
    ASSERT_TRUE(session.Login().ok());
    Probe(machine_, &session);
    ASSERT_TRUE(manager_->Expire(&deployment).ok());
  }
  witos::Kernel& kernel = machine_->kernel();
  const witos::Pid intruder = *kernel.Clone(1, "intruder", 0);
  ASSERT_TRUE(kernel.Setuid(intruder, 1000).ok());

  const size_t denied_before = kernel.audit().CountEvent(witos::AuditEvent::kSyscallDenied);
  constexpr int kRounds = 300;
  std::atomic<bool> done{false};
  std::thread serving([&] {
    witbroker::RpcBatchRequest batch;
    batch.ops = {{witbroker::kVerbReboot, {}}, {witbroker::kVerbInstall, {"netcat"}}};
    for (int i = 0; i < kRounds; ++i) {
      // An unbound host process: denied, evidence only.
      (void)machine_->broker().HandleBatch(intruder, batch);
      (void)kernel.Kill(intruder, 1);               // host-side SYSCALL_DENIED
    }
    done.store(true);
  });
  do {
    std::vector<SessionForensics> queue = ForensicReporter(machine_).TriageQueue();
    EXPECT_EQ(queue.size(), 3u);
    EXPECT_TRUE(machine_->broker().log().Verify());
  } while (!done.load());
  serving.join();
  EXPECT_EQ(kernel.audit().CountEvent(witos::AuditEvent::kSyscallDenied) - denied_before,
            static_cast<size_t>(kRounds));
}

TEST_F(ReportTest, TriageQueueEqualsPerSessionCollect) {
  std::vector<Deployment> deployments = {
      Deploy("T-6", "TKT-ROGUE", "mallory"), Deploy("T-1", "TKT-GOOD", "alice"),
      Deploy("T-5", "TKT-OPS", "bob"), Deploy("T-6", "TKT-NOSY", "eve")};
  for (Deployment& deployment : deployments) {
    AdminSession session(machine_, deployment.session, deployment.certificate,
                         &cluster_.ca());
    ASSERT_TRUE(session.Login().ok());
    if (deployment.certificate.admin != "alice") {
      Probe(machine_, &session);
    }
    (void)session.ReadFile("/home/user/.matlab/license.lic");
  }
  // Two retired and two live sessions.
  ASSERT_TRUE(manager_->Expire(&deployments[0]).ok());
  ASSERT_TRUE(manager_->Expire(&deployments[2]).ok());

  ForensicReporter reporter(machine_);
  std::vector<SessionForensics> expected;
  for (const Deployment& deployment : deployments) {  // deploy order
    auto forensics = reporter.Collect(deployment.session);
    ASSERT_TRUE(forensics.ok());
    expected.push_back(std::move(*forensics));
  }
  std::sort(expected.begin(), expected.end(),
            [](const SessionForensics& a, const SessionForensics& b) {
              return a.severity > b.severity;
            });
  std::vector<SessionForensics> queue = reporter.TriageQueue();
  ASSERT_EQ(queue.size(), expected.size());
  for (size_t i = 0; i < queue.size(); ++i) {
    SCOPED_TRACE(expected[i].ticket_id);
    ExpectSameEvidence(queue[i], expected[i]);
    EXPECT_EQ(queue[i].still_active, expected[i].still_active);
    EXPECT_EQ(queue[i].termination_reason, expected[i].termination_reason);
  }
}

// T-4 taps the host's shared network namespace, whose sniffer outlives
// every session on it: a session's network lines are the records under its
// own processes, so one admin's drops neither land in nor bloat the report
// of a later session on the tap.
TEST_F(ReportTest, SharedHostTapReportsOnlyItsOwnTraffic) {
  Deployment first = Deploy("T-4", "TKT-NET-1", "mallory");
  AdminSession mallory(machine_, first.session, first.certificate, &cluster_.ca());
  ASSERT_TRUE(mallory.Login().ok());
  EXPECT_FALSE(mallory.Connect("evil-host", 0).ok());
  ASSERT_TRUE(manager_->Expire(&first).ok());
  Deployment second = Deploy("T-4", "TKT-NET-2", "alice");

  ForensicReporter reporter(machine_);
  auto first_report = reporter.Collect(first.session);
  auto second_report = reporter.Collect(second.session);
  ASSERT_TRUE(first_report.ok());
  ASSERT_TRUE(second_report.ok());
  EXPECT_EQ(first_report->connections, 1u);
  EXPECT_EQ(first_report->packets_blocked, 1u);
  EXPECT_EQ(first_report->network_lines,
            std::vector<std::string>{"sniffer blocked 5B to 203.0.113.66 [restrict-destinations]"});
  EXPECT_EQ(second_report->connections, 0u);
  EXPECT_EQ(second_report->network_blocked, 0u);
  EXPECT_EQ(second_report->packets_blocked, 0u);
  EXPECT_TRUE(second_report->network_lines.empty());
}

// Two live T-4 sessions share the host's tap: mallory's drop shows in mallory's
// report alone, and alice, who sent nothing, reports no network line and
// scores 0.
TEST_F(ReportTest, ConcurrentHostTapSessionsReportOnlyTheirOwnTraffic) {
  Deployment alice_deployment = Deploy("T-4", "TKT-NET-A", "alice");
  AdminSession alice(machine_, alice_deployment.session, alice_deployment.certificate,
                     &cluster_.ca());
  ASSERT_TRUE(alice.Login().ok());
  Deployment mallory_deployment = Deploy("T-4", "TKT-NET-M", "mallory");
  AdminSession mallory(machine_, mallory_deployment.session, mallory_deployment.certificate,
                       &cluster_.ca());
  ASSERT_TRUE(mallory.Login().ok());
  EXPECT_FALSE(mallory.Connect("evil-host", 0).ok());

  ForensicReporter reporter(machine_);
  auto mallory_report = reporter.Collect(mallory_deployment.session);
  auto alice_report = reporter.Collect(alice_deployment.session);
  ASSERT_TRUE(mallory_report.ok());
  ASSERT_TRUE(alice_report.ok());
  EXPECT_EQ(mallory_report->packets_blocked, 1u);
  EXPECT_EQ(mallory_report->network_lines,
            std::vector<std::string>{"sniffer blocked 5B to 203.0.113.66 [restrict-destinations]"});
  EXPECT_EQ(mallory_report->severity, 10);
  EXPECT_TRUE(alice_report->network_lines.empty());
  EXPECT_EQ(alice_report->network_blocked, 0u);
  EXPECT_EQ(alice_report->packets_blocked, 0u);
  EXPECT_EQ(alice_report->severity, 0);
  EXPECT_EQ(ForensicReporter::Render(*alice_report).find("sniffer"), std::string::npos);
}

// An isolated session's connect outside its view fails at the route: the
// report shows the attempt, and it does not raise severity (a legitimate
// ticket makes the same attempt before it asks the broker).
TEST_F(ReportTest, RouteMissIsReportedButNotScored) {
  Deployment deployment = Deploy("T-1", "TKT-ROUTE", "bob");
  AdminSession session(machine_, deployment.session, deployment.certificate, &cluster_.ca());
  ASSERT_TRUE(session.Login().ok());
  ASSERT_TRUE(session.Connect("license-server", 0).ok());
  EXPECT_FALSE(session.Connect("evil-host", 0).ok());

  ForensicReporter reporter(machine_);
  auto forensics = reporter.Collect(deployment.session);
  ASSERT_TRUE(forensics.ok());
  EXPECT_EQ(forensics->connections, 1u);
  EXPECT_EQ(forensics->network_blocked, 1u);
  EXPECT_EQ(forensics->packets_blocked, 0u);
  EXPECT_EQ(forensics->network_lines,
            std::vector<std::string>{"no route to 203.0.113.66:443"});
  EXPECT_EQ(forensics->severity, 0);
  EXPECT_NE(ForensicReporter::Render(*forensics)
                .find("network: 1 connections, 1 blocked (0 by the IDS)\n"
                      "  no route to 203.0.113.66:443\n"),
            std::string::npos);
}

TEST_F(ReportTest, UnknownSessionIsSrch) {
  ForensicReporter reporter(machine_);
  EXPECT_EQ(reporter.Collect(999).error(), witos::Err::kSrch);
}

}  // namespace
}  // namespace watchit
