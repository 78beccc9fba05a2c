// Dispatcher and end-to-end workflow tests, including the Attack-10
// single-class hardening and T-9's dual-machine deployment.

#include "src/core/workflow.h"

#include <gtest/gtest.h>

namespace watchit {
namespace {

TEST(DispatcherTest, AssignsByExpertiseLeastLoaded) {
  Dispatcher dispatcher;
  dispatcher.AddSpecialist("alice", {"T-1", "T-6"});
  dispatcher.AddSpecialist("bob", {"T-6"});
  // First T-6 goes to whoever is least loaded (alice, index order).
  EXPECT_EQ(*dispatcher.Assign("T-6"), "alice");
  // Second T-6 goes to bob (alice now has an open ticket).
  EXPECT_EQ(*dispatcher.Assign("T-6"), "bob");
  // T-1 only alice can do, despite her load.
  EXPECT_EQ(*dispatcher.Assign("T-1"), "alice");
  // Nobody handles T-9.
  EXPECT_EQ(dispatcher.Assign("T-9").error(), witos::Err::kSrch);
  EXPECT_TRUE(dispatcher.Complete("alice").ok());
  EXPECT_EQ(dispatcher.Find("alice")->open_tickets, 1u);
  EXPECT_EQ(dispatcher.Find("alice")->total_assigned, 2u);
}

TEST(DispatcherTest, CompleteErrorsAreLoud) {
  Dispatcher dispatcher;
  dispatcher.AddSpecialist("alice", {"T-1"});
  // Completing for an admin who is not on the roster is an accounting bug.
  EXPECT_EQ(dispatcher.Complete("ghost").error(), witos::Err::kSrch);
  // ... as is completing more tickets than were assigned.
  EXPECT_EQ(dispatcher.Complete("alice").error(), witos::Err::kInval);
  ASSERT_TRUE(dispatcher.Assign("T-1").ok());
  EXPECT_TRUE(dispatcher.Complete("alice").ok());
  EXPECT_EQ(dispatcher.Complete("alice").error(), witos::Err::kInval);
}

TEST(DispatcherTest, RotationSharesLoadTiesFairly) {
  Dispatcher dispatcher;
  dispatcher.AddSpecialist("alice", {"T-1"});
  dispatcher.AddSpecialist("bob", {"T-1"});
  dispatcher.AddSpecialist("carol", {"T-1"});
  // Assign-then-complete keeps everyone tied at zero load; without the
  // rotating tie-break, alice would absorb all 300 tickets.
  for (int i = 0; i < 300; ++i) {
    auto admin = dispatcher.Assign("T-1");
    ASSERT_TRUE(admin.ok());
    ASSERT_TRUE(dispatcher.Complete(*admin).ok());
  }
  EXPECT_EQ(dispatcher.Find("alice")->total_assigned, 100u);
  EXPECT_EQ(dispatcher.Find("bob")->total_assigned, 100u);
  EXPECT_EQ(dispatcher.Find("carol")->total_assigned, 100u);
}

TEST(DispatcherTest, SingleClassHardeningPinsAdmins) {
  Dispatcher::Options options;
  options.single_class_per_admin = true;
  Dispatcher dispatcher(options);
  dispatcher.AddSpecialist("mallory", {"T-1", "T-6", "T-8"});
  dispatcher.AddSpecialist("carol", {"T-1", "T-6"});
  EXPECT_EQ(*dispatcher.Assign("T-1"), "mallory");
  // Mallory is now pinned to T-1: the T-6 ticket must go to carol even
  // though mallory is qualified — no view stringing across classes.
  EXPECT_EQ(*dispatcher.Assign("T-6"), "carol");
  // And T-8 has no unpinned qualified admin left.
  EXPECT_EQ(dispatcher.Assign("T-8").error(), witos::Err::kSrch);
  // Mallory keeps getting T-1.
  EXPECT_EQ(*dispatcher.Assign("T-1"), "mallory");
  EXPECT_EQ(dispatcher.pinned_classes().at("mallory"), "T-1");
}

class WorkflowTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cluster_.AddMachine("userpc", witnet::Ipv4Addr(10, 0, 1, 50));
    cluster_.AddMachine("adminpc", witnet::Ipv4Addr(10, 0, 1, 51));
    dispatcher_.AddSpecialist("alice", {"T-1", "T-2", "T-3", "T-4", "T-5", "T-6", "T-7",
                                        "T-8", "T-9", "T-10", "T-11"});
    // A tiny trained framework.
    witload::TicketGenerator::Options options;
    options.seed = 5;
    witload::TicketGenerator gen(options);
    auto history = gen.GenerateBatch(400, witload::TicketGenerator::HistoricalDistribution());
    std::vector<std::pair<std::string, std::string>> labelled;
    for (const auto& t : history) {
      labelled.emplace_back(t.text, t.true_class);
    }
    ItFramework::Config config;
    config.lda.iterations = 80;
    framework_ = std::make_unique<ItFramework>(config);
    framework_->TrainOnHistory(labelled);
    workflow_ = std::make_unique<TicketWorkflow>(&cluster_, framework_.get(), &dispatcher_);
  }

  witload::GeneratedTicket Make(int cls) {
    witload::TicketGenerator::Options options;
    options.seed = 77;
    options.with_ops = true;
    witload::TicketGenerator gen(options);
    return gen.Generate(cls);
  }

  Cluster cluster_;
  Dispatcher dispatcher_;
  std::unique_ptr<ItFramework> framework_;
  std::unique_ptr<TicketWorkflow> workflow_;
};

TEST_F(WorkflowTest, ProcessesTicketEndToEnd) {
  auto resolved = workflow_->Process(Make(1), "userpc");
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(resolved->ticket.admin, "alice");
  EXPECT_EQ(resolved->deployments.size(), 1u);
  EXPECT_FALSE(resolved->replays.empty());
  // Sessions cleaned up, dispatcher load back to zero.
  EXPECT_EQ(cluster_.FindMachine("userpc")->containit().active_sessions(), 0u);
  EXPECT_EQ(dispatcher_.Find("alice")->open_tickets, 0u);
}

TEST_F(WorkflowTest, T9DeploysOnBothMachines) {
  auto resolved = workflow_->Process(Make(9), "userpc", "adminpc");
  ASSERT_TRUE(resolved.ok());
  ASSERT_EQ(resolved->deployments.size(), 2u);
  EXPECT_EQ(resolved->deployments[0].machine->name(), "userpc");
  EXPECT_EQ(resolved->deployments[1].machine->name(), "adminpc");
  // Both expired after processing.
  EXPECT_EQ(cluster_.FindMachine("userpc")->containit().active_sessions(), 0u);
  EXPECT_EQ(cluster_.FindMachine("adminpc")->containit().active_sessions(), 0u);
}

TEST_F(WorkflowTest, NonT9DeploysOnce) {
  auto resolved = workflow_->Process(Make(2), "userpc", "adminpc");
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(resolved->deployments.size(), 1u);
}

TEST_F(WorkflowTest, UnknownMachineFails) {
  EXPECT_FALSE(workflow_->Process(Make(1), "ghost").ok());
}

TEST_F(WorkflowTest, ReviewOverridesThePrediction) {
  // The supervisor reviews the one prediction Prepare made: a ticket whose
  // reviewed class differs deploys under the reviewed class, and the
  // prediction is still reported as it was.
  witload::GeneratedTicket generated = Make(1);
  generated.true_class = "T-7";
  const std::string predicted = framework_->Classify(generated.text);
  ASSERT_NE(predicted, "T-7");
  auto prepared = workflow_->Prepare(generated, "userpc");
  ASSERT_TRUE(prepared.ok());
  EXPECT_EQ(prepared->resolved.predicted_class, predicted);
  EXPECT_FALSE(prepared->resolved.classified_correctly);
  EXPECT_EQ(prepared->resolved.ticket.assigned_class, "T-7");
  ASSERT_TRUE(dispatcher_.Complete(prepared->resolved.ticket.admin).ok());

  // Without a review the prediction stands.
  generated.true_class.clear();
  prepared = workflow_->Prepare(generated, "userpc");
  ASSERT_TRUE(prepared.ok());
  EXPECT_EQ(prepared->resolved.ticket.assigned_class, predicted);
  ASSERT_TRUE(dispatcher_.Complete(prepared->resolved.ticket.admin).ok());
}

TEST_F(WorkflowTest, PrepareClassifiesEachTicketOnce) {
  witobs::MetricsRegistry registry;
  framework_->EnableMetrics(&registry);
  workflow_->EnableMetrics(&registry);
  constexpr uint64_t kTickets = 11;
  for (int cls = 1; cls <= static_cast<int>(kTickets); ++cls) {
    auto prepared = workflow_->Prepare(Make(cls), "userpc");
    ASSERT_TRUE(prepared.ok());
    ASSERT_TRUE(dispatcher_.Complete(prepared->resolved.ticket.admin).ok());
  }
  uint64_t classified = 0;
  for (const auto& family : registry.Snapshot()) {
    if (family.name == "watchit_framework_classifications_total") {
      for (const auto& series : family.series) {
        classified += series.counter->Value();
      }
    }
  }
  EXPECT_EQ(classified, kTickets);
  EXPECT_EQ(registry.FindHistogram("watchit_framework_classify_latency_ns")->Count(), kTickets);
  EXPECT_EQ(registry.FindHistogram("watchit_workflow_stage_latency_ns", {{"stage", "classify"}})
                ->Count(),
            kTickets);
  EXPECT_EQ(registry.CounterValue("watchit_workflow_tickets_total", {{"classified", "correct"}}) +
                registry.CounterValue("watchit_workflow_tickets_total",
                                      {{"classified", "reviewed"}}),
            kTickets);
}

TEST_F(WorkflowTest, UnqualifiedRosterFails) {
  Dispatcher empty;
  TicketWorkflow workflow(&cluster_, framework_.get(), &empty);
  EXPECT_EQ(workflow.Process(Make(1), "userpc").error(), witos::Err::kSrch);
}

}  // namespace
}  // namespace watchit
