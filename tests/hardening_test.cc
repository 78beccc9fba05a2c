// Tests for the hardening extensions: broker rate limiting, rootless
// containers, and the machine's one chained evidence stream.

#include <gtest/gtest.h>

#include "src/core/cluster.h"
#include "src/core/session.h"
#include "src/core/ticket_class.h"

namespace watchit {
namespace {

class HardeningTest : public ::testing::Test {
 protected:
  HardeningTest() : machine_(&cluster_.AddMachine("userpc", witnet::Ipv4Addr(10, 0, 1, 50))) {}

  Deployment Deploy(const std::string& cls, const std::string& id) {
    ClusterManager manager(&cluster_);
    Ticket ticket;
    ticket.id = id;
    ticket.target_machine = "userpc";
    ticket.assigned_class = cls;
    ticket.admin = "mallory";
    return *manager.Deploy(ticket);
  }

  Cluster cluster_;
  Machine* machine_;
};

TEST_F(HardeningTest, BrokerRateLimitThrottlesBursts) {
  witbroker::ClassPolicy throttled;
  throttled.allowed_verbs = {witbroker::kVerbPs};
  throttled.max_requests_per_window = 5;
  machine_->policy().SetPolicy("T-5", throttled);

  Deployment deployment = Deploy("T-5", "TKT-RL");
  AdminSession session(machine_, deployment.session, deployment.certificate, &cluster_.ca());
  ASSERT_TRUE(session.Login().ok());
  size_t granted = 0;
  for (int i = 0; i < 20; ++i) {
    granted += session.Pb(witbroker::kVerbPs, {}).ok() ? 1u : 0u;
  }
  EXPECT_EQ(granted, 5u);  // the burst was throttled
  // The denials are on the record for the anomaly pipeline.
  size_t denied = 0;
  for (const auto& event : witbroker::BrokerEventsOf(machine_->kernel().audit().Snapshot())) {
    denied += event.granted ? 0 : 1;
  }
  EXPECT_EQ(denied, 15u);
  // A new window refills the budget.
  machine_->kernel().clock().Advance(61ull * 1000000000ull);
  EXPECT_TRUE(session.Pb(witbroker::kVerbPs, {}).ok());
}

TEST_F(HardeningTest, RootlessContainerLosesPrivilegedReach) {
  witcontain::PerforatedContainerSpec spec = SpecForTicketClass(1);
  spec.map_root_to_host_root = false;
  cluster_.images().Register("T-1R", spec);
  machine_->kernel().root_fs().ProvisionFile("/home/user/private.txt", "user-owned", 1000,
                                             1000, 0600);

  Deployment deployment = Deploy("T-1R", "TKT-ROOTLESS");
  AdminSession session(machine_, deployment.session, deployment.certificate, &cluster_.ca());
  ASSERT_TRUE(session.Login().ok());
  // World-readable files in view still work...
  EXPECT_TRUE(session.ReadFile("/home/user/.matlab/license.lic").ok());
  // ...but the contained "root" has no power over other users' private
  // files: the ITFS invoker is an unprivileged host uid.
  EXPECT_EQ(session.ReadFile("/home/user/private.txt").error(), witos::Err::kAcces);
  EXPECT_FALSE(session.WriteFile("/home/user/private.txt", "x").ok());
}

TEST_F(HardeningTest, RootfulContainerKeepsPrivilegedReach) {
  machine_->kernel().root_fs().ProvisionFile("/home/user/private.txt", "user-owned", 1000,
                                             1000, 0600);
  Deployment deployment = Deploy("T-1", "TKT-ROOTFUL");
  AdminSession session(machine_, deployment.session, deployment.certificate, &cluster_.ca());
  ASSERT_TRUE(session.Login().ok());
  EXPECT_TRUE(session.ReadFile("/home/user/private.txt").ok());
}

// One evidence stream per machine: a granted broker request is one chained
// record and nothing else holds a copy of it; a denied document read is
// chained too, not left in an unchained side log.
TEST_F(HardeningTest, EveryEvidenceRecordIsChainedOnce) {
  Deployment deployment = Deploy("T-5", "TKT-ONE");
  AdminSession session(machine_, deployment.session, deployment.certificate, &cluster_.ca());
  ASSERT_TRUE(session.Login().ok());

  const size_t chain_before = machine_->broker().log().size();
  const size_t audit_before = machine_->kernel().audit().size();
  ASSERT_TRUE(session.Pb(witbroker::kVerbPs, {}).ok());
  EXPECT_EQ(machine_->broker().log().size() - chain_before, 1u);
  EXPECT_EQ(machine_->kernel().audit().size() - audit_before, 1u);
  EXPECT_EQ(machine_->kernel().audit().Snapshot().back().event,
            witos::AuditEvent::kBrokerRequest);
  // No spool copy on the box.
  EXPECT_FALSE(machine_->kernel().root_fs().SlurpForTest("/var/log/watchit/audit.log").ok());

  const size_t chain_before_read = machine_->broker().log().size();
  EXPECT_FALSE(session.ReadFile("/home/user/documents/payroll.xlsx").ok());
  EXPECT_EQ(machine_->broker().log().size() - chain_before_read, 1u);
  const witos::AuditRecord denial = machine_->kernel().audit().Snapshot().back();
  EXPECT_EQ(denial.event, witos::AuditEvent::kFileDenied);
  EXPECT_EQ(denial.detail, "open /home/user/documents/payroll.xlsx [deny-documents]");
  // Attributed to the session: its host-side worker mounted the ITFS.
  EXPECT_EQ(denial.pid, machine_->containit().FindSession(deployment.session)->host_worker);

  // A blocked connect is one record, under the shell that made it.
  const size_t chain_before_connect = machine_->broker().log().size();
  EXPECT_FALSE(session.Connect("evil-host", 0).ok());
  EXPECT_EQ(machine_->broker().log().size() - chain_before_connect, 1u);
  const witos::AuditRecord blocked = machine_->kernel().audit().Snapshot().back();
  EXPECT_EQ(blocked.event, witos::AuditEvent::kNetworkBlocked);
  EXPECT_EQ(blocked.detail, "no route to 203.0.113.66:443");
  EXPECT_EQ(blocked.pid, session.shell());
  EXPECT_TRUE(machine_->broker().log().Verify());
  // The log directory still cannot be written through the kernel, by
  // anyone, and guarding it does not break the boot measurement.
  EXPECT_EQ(machine_->kernel().WriteFile(1, "/var/log/watchit/audit.log", "").error(),
            witos::Err::kPerm);
  EXPECT_TRUE(machine_->tcb_intact());
}

}  // namespace
}  // namespace watchit
