// Policy loading from TCB-protected configuration files.

#include "src/core/policy_loader.h"

#include <gtest/gtest.h>

#include "src/core/cluster.h"
#include "src/core/report.h"
#include "src/core/session.h"
#include "src/core/ticket_class.h"
#include "src/workload/topology.h"

namespace watchit {
namespace {

class PolicyLoaderTest : public ::testing::Test {
 protected:
  PolicyLoaderTest() : machine_(&cluster_.AddMachine("userpc", witnet::Ipv4Addr(10, 0, 1, 50))) {}
  Cluster cluster_;
  Machine* machine_;
};

TEST_F(PolicyLoaderTest, MissingFilesLoadNothing) {
  PolicyLoadReport report = LoadMachinePolicies(machine_, &cluster_.images());
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.itfs_rules_loaded, 0u);
  EXPECT_EQ(report.images_updated, 0u);
}

TEST_F(PolicyLoaderTest, LoadsAndAppliesToAllImages) {
  InstallPolicyFiles(machine_,
                     "deny ext:pem,key name=no-private-keys\n",
                     "alert content:\"CONFIDENTIAL\" name=keyword\n");
  EXPECT_TRUE(machine_->tcb_intact());
  PolicyLoadReport report = LoadMachinePolicies(machine_, &cluster_.images());
  ASSERT_TRUE(report.ok()) << report.error;
  EXPECT_EQ(report.itfs_rules_loaded, 1u);
  EXPECT_EQ(report.ids_rules_loaded, 1u);
  EXPECT_EQ(report.images_updated, cluster_.images().size());

  // The loaded rule bites in a real deployment.
  machine_->kernel().root_fs().ProvisionFile("/home/user/id_rsa.key", "PRIVATE KEY", 1000,
                                             1000);
  ClusterManager manager(&cluster_);
  Ticket ticket;
  ticket.id = "TKT-PL";
  ticket.target_machine = "userpc";
  ticket.assigned_class = "T-1";  // /home/user is in view
  ticket.admin = "alice";
  auto deployment = manager.Deploy(ticket);
  ASSERT_TRUE(deployment.ok());
  AdminSession session(machine_, deployment->session, deployment->certificate,
                       &cluster_.ca());
  ASSERT_TRUE(session.Login().ok());
  EXPECT_EQ(session.ReadFile("/home/user/id_rsa.key").error(), witos::Err::kAcces);
  EXPECT_TRUE(session.ReadFile("/home/user/.matlab/license.lic").ok());
}

TEST_F(PolicyLoaderTest, ConstraintLoadedAfterDeploysBindsTheNextDeploy) {
  machine_->kernel().root_fs().ProvisionFile("/home/user/id_rsa.key", "PRIVATE KEY", 1000,
                                             1000);
  ClusterManager manager(&cluster_);
  auto deploy_and_read = [&](const std::string& id) {
    Ticket ticket;
    ticket.id = id;
    ticket.target_machine = "userpc";
    ticket.assigned_class = "T-1";
    ticket.admin = "alice";
    auto deployment = manager.Deploy(ticket);
    EXPECT_TRUE(deployment.ok());
    AdminSession session(machine_, deployment->session, deployment->certificate,
                         &cluster_.ca());
    EXPECT_TRUE(session.Login().ok());
    witos::Err err = session.ReadFile("/home/user/id_rsa.key").error();
    EXPECT_TRUE(manager.Expire(&*deployment).ok());
    return err;
  };
  EXPECT_EQ(deploy_and_read("TKT-BEFORE"), witos::Err::kOk);
  auto before = cluster_.images().Lookup("T-1")->fs.compiled();

  InstallPolicyFiles(machine_, "deny ext:key name=no-private-keys\n", "");
  ASSERT_TRUE(LoadMachinePolicies(machine_, &cluster_.images()).ok());
  // ForEach recompiled the image; the old policy is no longer handed out.
  auto after = cluster_.images().Lookup("T-1")->fs.compiled();
  ASSERT_NE(after, nullptr);
  EXPECT_NE(after, before);
  EXPECT_EQ(deploy_and_read("TKT-AFTER"), witos::Err::kAcces);
}

TEST_F(PolicyLoaderTest, ParseErrorAbortsWithoutMutating) {
  InstallPolicyFiles(machine_, "deny gibberish\n", "");
  auto before = cluster_.images().Lookup("T-1");
  PolicyLoadReport report = LoadMachinePolicies(machine_, &cluster_.images());
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.error.find("itfs.policy"), std::string::npos);
  auto after = cluster_.images().Lookup("T-1");
  EXPECT_EQ(before->fs.policy.rule_count(), after->fs.policy.rule_count());
}

TEST_F(PolicyLoaderTest, PolicyFilesAreTcbProtected) {
  InstallPolicyFiles(machine_, "deny ext:pem\n", "");
  // A rogue root process cannot weaken the policy file.
  EXPECT_EQ(machine_->kernel()
                .WriteFile(1, "/etc/watchit/itfs.policy", "log-all off\n")
                .error(),
            witos::Err::kPerm);
  EXPECT_TRUE(machine_->tcb_intact());
}

TEST_F(PolicyLoaderTest, LoadedIdsRulesReachDeployedSniffers) {
  InstallPolicyFiles(machine_, "", "block content:\"EXFIL-MARKER\" name=marker\n");
  ASSERT_TRUE(LoadMachinePolicies(machine_, &cluster_.images()).ok());
  ClusterManager manager(&cluster_);
  Ticket ticket;
  ticket.id = "TKT-IDS";
  ticket.target_machine = "userpc";
  ticket.assigned_class = "T-1";  // has a network view (license server)
  ticket.admin = "alice";
  auto deployment = manager.Deploy(ticket);
  ASSERT_TRUE(deployment.ok());
  const witcontain::Session* info = machine_->containit().FindSession(deployment->session);
  const witos::Process* shell = machine_->kernel().FindProcess(info->shell);
  witos::NsId net_ns = shell->ns.Get(witos::NsType::kNet);
  auto response = machine_->net().Request(net_ns, witload::kLicenseServer.addr,
                                          witload::kLicenseServer.port,
                                          "checkout EXFIL-MARKER data", info->shell, 0);
  EXPECT_EQ(response.error(), witos::Err::kTimedOut);  // dropped by the rule
  const witos::AuditRecord drop = machine_->kernel().audit().Snapshot().back();
  EXPECT_EQ(drop.event, witos::AuditEvent::kNetworkBlocked);
  EXPECT_EQ(drop.pid, info->shell);
  EXPECT_EQ(drop.detail, "sniffer blocked 26B to 10.0.0.10 [marker]");
  auto report = ForensicReporter(machine_).Collect(deployment->session);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->packets_blocked, 1u);
}

}  // namespace
}  // namespace watchit
