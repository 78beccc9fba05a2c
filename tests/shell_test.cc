// AdminShell tests: the Figure 6 terminal experience.

#include "src/core/shell.h"

#include <gtest/gtest.h>

#include "src/core/cluster.h"

namespace watchit {
namespace {

class ShellTest : public ::testing::Test {
 protected:
  void SetUp() override {
    machine_ = &cluster_.AddMachine("userpc", witnet::Ipv4Addr(10, 0, 1, 50));
    manager_ = std::make_unique<ClusterManager>(&cluster_);
    Ticket ticket;
    ticket.id = "TKT-SH";
    ticket.target_machine = "userpc";
    ticket.assigned_class = "T-5";  // process mgmt + whole-root view
    ticket.admin = "alice";
    deployment_ = std::make_unique<Deployment>(*manager_->Deploy(ticket));
    session_ = std::make_unique<AdminSession>(machine_, deployment_->session,
                                              deployment_->certificate, &cluster_.ca());
    ASSERT_TRUE(session_->Login().ok());
    shell_ = std::make_unique<AdminShell>(session_.get());
  }

  Cluster cluster_;
  Machine* machine_ = nullptr;
  std::unique_ptr<ClusterManager> manager_;
  std::unique_ptr<Deployment> deployment_;
  std::unique_ptr<AdminSession> session_;
  std::unique_ptr<AdminShell> shell_;
};

TEST_F(ShellTest, PromptLooksLikeFigure6) {
  EXPECT_EQ(shell_->Prompt(), "root@ITContainer:/# ");
  (void)shell_->Execute("cd /home");
  EXPECT_EQ(shell_->Prompt(), "root@ITContainer:/home# ");
}

TEST_F(ShellTest, PsShowsHostViewForProcessMgmtClass) {
  std::string out = shell_->Execute("ps -a");
  // T-5 shares the host PID namespace: init and the broker are visible.
  EXPECT_NE(out.find("init"), std::string::npos);
  EXPECT_NE(out.find("PermissionBroker"), std::string::npos);
  EXPECT_NE(out.find("bash"), std::string::npos);
}

TEST_F(ShellTest, PbPrefixEscalates) {
  std::string out = shell_->Execute("PB ps -a");
  EXPECT_NE(out.find("PermissionBroker"), std::string::npos);
  EXPECT_EQ(witbroker::BrokerEventsOf(machine_->kernel().audit().Snapshot()).size(), 1u);
}

TEST_F(ShellTest, CatAndEchoAndGrep) {
  EXPECT_NE(shell_->Execute("cat /etc/hosts").find("localhost"), std::string::npos);
  EXPECT_EQ(shell_->Execute("echo tuned > /etc/sysctl.conf"), "");
  EXPECT_EQ(shell_->Execute("cat /etc/sysctl.conf"), "tuned\n");
  EXPECT_EQ(shell_->Execute("echo more >> /etc/sysctl.conf"), "");
  EXPECT_EQ(shell_->Execute("grep tuned /etc/sysctl.conf"), "tuned\n");
  EXPECT_EQ(shell_->Execute("grep absent /etc/sysctl.conf"), "");
  // Plain echo just echoes.
  EXPECT_EQ(shell_->Execute("echo hello world"), "hello world\n");
}

TEST_F(ShellTest, DeniedFilesRenderShellErrors) {
  std::string out = shell_->Execute("cat /home/user/documents/payroll.xlsx");
  EXPECT_NE(out.find("Permission denied"), std::string::npos);
}

TEST_F(ShellTest, LsAndMount) {
  std::string ls = shell_->Execute("ls /etc");
  EXPECT_NE(ls.find("passwd"), std::string::npos);
  std::string mounts = shell_->Execute("mount");
  EXPECT_NE(mounts.find(" on / type fuse.itfs"), std::string::npos);
  EXPECT_NE(mounts.find(" on /proc type proc"), std::string::npos);
}

TEST_F(ShellTest, ServiceRestartAndReboot) {
  EXPECT_NE(shell_->Execute("service cron restart").find("done"), std::string::npos);
  EXPECT_EQ(shell_->Execute("reboot"), "rebooting...\n");  // T-5 keeps CAP_SYS_BOOT
}

TEST_F(ShellTest, KillVisibleProcess) {
  witos::Pid victim = *machine_->kernel().Clone(1, "runaway", 0);
  auto local = machine_->kernel().HostToLocalPid(session_->shell(), victim);
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(shell_->Execute("kill " + std::to_string(*local)), "");
  EXPECT_FALSE(machine_->kernel().ProcessAlive(victim));
  EXPECT_NE(shell_->Execute("kill abc").find("bad pid"), std::string::npos);
}

TEST_F(ShellTest, ConnectRespectsNetworkView) {
  // T-5 has no network view at all.
  std::string out = shell_->Execute("connect license-server");
  EXPECT_NE(out.find("connect:"), std::string::npos);
}

TEST_F(ShellTest, UnknownCommand) {
  EXPECT_EQ(shell_->Execute("frobnicate"), "frobnicate: command not found\n");
  EXPECT_NE(shell_->Execute("help").find("PB"), std::string::npos);
}

TEST_F(ShellTest, CommandsAreAudited) {
  size_t before = machine_->kernel().audit().size();
  (void)shell_->Execute("cat /etc/hosts");
  auto records = machine_->kernel().audit().Filter([](const witos::AuditRecord& rec) {
    return rec.event == witos::AuditEvent::kSessionEvent &&
           rec.detail == "cmd: cat /etc/hosts";
  });
  EXPECT_EQ(records.size(), 1u);
  EXPECT_GT(machine_->kernel().audit().size(), before);
}

TEST_F(ShellTest, TranscriptRendersPromptsAndOutput) {
  std::string transcript = shell_->Transcript("hostname\nps -a\nPB ps -a\n");
  EXPECT_NE(transcript.find("root@ITContainer:/# hostname"), std::string::npos);
  EXPECT_NE(transcript.find("ITContainer\n"), std::string::npos);
  EXPECT_NE(transcript.find("root@ITContainer:/# PB ps -a"), std::string::npos);
  EXPECT_EQ(shell_->commands_run(), 3u);
}

}  // namespace
}  // namespace watchit
