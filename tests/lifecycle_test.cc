// Session and process lifecycle: what a closed ticket leaves behind on its
// machine. Per-machine live state (process table, pid maps, init's
// children, the host root, ContainIT's live sessions, cached blocks, metric
// series) must be bounded by the sessions that are live, not by every ticket
// the machine has served, while each closed session's record still answers
// forensic queries.

#include <gtest/gtest.h>

#include "src/core/cluster.h"
#include "src/core/report.h"
#include "src/core/session.h"
#include "src/core/ticket_class.h"

namespace watchit {
namespace {

Ticket MakeTicket(const std::string& id, const std::string& cls) {
  Ticket ticket;
  ticket.id = id;
  ticket.target_machine = "userpc";
  ticket.assigned_class = cls;
  ticket.admin = "alice";
  return ticket;
}

witload::RequiredOp KillOp() {
  witload::RequiredOp op;
  op.kind = witload::OpKind::kKillProcess;
  op.service = "runaway";
  return op;
}

// The per-machine structures a ticket touches.
struct MachineState {
  size_t processes = 0;
  size_t host_pid_map = 0;
  size_t init_children = 0;
  size_t root_entries = 0;
  size_t net_namespaces = 0;
  size_t live_sessions = 0;
  uint64_t page_cache_bytes = 0;
};

MachineState Snapshot(Machine& machine) {
  witos::Kernel& kernel = machine.kernel();
  witos::NamespaceRegistry& namespaces = kernel.namespaces();
  MachineState state;
  state.processes = kernel.process_count();
  state.host_pid_map =
      namespaces.Pidns(namespaces.initial(witos::NsType::kPid)).host_to_local.size();
  state.init_children = kernel.FindProcess(kernel.init_pid())->children.size();
  state.root_entries = kernel.ReadDir(kernel.init_pid(), "/")->size();
  state.net_namespaces = machine.net().namespaces().size();
  state.live_sessions = machine.containit().active_sessions();
  state.page_cache_bytes = kernel.page_cache().bytes();
  return state;
}

size_t CountRunaways(witos::Kernel& kernel) {
  auto procs = kernel.ListProcesses(kernel.init_pid());
  size_t n = 0;
  for (const auto& info : *procs) {
    n += info.name == "runaway" ? 1u : 0u;
  }
  return n;
}

class LifecycleTest : public ::testing::Test {
 protected:
  LifecycleTest() : machine_(cluster_.AddMachine("userpc", witnet::Ipv4Addr(10, 0, 1, 50))) {}

  Cluster cluster_;
  Machine& machine_;
  ClusterManager manager_{&cluster_};
};

// Regression: every closed ticket used to leave its five session processes,
// the nsenter helper and the kill-op victim in the process table, its
// /ConFS-<n> mountpoint in the host root, its cached blocks, and two
// per-ticket metric series each for ITFS and the broker, so per-ticket cost
// and memory grew with the machine's history.
TEST_F(LifecycleTest, StateAfterManyTicketsEqualsPostBoot) {
  const MachineState boot = Snapshot(machine_);

  witload::RequiredOp write_op;  // outside T-3's view: a mount_volume grant
  write_op.kind = witload::OpKind::kWriteFile;
  write_op.path = "/var/log/spark/fix.log";
  const std::vector<witload::RequiredOp> ops = {KillOp(), write_op};

  witcontain::SessionId first = 0;
  size_t series_after_20 = 0;
  for (int i = 0; i < 200; ++i) {
    if (i == 20) {
      series_after_20 = machine_.metrics().SeriesCount();
    }
    auto deployment = manager_.Deploy(MakeTicket("TKT-" + std::to_string(i), "T-3"));
    ASSERT_TRUE(deployment.ok()) << i;
    if (i == 0) {
      first = deployment->session;
    }
    AdminSession session(&machine_, deployment->session, deployment->certificate,
                         &cluster_.ca());
    ASSERT_TRUE(session.Login().ok());
    std::vector<OpReplayResult> results = session.ReplayTicket(ops);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_TRUE(results[0].used_broker);  // T-3 may not kill host processes
    EXPECT_FALSE(results[0].broker_ok);
    EXPECT_TRUE(results[1].used_broker);
    EXPECT_TRUE(results[1].broker_ok);
    ASSERT_TRUE(session.ReadFile(write_op.path).ok());  // through the page cache
    ASSERT_TRUE(manager_.Expire(&*deployment).ok());
  }

  const MachineState after = Snapshot(machine_);
  EXPECT_EQ(after.processes, boot.processes);
  EXPECT_EQ(after.host_pid_map, boot.host_pid_map);
  EXPECT_EQ(after.init_children, boot.init_children);
  EXPECT_EQ(after.root_entries, boot.root_entries);
  EXPECT_EQ(after.net_namespaces, boot.net_namespaces);
  EXPECT_EQ(after.live_sessions, boot.live_sessions);
  EXPECT_EQ(after.page_cache_bytes, boot.page_cache_bytes);
  EXPECT_EQ(machine_.metrics().SeriesCount(), series_after_20);

  // Each closed session left one record, and TKT-0's still answers forensic
  // queries with its exact totals: the denied kill and the granted mount.
  EXPECT_EQ(machine_.containit().retired_sessions().size(), 200u);
  ForensicReporter reporter(&machine_);
  auto forensics = reporter.Collect(first);
  ASSERT_TRUE(forensics.ok());
  EXPECT_EQ(forensics->ticket_id, "TKT-0");
  EXPECT_FALSE(forensics->still_active);
  EXPECT_EQ(forensics->termination_reason, "ticket expired");
  EXPECT_EQ(forensics->broker_requests, 2u);
  EXPECT_EQ(forensics->broker_denied, 1u);
}

// A closed session's mounts are freed, so a later filesystem may reuse their
// addresses. Whatever a session read or wrote through them leaves the page
// cache with it, on every kind of view: whole root through ITFS (T-8),
// private root with host directories bound in (T-2), a monitored private
// root (T-11), and a file-sharing mount inside the container (T-3's
// mount_volume grant).
TEST_F(LifecycleTest, ClosedSessionsLeaveNoCachedBlocks) {
  const uint64_t boot_bytes = machine_.kernel().page_cache().bytes();
  witload::RequiredOp write_op;
  write_op.kind = witload::OpKind::kWriteFile;
  struct Case {
    const char* cls;
    const char* path;
  };
  const Case cases[] = {
      {"T-8", "/home/user/t8.txt"},
      {"T-2", "/etc/t2.conf"},
      {"T-11", "/tmp/t11.txt"},
      {"T-3", "/var/log/spark/t3.log"},
  };
  int n = 0;
  for (const Case& c : cases) {
    auto deployment = manager_.Deploy(MakeTicket("TKT-PC" + std::to_string(n++), c.cls));
    ASSERT_TRUE(deployment.ok()) << c.cls;
    AdminSession session(&machine_, deployment->session, deployment->certificate,
                         &cluster_.ca());
    ASSERT_TRUE(session.Login().ok());
    write_op.path = c.path;
    OpReplayResult result = session.Replay(write_op);
    ASSERT_TRUE(result.in_view || result.broker_ok) << c.cls;
    ASSERT_TRUE(session.ReadFile(c.path).ok()) << c.cls;
    ASSERT_GT(machine_.kernel().page_cache().bytes(), boot_bytes) << c.cls;
    ASSERT_TRUE(manager_.Expire(&*deployment).ok());
    EXPECT_EQ(machine_.kernel().page_cache().bytes(), boot_bytes) << c.cls;
  }
}

// Attack 7 watchdog over the live/retired split.
TEST_F(LifecycleTest, WatchdogTerminatesOnlyLiveSessionsOfTheDeadPeer) {
  witos::Kernel& kernel = machine_.kernel();
  witcontain::ContainIt& containit = machine_.containit();
  const witcontain::PerforatedContainerSpec spec = SpecForTicketClass(1);
  auto a = containit.Deploy(spec, "TKT-A", "alice");
  auto b = containit.Deploy(spec, "TKT-B", "bob");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(containit.active_sessions(), 2u);

  // Killing A's itfs daemon ends A only; A's record stays reachable.
  const witos::Pid itfs_daemon = containit.FindSession(*a)->itfs_daemon;
  ASSERT_NE(itfs_daemon, witos::kNoPid);
  ASSERT_TRUE(kernel.Exit(itfs_daemon, -9).ok());
  EXPECT_EQ(containit.FindSession(*a), nullptr);
  const witcontain::SessionRecord* record_a = containit.FindRetired(*a);
  ASSERT_NE(record_a, nullptr);
  EXPECT_NE(record_a->termination_reason.find("peer"), std::string::npos);
  EXPECT_NE(containit.FindSession(*b), nullptr);
  EXPECT_EQ(containit.FindRetired(*b), nullptr);
  EXPECT_EQ(containit.active_sessions(), 1u);

  // A retired ticket no longer resolves; a redeploy of it resolves to the
  // new session.
  EXPECT_EQ(containit.FindSessionByTicket("TKT-A"), nullptr);
  auto a2 = containit.Deploy(spec, "TKT-A", "alice");
  ASSERT_TRUE(a2.ok());
  ASSERT_NE(containit.FindSessionByTicket("TKT-A"), nullptr);
  EXPECT_EQ(containit.FindSessionByTicket("TKT-A")->id, *a2);
  EXPECT_EQ(containit.FindSessionByTicket("TKT-B")->id, *b);

  // Killing the broker ends every live session.
  ASSERT_TRUE(kernel.Exit(machine_.broker_pid(), -9).ok());
  EXPECT_EQ(containit.active_sessions(), 0u);
  for (witcontain::SessionId id : {*b, *a2}) {
    EXPECT_EQ(containit.FindSession(id), nullptr);
    const witcontain::SessionRecord* record = containit.FindRetired(id);
    ASSERT_NE(record, nullptr);
    EXPECT_NE(record->termination_reason.find("peer"), std::string::npos);
  }
  EXPECT_EQ(containit.retired_sessions().size(), 3u);
  EXPECT_EQ(kernel.audit().CountEvent(witos::AuditEvent::kContainerTerminated), 3u);
}

// The kill op spawns a host "runaway" victim per attempt; whatever the
// outcome, none may outlive the replay.
TEST_F(LifecycleTest, KillOpsLeaveNoRunawayBehind) {
  // T-7 isolates PID and may not kill; a T-7 variant may.
  cluster_.images().Register("T-7K", SpecForTicketClass(7));
  witbroker::ClassPolicy killer;
  killer.allowed_verbs = {witbroker::kVerbKill};
  machine_.policy().SetPolicy("T-7K", killer);

  struct Case {
    const char* cls;
    bool in_view;
    bool used_broker;
    bool broker_ok;
  };
  const Case cases[] = {
      {"T-7K", false, true, true},   // the broker grants the kill
      {"T-7", false, true, false},   // policy denies it
      {"T-5", true, false, false},   // shared PID namespace: killed in view
  };
  int n = 0;
  for (const Case& c : cases) {
    auto deployment = manager_.Deploy(MakeTicket("TKT-K" + std::to_string(n++), c.cls));
    ASSERT_TRUE(deployment.ok()) << c.cls;
    AdminSession session(&machine_, deployment->session, deployment->certificate,
                         &cluster_.ca());
    ASSERT_TRUE(session.Login().ok());
    std::vector<OpReplayResult> results = session.ReplayTicket({KillOp()});
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].in_view, c.in_view) << c.cls;
    EXPECT_EQ(results[0].used_broker, c.used_broker) << c.cls;
    EXPECT_EQ(results[0].broker_ok, c.broker_ok) << c.cls;
    EXPECT_EQ(CountRunaways(machine_.kernel()), 0u) << c.cls;

    // The per-op path cleans up the same way.
    OpReplayResult single = session.Replay(KillOp());
    EXPECT_EQ(single.in_view, c.in_view) << c.cls;
    EXPECT_EQ(single.used_broker, c.used_broker) << c.cls;
    EXPECT_EQ(single.broker_ok, c.broker_ok) << c.cls;
    EXPECT_EQ(CountRunaways(machine_.kernel()), 0u) << c.cls;
    ASSERT_TRUE(manager_.Expire(&*deployment).ok());
  }
}

}  // namespace
}  // namespace watchit
