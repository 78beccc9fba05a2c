// Tests for the permission-broker stack: wire format, RPC framing, policy
// manager, broker semantics and anomaly detection. The evidence chain the
// broker writes is covered by securelog_test, and the broker record codec's
// round trip by wire_fuzz_test.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "src/broker/anomaly.h"
#include "src/broker/broker.h"

namespace witbroker {
namespace {

TEST(WireTest, RoundTripPrimitives) {
  WireWriter writer;
  writer.PutU32(0xdeadbeef);
  writer.PutU64(0x1122334455667788ull);
  writer.PutString("hello");
  writer.PutStringList({"a", "", "ccc"});
  writer.PutBool(true);
  WireReader reader(writer.data());
  EXPECT_EQ(*reader.GetU32(), 0xdeadbeefu);
  EXPECT_EQ(*reader.GetU64(), 0x1122334455667788ull);
  EXPECT_EQ(*reader.GetString(), "hello");
  EXPECT_EQ(*reader.GetStringList(), (std::vector<std::string>{"a", "", "ccc"}));
  EXPECT_TRUE(*reader.GetBool());
  EXPECT_TRUE(reader.AtEnd());
}

TEST(WireTest, TruncatedInputRejected) {
  WireWriter writer;
  writer.PutString("hello");
  std::string data = writer.data();
  data.resize(data.size() - 2);
  WireReader reader(data);
  EXPECT_FALSE(reader.GetString().ok());
}

TEST(RpcTest, BatchRoundTripLaw) {
  // The round-trip law: Deserialize(Serialize(b)) == b for any well-formed
  // batch, and the response side likewise — positional order preserved.
  RpcBatchRequest batch;
  batch.ops = {{"ps", {}}, {"kill", {"1042"}}, {"read_file", {"/var/log/syslog"}}};
  auto decoded = RpcBatchRequest::Deserialize(batch.Serialize());
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->ops.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(decoded->ops[i].method, batch.ops[i].method);
    EXPECT_EQ(decoded->ops[i].args, batch.ops[i].args);
  }

  RpcBatchResponse responses;
  RpcResponse granted;
  granted.ok = true;
  granted.payload = "PID...";
  RpcResponse denied;
  denied.err = witos::Err::kPerm;
  responses.responses = {granted, denied};
  auto decoded_resp = RpcBatchResponse::Deserialize(responses.Serialize());
  ASSERT_TRUE(decoded_resp.ok());
  ASSERT_EQ(decoded_resp->responses.size(), 2u);
  EXPECT_TRUE(decoded_resp->responses[0].ok);
  EXPECT_EQ(decoded_resp->responses[0].payload, "PID...");
  EXPECT_FALSE(decoded_resp->responses[1].ok);
  EXPECT_EQ(decoded_resp->responses[1].err, witos::Err::kPerm);
}

TEST(RpcTest, TrailingGarbageRejected) {
  RpcBatchRequest batch;
  batch.ops = {{"ps", {}}};
  std::string frame = batch.Serialize() + "junk";
  EXPECT_FALSE(RpcBatchRequest::Deserialize(frame).ok());
}

TEST(RpcTest, UnboundChannelRefusesConnections) {
  RpcChannel channel;
  RpcBatchRequest batch;
  batch.ops = {{"ps", {}}};
  EXPECT_EQ(channel.CallBatch(witos::kNoPid, batch).error(), witos::Err::kConnRefused);
  EXPECT_EQ(channel.calls(), 0u);
}

TEST(PolicyManagerTest, PerClassAndPerAdminRules) {
  PolicyManager policy;
  ClassPolicy p;
  p.allowed_verbs = {"ps", "kill"};
  p.denied_for_admin["mallory"] = {"kill"};
  policy.SetPolicy("T-5", p);
  EXPECT_TRUE(policy.IsAllowed("T-5", "ps", "alice"));
  EXPECT_TRUE(policy.IsAllowed("T-5", "kill", "alice"));
  EXPECT_FALSE(policy.IsAllowed("T-5", "reboot", "alice"));
  EXPECT_FALSE(policy.IsAllowed("T-5", "kill", "mallory"));
  // Unknown class falls back to the (deny-all) default.
  EXPECT_FALSE(policy.IsAllowed("T-99", "ps", "alice"));
}

// A binding deadline no test clock reaches.
constexpr uint64_t kNoDeadline = UINT64_MAX;

// A session's shell as the broker sees it: a root process alone in a fresh
// cgroup that `ticket` is bound to until `expires_ns`.
witos::Pid BoundCaller(witos::Kernel* kernel, PermissionBroker* broker, const std::string& ticket,
                       const std::string& ticket_class, const std::string& admin = "alice",
                       uint64_t expires_ns = kNoDeadline) {
  const witos::Pid pid = *kernel->Clone(1, "bash", 0);
  const witos::CgroupId cgroup = kernel->cgroups().Create("session-" + ticket, 0);
  EXPECT_TRUE(kernel->AssignCgroup(pid, cgroup).ok());
  EXPECT_TRUE(broker->BindTicket(ticket, ticket_class, admin, cgroup, expires_ns).ok());
  return pid;
}

class BrokerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    broker_pid_ = *kernel_.Clone(1, "PermissionBroker", 0);
    ClassPolicy standard;
    standard.allowed_verbs = {kVerbPs, kVerbKill, kVerbReadFile, kVerbInstall,
                              kVerbRestartService};
    policy_.SetPolicy("T-1", standard);
    broker_ = std::make_unique<PermissionBroker>(&kernel_, broker_pid_, &policy_, &channel_);
    caller_ = BoundCaller(&kernel_, broker_.get(), "TKT-1", "T-1");
    client_ = std::make_unique<BrokerClient>(&channel_, caller_);
  }

  // A uid-1000 child of the bound caller: in the bound cgroup, not root.
  witos::Pid UnprivilegedChild() {
    const witos::Pid child = *kernel_.Clone(caller_, "user-shell", 0);
    EXPECT_TRUE(kernel_.Setuid(child, 1000).ok());
    return child;
  }

  // The broker requests in the host's evidence chain, decoded.
  std::vector<BrokerEvent> Events() const { return BrokerEventsOf(kernel_.audit().Snapshot()); }

  witos::Kernel kernel_{"host"};
  witos::Pid broker_pid_ = witos::kNoPid;
  witos::Pid caller_ = witos::kNoPid;
  PolicyManager policy_;
  RpcChannel channel_;
  std::unique_ptr<PermissionBroker> broker_;
  std::unique_ptr<BrokerClient> client_;
};

TEST_F(BrokerTest, PsShowsHostProcesses) {
  auto out = client_->Request(kVerbPs, {});
  ASSERT_TRUE(out.ok());
  EXPECT_NE(out->find("init"), std::string::npos);
  EXPECT_NE(out->find("PermissionBroker"), std::string::npos);
}

TEST_F(BrokerTest, UnprivilegedCallerDeniedByBroker) {
  // "Only privileged users may talk to the broker": the broker applies the
  // rule from the kernel's credentials, so the refusal is chained under
  // the caller's pid and uid, naming the binding of its cgroup.
  const witos::Pid child = UnprivilegedChild();
  auto out = BrokerClient(&channel_, child).Request(kVerbPs, {});
  EXPECT_EQ(out.error(), witos::Err::kPerm);
  const auto records = kernel_.audit().Snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].event, witos::AuditEvent::kBrokerDenied);
  EXPECT_EQ(records[0].pid, child);
  EXPECT_EQ(records[0].uid, 1000u);
  EXPECT_EQ(records[0].detail, "DENY alice TKT-1 [T-1] ps");
}

TEST_F(BrokerTest, UnboundCallerDeniedAndChainedWithNoTicket) {
  // A host process sits in the root cgroup, which no binding names: every
  // op is denied, whatever its class would allow, and chained with no
  // admin, ticket or class.
  const witos::Pid host = *kernel_.Clone(1, "cron", 0);
  BrokerClient client(&channel_, host);
  client.Begin();
  client.Queue(kVerbPs, {});
  client.Queue(kVerbInstall, {"netcat"});
  for (const auto& result : client.Flush()) {
    EXPECT_EQ(result.error(), witos::Err::kPerm);
  }
  const auto records = kernel_.audit().Snapshot();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].pid, host);
  EXPECT_EQ(records[0].uid, witos::kRootUid);
  EXPECT_EQ(records[0].detail, "DENY % % [] ps");
  EXPECT_EQ(records[1].detail, "DENY % % [] install netcat");
  const auto events = Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_TRUE(events[0].ticket_id.empty());
  EXPECT_TRUE(events[0].admin.empty());
}

TEST_F(BrokerTest, ExitedOrMissingCallerDenied) {
  // A zombie still names its cgroup's binding but is no longer running; a
  // pid with no process has no uid (chained as the overflow uid).
  ASSERT_TRUE(kernel_.Exit(caller_, 0).ok());
  EXPECT_EQ(client_->Request(kVerbPs, {}).error(), witos::Err::kPerm);
  EXPECT_EQ(BrokerClient(&channel_, 99999).Request(kVerbPs, {}).error(), witos::Err::kPerm);
  const auto records = kernel_.audit().Snapshot();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].detail, "DENY alice TKT-1 [T-1] ps");
  EXPECT_EQ(records[0].pid, caller_);
  EXPECT_EQ(records[1].detail, "DENY % % [] ps");
  EXPECT_EQ(records[1].pid, 99999);
  EXPECT_EQ(records[1].uid, witos::kOverflowUid);
}

TEST_F(BrokerTest, CallerPastItsBindingDeadlineDeniedButNamed) {
  // Granted before the deadline; from the deadline on, every op is denied
  // and still chained under the binding's ticket.
  const uint64_t deadline = kernel_.clock().now_ns() + 1000000;
  const witos::Pid shell = BoundCaller(&kernel_, broker_.get(), "TKT-DL", "T-1", "bob", deadline);
  BrokerClient client(&channel_, shell);
  ASSERT_TRUE(client.Request(kVerbPs, {}).ok());
  ASSERT_LT(kernel_.clock().now_ns(), deadline);
  kernel_.clock().Advance(deadline - kernel_.clock().now_ns());
  EXPECT_EQ(client.Request(kVerbPs, {}).error(), witos::Err::kPerm);
  client.Begin();
  client.Queue(kVerbKill, {"1"});
  client.Queue(kVerbInstall, {"netcat"});
  for (const auto& result : client.Flush()) {
    EXPECT_EQ(result.error(), witos::Err::kPerm);
  }
  const auto records = kernel_.audit().Snapshot();
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[0].detail, "GRANT bob TKT-DL [T-1] ps");
  EXPECT_EQ(records[1].detail, "DENY bob TKT-DL [T-1] ps");
  EXPECT_EQ(records[2].detail, "DENY bob TKT-DL [T-1] kill 1");
  EXPECT_EQ(records[3].detail, "DENY bob TKT-DL [T-1] install netcat");
  for (const auto& record : records) {
    EXPECT_EQ(record.pid, shell);
  }
  EXPECT_TRUE(broker_->IsTicketBound("TKT-DL"));  // the deadline denies; Expire unbinds
}

TEST_F(BrokerTest, DisallowedVerbDeniedAndLogged) {
  auto out = client_->Request(kVerbReboot, {});
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.error(), witos::Err::kPerm);
  auto events = Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_FALSE(events[0].granted);
  EXPECT_EQ(broker_->log().size(), 1u);
  EXPECT_EQ(broker_->log().Snapshot()[0].detail.substr(0, 4), "DENY");
  EXPECT_EQ(kernel_.audit().CountEvent(witos::AuditEvent::kBrokerDenied), 1u);
}

TEST_F(BrokerTest, GrantedRequestsAreChainLogged) {
  ASSERT_TRUE(client_->Request(kVerbPs, {}).ok());
  ASSERT_TRUE(client_->Request(kVerbRestartService, {"sshd"}).ok());
  // Two broker records, plus the session record restart_service writes.
  EXPECT_EQ(broker_->log().size(), 3u);
  EXPECT_TRUE(broker_->log().Verify());
  EXPECT_EQ(kernel_.audit().CountEvent(witos::AuditEvent::kBrokerRequest), 2u);
}

TEST_F(BrokerTest, KillExecutesOnBehalf) {
  witos::Pid victim = *kernel_.Clone(1, "runaway", 0);
  auto out = client_->Request(kVerbKill, {std::to_string(victim)});
  ASSERT_TRUE(out.ok());
  EXPECT_FALSE(kernel_.ProcessAlive(victim));
}

TEST_F(BrokerTest, ReadFileExecutesWithHostView) {
  ASSERT_TRUE(kernel_.WriteFile(1, "/etc/motd", "host motd").ok());
  auto out = client_->Request(kVerbReadFile, {"/etc/motd"});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, "host motd");
}

TEST_F(BrokerTest, InstallWritesPackage) {
  ASSERT_TRUE(kernel_.MkDir(1, "/usr/progs").ok());
  auto out = client_->Request(kVerbInstall, {"toolbox"});
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(kernel_.ReadFile(1, "/usr/progs/toolbox").ok());
}

TEST_F(BrokerTest, InstallTakesOnePathComponent) {
  ASSERT_TRUE(kernel_.MkDir(1, "/usr/progs").ok());
  ASSERT_TRUE(kernel_.WriteFile(1, "/etc/passwd", "root:x:0:0\n").ok());
  for (const std::string package : {"../../etc/passwd", "..", ".", "", "bin/tool", "/tool"}) {
    EXPECT_EQ(client_->Request(kVerbInstall, {package}).error(), witos::Err::kInval) << package;
  }
  EXPECT_EQ(*kernel_.ReadFile(1, "/etc/passwd"), "root:x:0:0\n");
  EXPECT_EQ(kernel_.ReadDir(1, "/usr/progs")->size(), 0u);
}

TEST_F(BrokerTest, UnknownVerbIsNoSys) {
  ClassPolicy open;
  open.allow_all = true;
  policy_.SetPolicy("T-1", open);
  auto out = client_->Request("frobnicate", {});
  ASSERT_FALSE(out.ok());
  // Typed end-to-end: ENOSYS crosses the wire as an enum, not a string.
  EXPECT_EQ(out.error(), witos::Err::kNoSys);
}

TEST_F(BrokerTest, KillOfMissingProcessIsTypedSrch) {
  auto out = client_->Request(kVerbKill, {"99999"});
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.error(), witos::Err::kSrch);
}

TEST_F(BrokerTest, CustomVerbDispatch) {
  ClassPolicy open;
  open.allow_all = true;
  policy_.SetPolicy("T-1", open);
  broker_->RegisterVerb("custom", [](const RpcRequest& req) {
    RpcResponse resp;
    resp.ok = true;
    resp.payload = "custom:" + req.args[0];
    return resp;
  });
  auto out = client_->Request("custom", {"arg"});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, "custom:arg");
}

TEST_F(BrokerTest, PipelinedBatchAuditsEveryOp) {
  // Three queued ops ride one batch: two granted, one denied by policy.
  client_->Begin();
  size_t i_ps = client_->Queue(kVerbPs, {});
  size_t i_restart = client_->Queue(kVerbRestartService, {"sshd"});
  size_t i_reboot = client_->Queue(kVerbReboot, {});  // not in T-1's verb set
  EXPECT_EQ(client_->pending(), 3u);
  auto results = client_->Flush();
  EXPECT_EQ(client_->pending(), 0u);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[i_ps].ok());
  EXPECT_NE(results[i_ps]->find("init"), std::string::npos);
  EXPECT_TRUE(results[i_restart].ok());
  ASSERT_FALSE(results[i_reboot].ok());
  EXPECT_EQ(results[i_reboot].error(), witos::Err::kPerm);

  // Per-op audit trail (Table 1): N sub-ops produce N chained records —
  // batching only amortizes the wire and the critical sections.
  auto events = Events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_TRUE(events[0].granted);
  EXPECT_TRUE(events[1].granted);
  EXPECT_FALSE(events[2].granted);
  EXPECT_EQ(events[2].verb, kVerbReboot);
  // The three broker records, then restart_service's session record.
  EXPECT_EQ(broker_->log().size(), 4u);
  EXPECT_TRUE(broker_->log().Verify());
  EXPECT_EQ(kernel_.audit().CountEvent(witos::AuditEvent::kBrokerRequest), 2u);
  EXPECT_EQ(kernel_.audit().CountEvent(witos::AuditEvent::kBrokerDenied), 1u);

  // The whole batch crossed the wire as exactly two frames (request +
  // response) in one call.
  EXPECT_EQ(channel_.frames(), 2u);
  EXPECT_EQ(channel_.calls(), 1u);
}

TEST_F(BrokerTest, BatchMatchesSequentialRequests) {
  // Law: a flushed batch answers each op exactly as N sequential Request()
  // calls would, and leaves the same audit trail behind.
  client_->Begin();
  client_->Queue(kVerbPs, {});
  client_->Queue(kVerbReboot, {});
  auto batched = client_->Flush();
  size_t log_after_batch = broker_->log().size();

  auto seq_ps = client_->Request(kVerbPs, {});
  auto seq_reboot = client_->Request(kVerbReboot, {});
  ASSERT_EQ(batched.size(), 2u);
  EXPECT_EQ(batched[0].ok(), seq_ps.ok());
  EXPECT_EQ(*batched[0], *seq_ps);
  EXPECT_EQ(batched[1].ok(), seq_reboot.ok());
  EXPECT_EQ(batched[1].error(), seq_reboot.error());
  EXPECT_EQ(broker_->log().size(), log_after_batch * 2);
  EXPECT_TRUE(broker_->log().Verify());
}

TEST_F(BrokerTest, UnprivilegedBatchDeniedByBroker) {
  BrokerClient client(&channel_, UnprivilegedChild());
  client.Begin();
  client.Queue(kVerbPs, {});
  client.Queue(kVerbKill, {"7"});
  auto results = client.Flush();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].error(), witos::Err::kPerm);
  EXPECT_EQ(results[1].error(), witos::Err::kPerm);
  // One frame pair crossed the wire; the broker denied and chained each op
  // and dispatched none.
  EXPECT_EQ(channel_.frames(), 2u);
  auto events = Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_FALSE(events[0].granted);
  EXPECT_FALSE(events[1].granted);
  EXPECT_EQ(broker_->log().size(), 2u);
}

TEST_F(BrokerTest, EmptyFlushIsFree) {
  client_->Begin();
  auto results = client_->Flush();
  EXPECT_TRUE(results.empty());
  EXPECT_EQ(channel_.frames(), 0u);
}

TEST_F(BrokerTest, RequestLeavesOpenPipelineIntact) {
  // A one-shot Request between Queue and Flush rides its own batch of one,
  // and so does another process's denied request on the same channel; the
  // queued op and its position survive untouched.
  client_->Begin();
  size_t i_restart = client_->Queue(kVerbRestartService, {"sshd"});
  auto denied = client_->Request(kVerbReboot, {});
  EXPECT_EQ(denied.error(), witos::Err::kPerm);
  auto unprivileged = BrokerClient(&channel_, UnprivilegedChild()).Request(kVerbPs, {});
  EXPECT_EQ(unprivileged.error(), witos::Err::kPerm);
  EXPECT_EQ(client_->pending(), 1u);

  auto results = client_->Flush();
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[i_restart].ok());
  EXPECT_EQ(*results[i_restart], "restarted sshd");
  auto events = Events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].verb, kVerbReboot);
  EXPECT_EQ(events[1].verb, kVerbPs);
  EXPECT_FALSE(events[1].granted);
  EXPECT_EQ(events[2].verb, kVerbRestartService);
  EXPECT_TRUE(events[2].granted);
  EXPECT_EQ(channel_.calls(), 3u);
}

TEST_F(BrokerTest, DispatchLatencySampledPerGrantedDispatch) {
  witobs::MetricsRegistry registry;
  broker_->EnableMetrics(&registry);
  const witobs::Histogram* dispatch =
      registry.FindHistogram("watchit_broker_dispatch_latency_ns");
  ASSERT_NE(dispatch, nullptr);

  client_->Begin();
  client_->Queue(kVerbPs, {});
  client_->Queue(kVerbDriverUpdate, {"rootkit"});  // not in T-1's verb set
  client_->Queue(kVerbPs, {});
  (void)client_->Flush();
  const uint64_t after_mixed = dispatch->Count();
  EXPECT_EQ(after_mixed, 2u);  // one sample per granted dispatch

  client_->Begin();
  client_->Queue(kVerbReboot, {});
  client_->Queue(kVerbDriverUpdate, {"rootkit"});
  (void)client_->Flush();
  EXPECT_EQ(dispatch->Count() - after_mixed, 0u);  // nothing dispatched, nothing sampled
}

TEST_F(BrokerTest, BeginDiscardsAbandonedPipeline) {
  client_->Begin();
  client_->Queue(kVerbReboot, {});
  client_->Begin();
  client_->Queue(kVerbPs, {});
  auto results = client_->Flush();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].ok());
  auto events = Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].verb, kVerbPs);
}

// ---- Bindings and batch order (DESIGN.md §14) ----

// One op as its own batch, the way BrokerClient::Request sends it.
RpcBatchRequest OneOp(const std::string& verb) {
  RpcBatchRequest batch;
  batch.ops = {{verb, {}}};
  return batch;
}

TEST_F(BrokerTest, BindRejectsDuplicatesAndUnbindReleases) {
  std::vector<witos::Pid> callers;
  for (int i = 0; i < 12; ++i) {
    std::string ticket = "TKT-B" + std::to_string(i);
    callers.push_back(BoundCaller(&kernel_, broker_.get(), ticket, "T-1"));
    EXPECT_TRUE(broker_->IsTicketBound(ticket));
  }
  EXPECT_EQ(broker_->bound_ticket_count(), 13u);  // plus the fixture's TKT-1
  // A duplicate deploy must not silently reclassify a live ticket...
  const witos::CgroupId spare = kernel_.cgroups().Create("spare", 0);
  EXPECT_EQ(broker_->BindTicket("TKT-B3", "T-8", "alice", spare, kNoDeadline).error(),
            witos::Err::kExist);
  // ...nor may one session's cgroup ask under a second ticket, and host
  // processes (the root cgroup) are never bound.
  const witos::CgroupId taken = kernel_.FindProcess(callers[3])->cgroup;
  EXPECT_EQ(broker_->BindTicket("TKT-NEW", "T-8", "alice", taken, kNoDeadline).error(),
            witos::Err::kExist);
  EXPECT_EQ(broker_->BindTicket("TKT-NEW", "T-8", "alice", witos::kRootCgroup, kNoDeadline).error(),
            witos::Err::kInval);
  EXPECT_FALSE(broker_->IsTicketBound("TKT-NEW"));

  for (int i = 0; i < 12; ++i) {
    auto response = broker_->HandleBatch(callers[static_cast<size_t>(i)], OneOp(kVerbPs));
    ASSERT_EQ(response.responses.size(), 1u);
    EXPECT_TRUE(response.responses[0].ok);  // still T-1: the duplicate bind changed nothing
  }
  // Events and records come back in arrival order.
  auto events = Events();
  ASSERT_EQ(events.size(), 12u);
  auto records = broker_->log().Snapshot();
  ASSERT_EQ(records.size(), 12u);
  for (size_t i = 0; i < 12; ++i) {
    const std::string ticket = "TKT-B" + std::to_string(i);
    EXPECT_EQ(events[i].ticket_id, ticket);
    EXPECT_EQ(events[i].ticket_class, "T-1");
    EXPECT_EQ(records[i].detail, "GRANT alice " + ticket + " [T-1] ps");
    EXPECT_EQ(records[i].pid, callers[i]);
  }
  EXPECT_TRUE(broker_->log().Verify());

  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(broker_->UnbindTicket("TKT-B" + std::to_string(i)).ok());
  }
  EXPECT_EQ(broker_->bound_ticket_count(), 1u);
  EXPECT_EQ(broker_->UnbindTicket("TKT-B0").error(), witos::Err::kSrch);
  // Unbound, a caller's requests are denied and name no ticket.
  EXPECT_FALSE(broker_->HandleBatch(callers[0], OneOp(kVerbPs)).responses[0].ok);
  EXPECT_EQ(broker_->log().Snapshot().back().detail, "DENY % % [] ps");
}

TEST_F(BrokerTest, BatchLogsEveryOpInQueueOrder) {
  RpcBatchRequest batch;
  for (int i = 0; i < 5; ++i) {
    RpcOp op;
    op.method = kVerbRestartService;
    op.args = {"svc-" + std::to_string(i)};
    batch.ops.push_back(op);
  }
  auto response = broker_->HandleBatch(caller_, batch);
  ASSERT_EQ(response.responses.size(), 5u);
  // Five per-op records on the one chain, in queue order, appended before
  // any dispatch (each restart then writes its own session record).
  auto records = broker_->log().Snapshot();
  ASSERT_EQ(records.size(), 10u);
  EXPECT_TRUE(witos::AuditLog::VerifyChain(records));
  auto events = Events();
  ASSERT_EQ(events.size(), 5u);
  for (size_t i = 0; i < events.size(); ++i) {
    const std::string service = "svc-" + std::to_string(i);
    EXPECT_EQ(records[i].event, witos::AuditEvent::kBrokerRequest);
    EXPECT_EQ(records[i].detail, "GRANT alice TKT-1 [T-1] restart_service " + service);
    EXPECT_EQ(events[i].args, std::vector<std::string>{service});
    EXPECT_EQ(records[5 + i].detail, "restart_service " + service);
  }
}

// Two writer threads, each a bound caller, drive batches while a reader
// takes verified snapshots and decodes them, as the forensic reporter does
// against a serving machine. broker_test runs under TSan in CI.
TEST(BrokerEvidenceRaceTest, ReadersDuringTrafficAreRaceFree) {
  witos::Kernel kernel("host");
  witos::Pid pid = *kernel.Clone(1, "PermissionBroker", 0);
  PolicyManager policy;  // no rate limit → HandleBatch never mutates policy state
  RpcChannel channel;
  PermissionBroker broker(&kernel, pid, &policy, &channel);

  constexpr int kPerWriter = 1500;
  witos::Pid callers[2];
  for (int w = 0; w < 2; ++w) {
    callers[w] = BoundCaller(&kernel, &broker, "TKT-" + std::to_string(w), "T-1");
  }
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&, w] {
      // Denied (no class policy): one chained record, no dispatch.
      const RpcBatchRequest batch = OneOp(kVerbReboot);
      for (int i = 0; i < kPerWriter; ++i) {
        broker.HandleBatch(callers[w], batch);
      }
    });
  }
  std::thread reader([&] {
    for (int i = 0; i < 200; ++i) {
      auto snapshot = broker.log().VerifiedSnapshot();
      ASSERT_TRUE(snapshot.ok());
      for (const BrokerEvent& event : BrokerEventsOf(*snapshot)) {
        ASSERT_FALSE(event.granted);
      }
    }
  });
  for (auto& t : writers) {
    t.join();
  }
  reader.join();

  EXPECT_TRUE(broker.log().Verify());
  EXPECT_EQ(broker.log().size(), static_cast<size_t>(2 * kPerWriter));
  EXPECT_EQ(BrokerEventsOf(broker.log().Snapshot()).size(), static_cast<size_t>(2 * kPerWriter));
}

// Regression: AdmitRate mutated its window map with no lock, so concurrent
// HandleBatch calls for a throttled class raced. Eight threads, each a
// bound caller of its own ticket, share one broker and one admin's budget;
// exactly the budget is granted. Each batch resolves its caller through
// the kernel's process table and the bindings under broker.tickets. Only
// restart_service is sent (one locked audit append when granted), so
// nothing dispatches into the unsynchronized kernel. broker_test runs
// under TSan in CI.
TEST(BrokerRateLimitRaceTest, ConcurrentRequestsGrantExactlyTheBudget) {
  witos::Kernel kernel("host");
  witos::Pid pid = *kernel.Clone(1, "PermissionBroker", 0);
  PolicyManager policy;
  ClassPolicy throttled;
  throttled.allowed_verbs = {kVerbRestartService};
  throttled.max_requests_per_window = 50;
  throttled.window_ns = 3600ull * 1000000000ull;
  policy.SetPolicy("T-RL", throttled);
  RpcChannel channel;
  PermissionBroker broker(&kernel, pid, &policy, &channel);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 20;
  witos::Pid callers[kThreads];
  for (int t = 0; t < kThreads; ++t) {
    callers[t] = BoundCaller(&kernel, &broker, "TKT-RL-" + std::to_string(t), "T-RL");
  }
  std::atomic<int> granted{0};
  std::vector<std::thread> senders;
  for (int t = 0; t < kThreads; ++t) {
    senders.emplace_back([&, t] {
      RpcBatchRequest batch = OneOp(kVerbRestartService);
      batch.ops[0].args = {"sshd"};
      for (int i = 0; i < kPerThread; ++i) {
        if (broker.HandleBatch(callers[t], batch).responses[0].ok) {
          granted.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& sender : senders) {
    sender.join();
  }
  EXPECT_EQ(granted.load(), 50);
  size_t granted_events = 0;
  for (const BrokerEvent& event : BrokerEventsOf(kernel.audit().Snapshot())) {
    granted_events += event.granted ? 1 : 0;
  }
  EXPECT_EQ(granted_events, 50u);
  EXPECT_TRUE(broker.log().Verify());
}

TEST(AnomalyTest, UnusualVerbFlagged) {
  std::vector<BrokerEvent> history;
  for (int i = 0; i < 200; ++i) {
    history.push_back({static_cast<uint64_t>(i) * uint64_t{1000000000}, "alice", "T", "T-1",
                       "ps", {}, true});
  }
  AnomalyDetector detector;
  detector.Fit(history);
  BrokerEvent usual{500, "alice", "T", "T-1", "ps", {}, true};
  BrokerEvent weird{501, "alice", "T", "T-8", "read_file", {"/etc/shadow"}, true};
  EXPECT_LT(detector.Surprise(usual), detector.Surprise(weird));
  auto scores = detector.Analyze({usual, weird});
  EXPECT_FALSE(scores[0].flagged);
  EXPECT_TRUE(scores[1].flagged);
}

TEST(AnomalyTest, RateBurstFlagged) {
  std::vector<BrokerEvent> history;
  AnomalyDetector::Options options;
  options.surprise_threshold = 100.0;  // disable the categorical detector
  AnomalyDetector detector(options);
  // One request per minute for an hour, then 50 in one minute.
  std::vector<BrokerEvent> stream;
  for (int i = 0; i < 60; ++i) {
    stream.push_back({static_cast<uint64_t>(i) * uint64_t{60000000000}, "bob", "T", "T-1",
                      "ps", {}, true});
  }
  for (int i = 0; i < 50; ++i) {
    stream.push_back({uint64_t{61} * uint64_t{60000000000} + static_cast<uint64_t>(i), "bob", "T", "T-1",
                      "read_file", {}, true});
  }
  detector.Fit(stream);
  auto scores = detector.Analyze(stream);
  size_t flagged = 0;
  for (size_t i = 0; i < 60; ++i) {
    EXPECT_FALSE(scores[i].flagged);
  }
  for (size_t i = 60; i < scores.size(); ++i) {
    flagged += scores[i].flagged ? 1u : 0u;
  }
  EXPECT_EQ(flagged, 50u);
}

}  // namespace
}  // namespace witbroker
