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
  batch.uid = witos::kRootUid;
  batch.caller_pid = 42;
  batch.ticket_id = "TKT-20260805-00042";
  batch.admin = "admin03@it.example.org";
  batch.ops = {{"ps", {}}, {"kill", {"1042"}}, {"read_file", {"/var/log/syslog"}}};
  auto decoded = RpcBatchRequest::Deserialize(batch.Serialize());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->uid, batch.uid);
  EXPECT_EQ(decoded->caller_pid, batch.caller_pid);
  EXPECT_EQ(decoded->ticket_id, batch.ticket_id);
  EXPECT_EQ(decoded->admin, batch.admin);
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
  EXPECT_EQ(channel.CallBatch(batch).error(), witos::Err::kConnRefused);
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

class BrokerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    broker_pid_ = *kernel_.Clone(1, "PermissionBroker", 0);
    ClassPolicy standard;
    standard.allowed_verbs = {kVerbPs, kVerbKill, kVerbReadFile, kVerbInstall,
                              kVerbRestartService};
    policy_.SetPolicy("T-1", standard);
    broker_ = std::make_unique<PermissionBroker>(&kernel_, broker_pid_, &policy_, &channel_);
    (void)broker_->BindTicket("TKT-1", "T-1");
    client_ = std::make_unique<BrokerClient>(&channel_, "TKT-1", "alice");
  }

  // The broker requests in the host's evidence chain, decoded.
  std::vector<BrokerEvent> Events() const { return BrokerEventsOf(kernel_.audit().Snapshot()); }

  witos::Kernel kernel_{"host"};
  witos::Pid broker_pid_ = witos::kNoPid;
  PolicyManager policy_;
  RpcChannel channel_;
  std::unique_ptr<PermissionBroker> broker_;
  std::unique_ptr<BrokerClient> client_;
};

TEST_F(BrokerTest, PsShowsHostProcesses) {
  auto out = client_->Request(kVerbPs, {}, witos::kRootUid);
  ASSERT_TRUE(out.ok());
  EXPECT_NE(out->find("init"), std::string::npos);
  EXPECT_NE(out->find("PermissionBroker"), std::string::npos);
}

TEST_F(BrokerTest, UnprivilegedClientRejectedLocally) {
  auto out = client_->Request(kVerbPs, {}, /*uid=*/1000);
  EXPECT_EQ(out.error(), witos::Err::kPerm);
  // The request never reached the broker.
  EXPECT_TRUE(Events().empty());
}

TEST_F(BrokerTest, DisallowedVerbDeniedAndLogged) {
  auto out = client_->Request(kVerbReboot, {}, witos::kRootUid);
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
  ASSERT_TRUE(client_->Request(kVerbPs, {}, witos::kRootUid).ok());
  ASSERT_TRUE(client_->Request(kVerbRestartService, {"sshd"}, witos::kRootUid).ok());
  // Two broker records, plus the session record restart_service writes.
  EXPECT_EQ(broker_->log().size(), 3u);
  EXPECT_TRUE(broker_->log().Verify());
  EXPECT_EQ(kernel_.audit().CountEvent(witos::AuditEvent::kBrokerRequest), 2u);
}

TEST_F(BrokerTest, KillExecutesOnBehalf) {
  witos::Pid victim = *kernel_.Clone(1, "runaway", 0);
  auto out = client_->Request(kVerbKill, {std::to_string(victim)}, witos::kRootUid);
  ASSERT_TRUE(out.ok());
  EXPECT_FALSE(kernel_.ProcessAlive(victim));
}

TEST_F(BrokerTest, ReadFileExecutesWithHostView) {
  ASSERT_TRUE(kernel_.WriteFile(1, "/etc/motd", "host motd").ok());
  auto out = client_->Request(kVerbReadFile, {"/etc/motd"}, witos::kRootUid);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, "host motd");
}

TEST_F(BrokerTest, InstallWritesPackage) {
  ASSERT_TRUE(kernel_.MkDir(1, "/usr/progs").ok());
  auto out = client_->Request(kVerbInstall, {"toolbox"}, witos::kRootUid);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(kernel_.ReadFile(1, "/usr/progs/toolbox").ok());
}

TEST_F(BrokerTest, UnknownVerbIsNoSys) {
  ClassPolicy open;
  open.allow_all = true;
  policy_.SetPolicy("T-1", open);
  auto out = client_->Request("frobnicate", {}, witos::kRootUid);
  ASSERT_FALSE(out.ok());
  // Typed end-to-end: ENOSYS crosses the wire as an enum, not a string.
  EXPECT_EQ(out.error(), witos::Err::kNoSys);
}

TEST_F(BrokerTest, KillOfMissingProcessIsTypedSrch) {
  auto out = client_->Request(kVerbKill, {"99999"}, witos::kRootUid);
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
  auto out = client_->Request("custom", {"arg"}, witos::kRootUid);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, "custom:arg");
}

TEST_F(BrokerTest, PipelinedBatchAuditsEveryOp) {
  // Three queued ops ride one batch: two granted, one denied by policy.
  client_->Begin(witos::kRootUid);
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
  client_->Begin(witos::kRootUid);
  client_->Queue(kVerbPs, {});
  client_->Queue(kVerbReboot, {});
  auto batched = client_->Flush();
  size_t log_after_batch = broker_->log().size();

  auto seq_ps = client_->Request(kVerbPs, {}, witos::kRootUid);
  auto seq_reboot = client_->Request(kVerbReboot, {}, witos::kRootUid);
  ASSERT_EQ(batched.size(), 2u);
  EXPECT_EQ(batched[0].ok(), seq_ps.ok());
  EXPECT_EQ(*batched[0], *seq_ps);
  EXPECT_EQ(batched[1].ok(), seq_reboot.ok());
  EXPECT_EQ(batched[1].error(), seq_reboot.error());
  EXPECT_EQ(broker_->log().size(), log_after_batch * 2);
  EXPECT_TRUE(broker_->log().Verify());
}

TEST_F(BrokerTest, UnprivilegedBatchRejectedLocally) {
  client_->Begin(/*uid=*/1000);
  client_->Queue(kVerbPs, {});
  client_->Queue(kVerbKill, {"7"});
  auto results = client_->Flush();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].error(), witos::Err::kPerm);
  EXPECT_EQ(results[1].error(), witos::Err::kPerm);
  // Nothing crossed the wire and nothing reached the broker.
  EXPECT_EQ(channel_.frames(), 0u);
  EXPECT_TRUE(Events().empty());
  EXPECT_EQ(broker_->log().size(), 0u);
}

TEST_F(BrokerTest, EmptyFlushIsFree) {
  client_->Begin(witos::kRootUid);
  auto results = client_->Flush();
  EXPECT_TRUE(results.empty());
  EXPECT_EQ(channel_.frames(), 0u);
}

TEST_F(BrokerTest, RequestLeavesOpenPipelineIntact) {
  // A one-shot Request between Queue and Flush rides its own batch of one;
  // the queued op, its uid and its position survive untouched.
  client_->Begin(witos::kRootUid);
  size_t i_restart = client_->Queue(kVerbRestartService, {"sshd"});
  auto denied = client_->Request(kVerbReboot, {}, witos::kRootUid);
  EXPECT_EQ(denied.error(), witos::Err::kPerm);
  auto unprivileged = client_->Request(kVerbPs, {}, /*uid=*/1000);
  EXPECT_EQ(unprivileged.error(), witos::Err::kPerm);
  EXPECT_EQ(client_->pending(), 1u);

  auto results = client_->Flush();
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[i_restart].ok());
  EXPECT_EQ(*results[i_restart], "restarted sshd");
  auto events = Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].verb, kVerbReboot);
  EXPECT_EQ(events[1].verb, kVerbRestartService);
  EXPECT_TRUE(events[1].granted);
  EXPECT_EQ(channel_.calls(), 2u);
}

TEST_F(BrokerTest, DispatchLatencySampledPerGrantedDispatch) {
  witobs::MetricsRegistry registry;
  broker_->EnableMetrics(&registry);
  const witobs::Histogram* dispatch =
      registry.FindHistogram("watchit_broker_dispatch_latency_ns");
  ASSERT_NE(dispatch, nullptr);

  client_->Begin(witos::kRootUid);
  client_->Queue(kVerbPs, {});
  client_->Queue(kVerbDriverUpdate, {"rootkit"});  // not in T-1's verb set
  client_->Queue(kVerbPs, {});
  (void)client_->Flush();
  const uint64_t after_mixed = dispatch->Count();
  EXPECT_EQ(after_mixed, 2u);  // one sample per granted dispatch

  client_->Begin(witos::kRootUid);
  client_->Queue(kVerbReboot, {});
  client_->Queue(kVerbDriverUpdate, {"rootkit"});
  (void)client_->Flush();
  EXPECT_EQ(dispatch->Count() - after_mixed, 0u);  // nothing dispatched, nothing sampled
}

TEST_F(BrokerTest, BeginDiscardsAbandonedPipeline) {
  client_->Begin(witos::kRootUid);
  client_->Queue(kVerbReboot, {});
  client_->Begin(witos::kRootUid);
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
RpcBatchRequest OneOp(const std::string& ticket, const std::string& verb) {
  RpcBatchRequest batch;
  batch.uid = witos::kRootUid;
  batch.ticket_id = ticket;
  batch.admin = "alice";
  batch.ops = {{verb, {}}};
  return batch;
}

TEST_F(BrokerTest, BindRejectsDuplicatesAndUnbindReleases) {
  for (int i = 0; i < 12; ++i) {
    std::string ticket = "TKT-B" + std::to_string(i);
    ASSERT_TRUE(broker_->BindTicket(ticket, "T-1").ok());
    EXPECT_TRUE(broker_->IsTicketBound(ticket));
  }
  EXPECT_EQ(broker_->bound_ticket_count(), 13u);  // plus the fixture's TKT-1
  // A duplicate deploy must not silently reclassify a live ticket.
  EXPECT_EQ(broker_->BindTicket("TKT-B3", "T-8").error(), witos::Err::kExist);

  for (int i = 0; i < 12; ++i) {
    auto response = broker_->HandleBatch(OneOp("TKT-B" + std::to_string(i), kVerbPs));
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
  }
  EXPECT_TRUE(broker_->log().Verify());

  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(broker_->UnbindTicket("TKT-B" + std::to_string(i)).ok());
  }
  EXPECT_EQ(broker_->bound_ticket_count(), 1u);
  EXPECT_EQ(broker_->UnbindTicket("TKT-B0").error(), witos::Err::kSrch);
}

TEST_F(BrokerTest, BatchLogsEveryOpInQueueOrder) {
  RpcBatchRequest batch;
  batch.uid = witos::kRootUid;
  batch.ticket_id = "TKT-1";
  batch.admin = "alice";
  for (int i = 0; i < 5; ++i) {
    RpcSubRequest op;
    op.method = kVerbRestartService;
    op.args = {"svc-" + std::to_string(i)};
    batch.ops.push_back(op);
  }
  auto response = broker_->HandleBatch(batch);
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

// Two writer threads drive batches while a reader takes verified
// snapshots and decodes them, as the forensic reporter does against a
// serving machine. broker_test runs under TSan in CI.
TEST(BrokerEvidenceRaceTest, ReadersDuringTrafficAreRaceFree) {
  witos::Kernel kernel("host");
  witos::Pid pid = *kernel.Clone(1, "PermissionBroker", 0);
  PolicyManager policy;  // no rate limit → HandleBatch never mutates policy state
  RpcChannel channel;
  PermissionBroker broker(&kernel, pid, &policy, &channel);

  constexpr int kPerWriter = 1500;
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&, w] {
      // Denied: one chained record, no dispatch.
      const RpcBatchRequest batch = OneOp("TKT-" + std::to_string(w), kVerbReboot);
      for (int i = 0; i < kPerWriter; ++i) {
        broker.HandleBatch(batch);
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
// HandleBatch calls for a throttled class raced. Eight threads share one
// broker and one admin's budget; exactly the budget is granted.
// Only restart_service is sent (one locked audit append when granted), so
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
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(broker.BindTicket("TKT-RL-" + std::to_string(t), "T-RL").ok());
  }
  std::atomic<int> granted{0};
  std::vector<std::thread> senders;
  for (int t = 0; t < kThreads; ++t) {
    senders.emplace_back([&, t] {
      RpcBatchRequest batch = OneOp("TKT-RL-" + std::to_string(t), kVerbRestartService);
      batch.ops[0].args = {"sshd"};
      for (int i = 0; i < kPerThread; ++i) {
        if (broker.HandleBatch(batch).responses[0].ok) {
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
