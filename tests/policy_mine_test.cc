// witmine coverage: miner determinism, mined-vs-hand-written differential,
// least-privilege broker regression, shadow-mode zero-verdict-change
// properties (ITFS and broker), and the anomaly -> tighten loop.

#include "src/mine/miner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/broker/broker.h"
#include "src/core/ticket_class.h"
#include "src/fs/itfs.h"
#include "src/mine/trace.h"
#include "src/os/memfs.h"
#include "src/workload/ticket_gen.h"
#include "src/workload/topology.h"

namespace witmine {
namespace {

// Deterministically records `per_class` tickets of every class.
TraceRecorder RecordWorkload(uint32_t seed, int per_class) {
  witload::TicketGenerator::Options opts;
  opts.seed = seed;
  opts.with_ops = true;
  witload::TicketGenerator gen(opts);
  TraceRecorder recorder;
  for (int cls = 1; cls <= witload::kNumTicketClasses; ++cls) {
    for (int i = 0; i < per_class; ++i) {
      recorder.RecordTicket(gen.Generate(cls));
    }
  }
  return recorder;
}

TEST(PolicyMinerTest, SameSeedSameTracesSamePolicy) {
  TraceRecorder a = RecordWorkload(77, 150);
  TraceRecorder b = RecordWorkload(77, 150);
  PolicyMiner miner_a;
  PolicyMiner miner_b;
  MinedPolicySet set_a = miner_a.Mine(a);
  MinedPolicySet set_b = miner_b.Mine(b);
  ASSERT_EQ(set_a.classes.size(), set_b.classes.size());
  for (const auto& [cls, mined] : set_a.classes) {
    auto it = set_b.classes.find(cls);
    ASSERT_NE(it, set_b.classes.end()) << cls;
    EXPECT_EQ(mined.dsl, it->second.dsl) << cls;
    EXPECT_EQ(mined.verbs, it->second.verbs) << cls;
    EXPECT_EQ(mined.prefixes, it->second.prefixes) << cls;
    EXPECT_EQ(mined.rule_count, it->second.rule_count) << cls;
  }
}

TEST(PolicyMinerTest, MinedPolicyCompilesCleanAndCoversObserved) {
  TraceRecorder recorder = RecordWorkload(7, 200);
  PolicyMiner miner;
  MinedPolicySet set = miner.Mine(recorder);
  std::map<std::string, ClassTrace> merged = recorder.Merged();
  ASSERT_EQ(set.classes.size(), merged.size());

  for (const auto& [cls, mined] : set.classes) {
    ASSERT_NE(mined.compiled, nullptr) << cls << " failed to compile:\n" << mined.dsl;
    // The emitted document must be warning-free: first-match layout bugs
    // (a deny shadowing a mined allow) surface here, not in production.
    auto reparsed = witfs::ParseItfsPolicy(mined.dsl);
    ASSERT_TRUE(reparsed.ok()) << cls;
    EXPECT_TRUE(reparsed.value().diagnostics.empty()) << cls << ":\n" << mined.dsl;

    // Everything the class was observed doing is allowed (zero false
    // blocks on the training trace itself).
    const ClassTrace& trace = merged.at(cls);
    for (const auto& [path, stats] : trace.paths) {
      if (stats.reads > 0) {
        witfs::PolicyDecision d = mined.compiled->Evaluate(witfs::ItfsOpKind::kRead, path, "");
        EXPECT_FALSE(d.deny) << cls << " read " << path << " blocked by " << d.rule;
      }
      if (stats.writes > 0) {
        witfs::PolicyDecision d = mined.compiled->Evaluate(witfs::ItfsOpKind::kWrite, path, "");
        EXPECT_FALSE(d.deny) << cls << " write " << path << " blocked by " << d.rule;
      }
    }

    // Off-profile and hard-constraint accesses are denied.
    EXPECT_TRUE(mined.compiled
                    ->Evaluate(witfs::ItfsOpKind::kWrite, "/root/.ssh/authorized_keys", "")
                    .deny)
        << cls;
    EXPECT_TRUE(
        mined.compiled->Evaluate(witfs::ItfsOpKind::kRead, "/usr/watchit/broker", "").deny)
        << cls;
  }
}

TEST(PolicyMinerTest, ExtensionClusteringMakesObservedReadOnlyExtensionsWriteOnly) {
  TraceRecorder recorder = RecordWorkload(7, 100);
  PolicyMiner miner;
  MinedPolicySet set = miner.Mine(recorder);
  // T-8 reads /var/lib/groups.db and never writes any .db file: the mined
  // policy keeps reads and denies mutations of that extension.
  const MinedClassPolicy& t8 = set.classes.at("T-8");
  ASSERT_NE(t8.compiled, nullptr);
  EXPECT_NE(std::find(t8.read_only_extensions.begin(), t8.read_only_extensions.end(), "db"),
            t8.read_only_extensions.end());
  EXPECT_FALSE(
      t8.compiled->Evaluate(witfs::ItfsOpKind::kRead, "/var/lib/groups.db", "").deny);
  EXPECT_TRUE(
      t8.compiled->Evaluate(witfs::ItfsOpKind::kWrite, "/var/lib/groups.db", "").deny);
}

// The differential the bugfix sweep is built on: mined privileges must be a
// subset of the hand-written Table 3 / Table 4 configuration (a mined verb
// the hand-written policy denies would mean shadow would-allow divergences),
// and every hand-written grant the miner does NOT reproduce must be on the
// documented-survivor list. Anything else is an over-grant.
TEST(PolicyMinerTest, HandWrittenGrantsBeyondMinedAreDocumentedSurvivors) {
  witbroker::PolicyManager policy;
  watchit::ConfigureBrokerPolicies(&policy);
  PolicyMiner miner;
  MinedPolicySet set = miner.Mine(RecordWorkload(11, 400));

  // Hand-written grants the workload never expresses, kept deliberately —
  // see the rationale in ConfigureBrokerPolicies.
  const std::map<std::string, std::set<std::string>> kSurvivors = {
      {"T-3", {witbroker::kVerbMountVolume}},
      {"T-5",
       {witbroker::kVerbPs, witbroker::kVerbKill, witbroker::kVerbReadFile,
        witbroker::kVerbRestartService}},
      {"T-6", {witbroker::kVerbInstall, witbroker::kVerbReadFile}},
      {"T-9", {witbroker::kVerbRestartService}},
      {"T-10", {witbroker::kVerbNetAllow, witbroker::kVerbMountVolume}},
      {"T-11", {witbroker::kVerbReboot}},
  };

  for (int i = 1; i <= witload::kNumTicketClasses; ++i) {
    const std::string cls = witload::TicketClassName(i);
    const witbroker::ClassPolicy* hand = policy.FindPolicy(cls);
    ASSERT_NE(hand, nullptr) << cls;
    EXPECT_FALSE(hand->allow_all) << cls;

    std::set<std::string> mined_verbs;
    auto it = set.classes.find(cls);
    if (it != set.classes.end()) {
      mined_verbs = it->second.verbs;
    }
    for (const std::string& verb : mined_verbs) {
      EXPECT_TRUE(hand->allowed_verbs.count(verb) > 0)
          << cls << " needs " << verb << " but the hand-written policy denies it";
    }
    auto survivors = kSurvivors.find(cls);
    for (const std::string& verb : hand->allowed_verbs) {
      if (mined_verbs.count(verb) > 0) {
        continue;
      }
      bool documented = survivors != kSurvivors.end() && survivors->second.count(verb) > 0;
      EXPECT_TRUE(documented) << cls << " grants " << verb
                              << " which no ticket used: undocumented over-grant";
    }
  }
}

// Regression for the over-grant the differential exposed: T-2 (forgotten
// password) held the full seven-verb "standard" set — it could kill host
// processes, install packages and mount volumes. Now it can only open the
// directory-server connection its tickets actually need.
TEST(BrokerPolicyTest, PasswordTicketsHoldOnlyDirectoryAccess) {
  witbroker::PolicyManager policy;
  watchit::ConfigureBrokerPolicies(&policy);
  EXPECT_TRUE(policy.IsAllowed("T-2", witbroker::kVerbNetAllow, "alice"));
  EXPECT_FALSE(policy.IsAllowed("T-2", witbroker::kVerbKill, "alice"));
  EXPECT_FALSE(policy.IsAllowed("T-2", witbroker::kVerbInstall, "alice"));
  EXPECT_FALSE(policy.IsAllowed("T-2", witbroker::kVerbMountVolume, "alice"));
  EXPECT_FALSE(policy.IsAllowed("T-2", witbroker::kVerbPs, "alice"));
  // T-4 shares NET and PID with the host and never crosses the broker.
  EXPECT_FALSE(policy.IsAllowed("T-4", witbroker::kVerbPs, "alice"));
  // The T-5 process-management set survives (threat-matrix pinned).
  EXPECT_TRUE(policy.IsAllowed("T-5", witbroker::kVerbKill, "alice"));
}

// Endpoint scoping: a mined broker policy grants net_allow only toward the
// endpoints its class was observed contacting (by name or by address);
// unscoped hand-written policies still reach everything.
TEST(BrokerPolicyTest, MinedNetAllowIsEndpointScoped) {
  PolicyMiner miner;
  MinedPolicySet set = miner.Mine(RecordWorkload(5, 200));
  const MinedClassPolicy& t2 = set.classes.at("T-2");
  ASSERT_FALSE(t2.endpoints.empty());
  witbroker::ClassPolicy mined_policy = t2.BrokerPolicy();
  ASSERT_FALSE(mined_policy.allowed_endpoints.empty());

  witbroker::PolicyManager policy;
  policy.SetPolicy("T-2", mined_policy);
  const std::string observed = t2.endpoints.front();
  EXPECT_TRUE(policy.IsAllowed("T-2", witbroker::kVerbNetAllow, "alice", observed));
  // The same endpoint by address (what a live escalation request carries).
  const witload::OrgEndpoint* known = witload::EndpointByName(observed);
  ASSERT_NE(known, nullptr) << observed;
  EXPECT_TRUE(
      policy.IsAllowed("T-2", witbroker::kVerbNetAllow, "alice", known->addr.ToString()));
  // An endpoint the class never contacted is out of scope.
  EXPECT_FALSE(
      policy.IsAllowed("T-2", witbroker::kVerbNetAllow, "alice", "production-db"));
  // Requests without an endpoint (and non-endpoint verbs) are unaffected.
  EXPECT_TRUE(policy.IsAllowed("T-2", witbroker::kVerbNetAllow, "alice"));

  // Hand-written policies are unscoped: any endpoint passes.
  witbroker::PolicyManager hand;
  watchit::ConfigureBrokerPolicies(&hand);
  EXPECT_TRUE(hand.IsAllowed("T-2", witbroker::kVerbNetAllow, "alice", "production-db"));
}

// Shadow mode property: installing a shadow policy changes NO ITFS verdict.
TEST(ShadowModeTest, ItfsVerdictsUnchangedUnderShadow) {
  auto make_lower = [] {
    auto lower = std::make_shared<witos::MemFs>();
    lower->ProvisionFile("/etc/passwd", "root:x:0:0\n");
    lower->ProvisionFile("/etc/shadow", "root:!:19000\n");
    lower->ProvisionFile("/home/user/.ssh/config", "Host *\n");
    lower->ProvisionFile("/home/photo.jpg", "\xFF\xD8\xFF\xE0jfif");
    return lower;
  };
  witos::Credentials admin;

  PolicyMiner miner;
  MinedPolicySet set = miner.Mine(RecordWorkload(5, 100));
  std::shared_ptr<const witfs::CompiledPolicy> shadow = set.classes.at("T-2").compiled;
  ASSERT_NE(shadow, nullptr);

  // The fixed op sequence the verdicts are compared over.
  auto run = [&admin](witfs::Itfs* itfs) {
    std::vector<int> verdicts;
    std::string buf;
    verdicts.push_back(static_cast<int>(itfs->ReadAt("/etc/passwd", 0, 64, &buf, admin).error()));
    verdicts.push_back(static_cast<int>(itfs->WriteAt("/etc/shadow", 0, "x", admin).error()));
    verdicts.push_back(
        static_cast<int>(itfs->Open("/home/user/.ssh/config", witos::kOpenRead, 0, admin).error()));
    verdicts.push_back(
        static_cast<int>(itfs->Open("/home/photo.jpg", witos::kOpenRead, 0, admin).error()));
    verdicts.push_back(static_cast<int>(itfs->GetAttr("/etc/passwd", admin).error()));
    verdicts.push_back(static_cast<int>(itfs->ReadDir("/etc", admin).error()));
    return verdicts;
  };

  witfs::ItfsPolicy hand;
  hand.AddRule(witfs::ItfsPolicy::DenyDocumentsRule());
  witfs::Itfs plain(make_lower(), hand, witos::Credentials{});
  std::vector<int> before = run(&plain);

  witos::AuditLog chain;
  witfs::Itfs shadowed(make_lower(), hand, witos::Credentials{}, nullptr, &chain);
  shadowed.SetShadowPolicy(shadow);
  std::vector<int> after = run(&shadowed);
  EXPECT_EQ(before, after) << "a shadow policy must never change a verdict";

  witobs::ShadowCounts stats = shadowed.shadow_stats();
  EXPECT_GT(stats.evaluated, 0u);
  EXPECT_EQ(stats.evaluated, stats.agree + stats.would_block + stats.would_allow);
  // T-2's mined profile has no /home surface: the .ssh/config open diverges.
  EXPECT_GT(stats.would_block, 0u);
  // Mined is a strict subset of the permissive hand policy here.
  EXPECT_EQ(stats.would_allow, 0u);
  // Each divergence is one chained session event.
  std::vector<witos::AuditRecord> divergences = chain.Filter(
      [](const witos::AuditRecord& r) { return r.event == witos::AuditEvent::kSessionEvent; });
  ASSERT_EQ(divergences.size(), stats.would_block);
  bool saw_config = false;
  for (const witos::AuditRecord& d : divergences) {
    EXPECT_EQ(d.detail.rfind("shadow-divergence ", 0), 0u) << d.detail;
    saw_config |= d.detail ==
                  "shadow-divergence open /home/user/.ssh/config would-block [mined-default-deny]";
  }
  EXPECT_TRUE(saw_config);
  EXPECT_TRUE(chain.Verify());

  // Installing, then clearing, on a live instance: verdicts stay put.
  plain.SetShadowPolicy(shadow);
  EXPECT_EQ(run(&plain), before);
  plain.SetShadowPolicy(nullptr);
  EXPECT_EQ(run(&plain), before);
}

// Shadow mode property: broker outcomes are identical with and without the
// mined shadow; the broker just counts the disagreements.
TEST(ShadowModeTest, BrokerOutcomesUnchangedUnderShadow) {
  witos::Kernel kernel("host");
  witos::Pid pid = *kernel.Clone(1, "PermissionBroker", 0);
  witbroker::PolicyManager policy;
  watchit::ConfigureBrokerPolicies(&policy);
  witbroker::RpcChannel channel;
  witbroker::PermissionBroker broker(&kernel, pid, &policy, &channel);
  // Each ticket's shell: a root process alone in the cgroup its ticket is
  // bound to.
  auto bound_shell = [&](const std::string& ticket, const std::string& cls) {
    const witos::Pid shell = *kernel.Clone(1, "bash", 0);
    const witos::CgroupId cgroup = kernel.cgroups().Create("session-" + ticket, 0);
    EXPECT_TRUE(kernel.AssignCgroup(shell, cgroup).ok());
    EXPECT_TRUE(broker.BindTicket(ticket, cls, "alice", cgroup, /*expires_ns=*/UINT64_MAX).ok());
    return shell;
  };
  const witos::Pid t5 = bound_shell("TKT-5", "T-5");
  const witos::Pid t2 = bound_shell("TKT-2", "T-2");

  const std::vector<std::pair<witos::Pid, std::string>> traffic = {
      {t5, witbroker::kVerbPs},
      {t5, witbroker::kVerbKill},
      {t2, witbroker::kVerbKill},     // denied by the enforcing policy
      {t2, witbroker::kVerbInstall},  // denied by the enforcing policy
  };

  auto run = [&] {
    std::vector<bool> outcomes;
    for (const auto& [caller, verb] : traffic) {
      witbroker::RpcBatchRequest req;
      req.ops = {{verb, {}}};
      outcomes.push_back(broker.HandleBatch(caller, req).responses.at(0).ok);
    }
    return outcomes;
  };
  std::vector<bool> before = run();

  PolicyMiner miner;
  MinedPolicySet set = miner.Mine(RecordWorkload(5, 100));
  InstallShadow(set, nullptr, &policy);
  std::vector<bool> after = run();
  EXPECT_EQ(before, after) << "a broker shadow policy must never change an outcome";

  witobs::ShadowCounts stats = broker.shadow_stats();
  EXPECT_EQ(stats.evaluated, traffic.size());
  // T-5's mined verbs don't include ps/kill (its workload handles processes
  // in-view): both grants diverge. T-2's denials agree.
  EXPECT_GE(stats.would_block, 2u);
  EXPECT_EQ(stats.would_allow, 0u);

  ClearShadow(nullptr, &policy);
  EXPECT_FALSE(policy.has_shadow());
  EXPECT_EQ(run(), before);
}

TEST(ShadowModeTest, InstallShadowWiresImageRepository) {
  witcontain::ImageRepository repo;
  watchit::RegisterAllImages(&repo);
  witbroker::PolicyManager policy;
  watchit::ConfigureBrokerPolicies(&policy);

  PolicyMiner miner;
  MinedPolicySet set = miner.Mine(RecordWorkload(5, 50));
  InstallShadow(set, &repo, &policy);
  for (const auto& [cls, mined] : set.classes) {
    auto spec = repo.Lookup(cls);
    ASSERT_TRUE(spec.ok()) << cls;
    EXPECT_EQ(spec->fs.shadow, mined.compiled) << cls;
  }
  // Script containers have no mined class: no shadow installed.
  auto script = repo.Lookup("S-1");
  ASSERT_TRUE(script.ok());
  EXPECT_EQ(script->fs.shadow, nullptr);

  ClearShadow(&repo, &policy);
  for (const std::string& cls : repo.Classes()) {
    EXPECT_EQ(repo.Lookup(cls)->fs.shadow, nullptr) << cls;
  }
}

// The tighten hook: excluding an anomaly-flagged ticket shrinks the next
// generation's policy back to the benign profile.
TEST(PolicyMinerTest, ExcludingFlaggedTicketTightensNextGeneration) {
  TraceRecorder recorder = RecordWorkload(13, 50);
  // A poisoned T-2 ticket drags /home/user and the read_file verb into the
  // profile.
  witload::RequiredOp exfil;
  exfil.kind = witload::OpKind::kWriteFile;
  exfil.path = "/home/user/exfil/stash";
  witload::RequiredOp probe;
  probe.kind = witload::OpKind::kReadFile;
  probe.path = "/etc/passwd";
  probe.beyond_view = true;
  recorder.RecordOps("T-2", "TKT-EVIL", {exfil, probe});

  PolicyMiner miner;
  MinedPolicySet gen1 = miner.Mine(recorder);
  const MinedClassPolicy& before = gen1.classes.at("T-2");
  EXPECT_EQ(gen1.generation, 1u);
  EXPECT_NE(std::find(before.prefixes.begin(), before.prefixes.end(), "/home/user"),
            before.prefixes.end());
  EXPECT_TRUE(before.verbs.count(witbroker::kVerbReadFile) > 0);

  // The anomaly detector flags the campaign; its ticket leaves the corpus.
  witbroker::BrokerEvent event;
  event.ticket_id = "TKT-EVIL";
  event.ticket_class = "T-2";
  event.admin = "mallory";
  event.verb = witbroker::kVerbReadFile;
  witbroker::AnomalyScore score;
  score.event_index = 0;
  score.flagged = true;
  EXPECT_EQ(ExcludeFlaggedTickets({event}, {score}, &recorder), 1u);
  EXPECT_EQ(ExcludeFlaggedTickets({event}, {score}, &recorder), 0u);  // idempotent

  MinedPolicySet gen2 = miner.Mine(recorder);
  const MinedClassPolicy& after = gen2.classes.at("T-2");
  EXPECT_EQ(gen2.generation, 2u);
  EXPECT_EQ(std::find(after.prefixes.begin(), after.prefixes.end(), "/home/user"),
            after.prefixes.end());
  EXPECT_FALSE(after.verbs.count(witbroker::kVerbReadFile) > 0);
  EXPECT_LT(after.rule_count, before.rule_count);
  EXPECT_EQ(gen2.tickets_excluded, 1u);
}

// Surface accounting sanity: the mined surface never exceeds the
// hand-written one on the benign workload (that would be a would-allow).
TEST(PolicyMinerTest, MinedSurfaceWithinHandWritten) {
  witbroker::PolicyManager policy;
  watchit::ConfigureBrokerPolicies(&policy);
  PolicyMiner miner;
  MinedPolicySet set = miner.Mine(RecordWorkload(11, 400));
  size_t hand_total = 0;
  size_t mined_total = 0;
  for (int i = 1; i <= witload::kNumTicketClasses; ++i) {
    const std::string cls = witload::TicketClassName(i);
    witcontain::PerforatedContainerSpec spec = watchit::SpecForTicketClass(i);
    ClassSurface hand = HandWrittenSurface(spec, policy.FindPolicy(cls));
    auto it = set.classes.find(cls);
    ASSERT_NE(it, set.classes.end()) << cls;
    ClassSurface mined = MinedSurface(it->second, spec);
    hand_total += hand.total();
    mined_total += mined.total();
  }
  EXPECT_LT(mined_total, hand_total);
}

}  // namespace
}  // namespace witmine
