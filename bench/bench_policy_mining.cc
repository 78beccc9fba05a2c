// Policy mining quality: false-block rate vs. privilege reduction.
//
// Trains the witmine pipeline on one seeded workload, then measures on a
// disjoint held-out workload:
//
//   * false-block rate — held-out operations the mined policy would deny
//     (the cost of tightening; must stay under 1%);
//   * privilege reduction — how much smaller the mined surface is than the
//     hand-written Table 3 / Table 4 configuration;
//   * shadow divergences — mined policy evaluated beside the enforcing
//     broker policy on live request traffic. would_block divergences are
//     the candidate reduction; would_allow divergences (mined looser than
//     hand-written) are unexplained and gate CI at zero;
//   * off-profile probes — credential reads, WatchIT-binary access and
//     document writes must all be denied;
//   * an ROC-style sweep of max_prefix_depth (tighter prefixes = more
//     reduction, more false-block risk);
//   * the anomaly -> tighten loop: a poisoned ticket widens generation 1,
//     the detector flags it, generation 2 shrinks back;
//   * a page-cache eviction sweep (PageCache::set_capacity on a live
//     cache) for the capacity/hit-rate trade-off.

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench/json_out.h"
#include "src/broker/anomaly.h"
#include "src/broker/broker.h"
#include "src/core/ticket_class.h"
#include "src/mine/miner.h"
#include "src/mine/trace.h"
#include "src/os/pagecache.h"
#include "src/workload/ticket_gen.h"

namespace {

using witmine::ClassSurface;
using witmine::MinedPolicySet;
using witmine::PolicyMiner;
using witmine::TraceRecorder;

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

struct FalseBlocks {
  uint64_t total = 0;
  uint64_t blocked = 0;
  double rate() const {
    return total == 0 ? 0.0 : static_cast<double>(blocked) / static_cast<double>(total);
  }
};

// Replays every held-out operation against the mined policy set: path ops
// through the compiled ITFS policy, verbs and endpoints against the mined
// broker grants.
FalseBlocks MeasureFalseBlocks(const MinedPolicySet& set, const TraceRecorder& heldout) {
  FalseBlocks fb;
  for (const auto& [cls, trace] : heldout.Merged()) {
    auto it = set.classes.find(cls);
    if (it == set.classes.end() || it->second.compiled == nullptr) {
      fb.total += trace.ops;
      fb.blocked += trace.ops;
      continue;
    }
    const witmine::MinedClassPolicy& mined = it->second;
    for (const auto& [path, stats] : trace.paths) {
      if (stats.reads > 0) {
        fb.total += stats.reads;
        if (mined.compiled->Evaluate(witfs::ItfsOpKind::kRead, path, "").deny) {
          fb.blocked += stats.reads;
        }
      }
      if (stats.writes > 0) {
        fb.total += stats.writes;
        if (mined.compiled->Evaluate(witfs::ItfsOpKind::kWrite, path, "").deny) {
          fb.blocked += stats.writes;
        }
      }
    }
    for (const auto& [verb, count] : trace.verbs) {
      fb.total += count;
      if (mined.verbs.count(verb) == 0) {
        fb.blocked += count;
      }
    }
    for (const auto& [endpoint, count] : trace.endpoints) {
      fb.total += count;
      bool known = false;
      for (const std::string& known_ep : mined.endpoints) {
        if (known_ep == endpoint) {
          known = true;
          break;
        }
      }
      if (!known) {
        fb.blocked += count;
      }
    }
  }
  return fb;
}

struct Reduction {
  size_t hand = 0;
  size_t mined = 0;
  double fraction() const {
    return hand == 0 ? 0.0 : 1.0 - static_cast<double>(mined) / static_cast<double>(hand);
  }
};

Reduction MeasureReduction(const MinedPolicySet& set, const witbroker::PolicyManager& policy) {
  Reduction r;
  for (int i = 1; i <= witload::kNumTicketClasses; ++i) {
    const std::string cls = witload::TicketClassName(i);
    witcontain::PerforatedContainerSpec spec = watchit::SpecForTicketClass(i);
    r.hand += witmine::HandWrittenSurface(spec, policy.FindPolicy(cls)).total();
    auto it = set.classes.find(cls);
    if (it != set.classes.end()) {
      r.mined += witmine::MinedSurface(it->second, spec).total();
    }
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = benchjson::ConsumeJsonFlag(&argc, argv);
  std::printf("=== witmine: mined least-privilege policies vs. Table 3 ===\n\n");

  // --- train + mine ---------------------------------------------------------
  const int kTrainPerClass = 300;
  const int kHeldoutPerClass = 300;
  TraceRecorder train = RecordWorkload(7, kTrainPerClass);
  TraceRecorder heldout = RecordWorkload(1234, kHeldoutPerClass);
  PolicyMiner miner;
  MinedPolicySet set = miner.Mine(train);
  std::printf("trained on %llu tickets across %zu classes\n",
              static_cast<unsigned long long>(set.tickets_seen), set.classes.size());

  // --- false-block rate on the held-out workload ----------------------------
  FalseBlocks fb = MeasureFalseBlocks(set, heldout);
  std::printf("held-out false blocks: %llu / %llu ops (%.4f%%)\n",
              static_cast<unsigned long long>(fb.blocked),
              static_cast<unsigned long long>(fb.total), 100.0 * fb.rate());

  // --- privilege reduction --------------------------------------------------
  witbroker::PolicyManager policy;
  watchit::ConfigureBrokerPolicies(&policy);
  std::printf("\n%6s %16s %16s\n", "class", "hand (p/v/e/m)", "mined (p/v/e/m)");
  for (int i = 1; i <= witload::kNumTicketClasses; ++i) {
    const std::string cls = witload::TicketClassName(i);
    witcontain::PerforatedContainerSpec spec = watchit::SpecForTicketClass(i);
    ClassSurface hand = witmine::HandWrittenSurface(spec, policy.FindPolicy(cls));
    auto it = set.classes.find(cls);
    ClassSurface mined;
    if (it != set.classes.end()) {
      mined = witmine::MinedSurface(it->second, spec);
    }
    std::printf("%6s %6zu/%zu/%zu/%zu %10zu/%zu/%zu/%zu\n", cls.c_str(), hand.paths,
                hand.verbs, hand.endpoints, hand.process_mgmt, mined.paths, mined.verbs,
                mined.endpoints, mined.process_mgmt);
  }
  Reduction reduction = MeasureReduction(set, policy);
  std::printf("privilege surface: hand-written %zu units, mined %zu units "
              "(%.1f%% reduction)\n\n",
              reduction.hand, reduction.mined, 100.0 * reduction.fraction());

  // --- shadow divergences on live broker traffic ----------------------------
  // Every hand-granted verb of every class crosses the broker with the mined
  // shadow installed. Grants the miner reproduced agree; hand-only grants
  // (the documented survivors) show up as would_block — the candidate
  // reduction. would_allow would mean the miner granted something the
  // enforcing policy denies: always a bug, gated at zero.
  witos::Kernel kernel("bench-host");
  witos::Pid broker_pid = *kernel.Clone(1, "PermissionBroker", 0);
  witbroker::RpcChannel channel;
  witbroker::PermissionBroker broker(&kernel, broker_pid, &policy, &channel);
  witmine::InstallShadow(set, nullptr, &policy);
  uint64_t shadow_requests = 0;
  for (int i = 1; i <= witload::kNumTicketClasses; ++i) {
    const std::string cls = witload::TicketClassName(i);
    const std::string ticket = "TKT-" + std::to_string(i);
    // The ticket's shell: a root process alone in the cgroup it is bound to.
    const witos::Pid shell = *kernel.Clone(1, "bash", 0);
    const witos::CgroupId cgroup = kernel.cgroups().Create("session-" + ticket, 0);
    if (!kernel.AssignCgroup(shell, cgroup).ok() ||
        !broker.BindTicket(ticket, cls, "bench-admin", cgroup, /*expires_ns=*/UINT64_MAX).ok()) {
      continue;
    }
    const witbroker::ClassPolicy* hand = policy.FindPolicy(cls);
    if (hand == nullptr) {
      continue;
    }
    for (const std::string& verb : hand->allowed_verbs) {
      witbroker::RpcBatchRequest req;
      req.ops = {{verb, {}}};
      broker.HandleBatch(shell, req);
      ++shadow_requests;
    }
  }
  witobs::ShadowCounts shadow = broker.shadow_stats();
  uint64_t unexplained = shadow.would_allow;
  std::printf("shadow over %llu broker requests: %llu agree, %llu would-block "
              "(candidate reduction), %llu would-allow (unexplained)\n",
              static_cast<unsigned long long>(shadow_requests),
              static_cast<unsigned long long>(shadow.agree),
              static_cast<unsigned long long>(shadow.would_block),
              static_cast<unsigned long long>(unexplained));
  witmine::ClearShadow(nullptr, &policy);

  // --- off-profile probes ---------------------------------------------------
  struct Probe {
    witfs::ItfsOpKind op;
    const char* path;
  };
  const Probe kProbes[] = {
      {witfs::ItfsOpKind::kWrite, "/root/.ssh/authorized_keys"},
      {witfs::ItfsOpKind::kRead, "/usr/watchit/broker"},
      {witfs::ItfsOpKind::kWrite, "/etc/watchit/policy.conf"},
      {witfs::ItfsOpKind::kWrite, "/home/user/docs/plan.xlsx"},
      {witfs::ItfsOpKind::kRead, "/opt/secrets/backup.tar"},
  };
  uint64_t probes = 0;
  uint64_t probes_denied = 0;
  for (const auto& [cls, mined] : set.classes) {
    for (const Probe& probe : kProbes) {
      ++probes;
      if (mined.compiled != nullptr &&
          mined.compiled->Evaluate(probe.op, probe.path, "").deny) {
        ++probes_denied;
      }
    }
  }
  std::printf("off-profile probes denied: %llu / %llu\n\n",
              static_cast<unsigned long long>(probes_denied),
              static_cast<unsigned long long>(probes));

  // --- ROC-style sweep over prefix depth ------------------------------------
  std::printf("%6s %12s %14s %12s\n", "depth", "rules", "false-block", "reduction");
  benchjson::Array roc;
  for (size_t depth = 1; depth <= 4; ++depth) {
    witmine::MinerOptions options;
    options.max_prefix_depth = depth;
    PolicyMiner sweep_miner(options);
    MinedPolicySet sweep_set = sweep_miner.Mine(train);
    size_t rules = 0;
    for (const auto& [cls, mined] : sweep_set.classes) {
      rules += mined.rule_count;
    }
    FalseBlocks sweep_fb = MeasureFalseBlocks(sweep_set, heldout);
    Reduction sweep_red = MeasureReduction(sweep_set, policy);
    std::printf("%6zu %12zu %13.4f%% %11.1f%%\n", depth, rules, 100.0 * sweep_fb.rate(),
                100.0 * sweep_red.fraction());
    benchjson::Object point;
    point.Number("max_prefix_depth", static_cast<uint64_t>(depth))
        .Number("rules", static_cast<uint64_t>(rules))
        .Number("false_block_rate", sweep_fb.rate())
        .Number("privilege_reduction", sweep_red.fraction());
    roc.Add(point.Render());
  }

  // --- anomaly -> tighten: generation 2 shrinks back ------------------------
  TraceRecorder poisoned = RecordWorkload(7, kTrainPerClass);
  witload::RequiredOp exfil;
  exfil.kind = witload::OpKind::kWriteFile;
  exfil.path = "/home/user/exfil/stash";
  witload::RequiredOp probe_op;
  probe_op.kind = witload::OpKind::kReadFile;
  probe_op.path = "/etc/passwd";
  probe_op.beyond_view = true;
  poisoned.RecordOps("T-2", "TKT-EVIL", {exfil, probe_op});

  PolicyMiner tighten_miner;
  MinedPolicySet gen1 = tighten_miner.Mine(poisoned);
  size_t gen1_rules = gen1.classes.at("T-2").rule_count;

  // The campaign as the broker log sees it: a burst of off-profile requests
  // from one admin, against a benign fitted baseline.
  std::vector<witbroker::BrokerEvent> events;
  for (int i = 0; i < 40; ++i) {
    witbroker::BrokerEvent event;
    event.time_ns = static_cast<uint64_t>(i) * uint64_t{500000000};
    event.admin = "mallory";
    event.ticket_id = "TKT-EVIL";
    event.ticket_class = "T-2";
    event.verb = witbroker::kVerbReadFile;
    event.granted = true;
    events.push_back(event);
  }
  witbroker::AnomalyDetector detector;
  detector.Fit({});
  std::vector<witbroker::AnomalyScore> scores = detector.Analyze(events);
  size_t excluded = witmine::ExcludeFlaggedTickets(events, scores, &poisoned);
  MinedPolicySet gen2 = tighten_miner.Mine(poisoned);
  size_t gen2_rules = gen2.classes.at("T-2").rule_count;
  std::printf("\ntighten loop: generation 1 T-2 policy %zu rules (poisoned), "
              "%zu ticket(s) flagged+excluded, generation 2 %zu rules\n",
              gen1_rules, excluded, gen2_rules);

  // --- page-cache eviction sweep --------------------------------------------
  // A live cache resized downward must evict immediately and the hot working
  // set's hit rate degrades smoothly with capacity.
  constexpr uint64_t kBlock = witos::PageCache::kBlockSize;
  constexpr uint64_t kHotBlocks = 96;  // 12MB working set
  std::printf("\n%12s %10s %10s %12s\n", "capacity", "hit-rate", "evictions", "resident");
  benchjson::Array cache_sweep;
  witos::PageCache cache(64ull * 1024 * 1024);
  for (uint64_t capacity_mb : {64u, 32u, 16u, 8u, 4u}) {
    cache.set_capacity(capacity_mb * 1024 * 1024);
    uint64_t hits = 0;
    uint64_t lookups = 0;
    // Round 0 warms the cache at this capacity and is not measured, so
    // each row reflects steady state rather than the previous row's
    // leftovers.
    for (int round = 0; round < 21; ++round) {
      // The hot set, touched every round.
      for (uint64_t b = 0; b < kHotBlocks; ++b) {
        if (round > 0) {
          ++lookups;
        }
        if (cache.Lookup(nullptr, "/data/hot", b) != nullptr) {
          if (round > 0) {
            ++hits;
          }
        } else {
          cache.Insert(nullptr, "/data/hot", b, std::string(kBlock, 'h'));
        }
      }
      // A streaming scan that must age out instead of wiping the hot set.
      std::string stream_file = "/data/stream-" + std::to_string(round);
      for (uint64_t b = 0; b < 8; ++b) {
        cache.Insert(nullptr, stream_file, b, std::string(kBlock, 's'));
      }
    }
    double hit_rate = static_cast<double>(hits) / static_cast<double>(lookups);
    std::printf("%10lluMB %9.1f%% %10llu %10lluMB\n",
                static_cast<unsigned long long>(capacity_mb), 100.0 * hit_rate,
                static_cast<unsigned long long>(cache.evictions()),
                static_cast<unsigned long long>(cache.bytes() / (1024 * 1024)));
    benchjson::Object point;
    point.Number("capacity_mb", capacity_mb)
        .Number("hit_rate", hit_rate)
        .Number("evictions", cache.evictions())
        .Number("resident_bytes", cache.bytes());
    cache_sweep.Add(point.Render());
  }

  bool pass = fb.rate() <= 0.01 && reduction.fraction() >= 0.30 && unexplained == 0;
  std::printf("\nheadline: false-block %.4f%% (gate <= 1%%), privilege reduction "
              "%.1f%% (gate >= 30%%), unexplained divergences %llu (gate 0) -> %s\n",
              100.0 * fb.rate(), 100.0 * reduction.fraction(),
              static_cast<unsigned long long>(unexplained), pass ? "PASS" : "FAIL");

  if (!json_path.empty()) {
    benchjson::Object out;
    out.Str("bench", "policy_mining")
        .Number("host_cores",
                static_cast<uint64_t>(std::max(1u, std::thread::hardware_concurrency())))
        .Number("train_tickets", set.tickets_seen)
        .Number("heldout_ops", fb.total)
        .Number("false_block_rate", fb.rate())
        .Number("privilege_reduction", reduction.fraction())
        .Number("hand_surface", static_cast<uint64_t>(reduction.hand))
        .Number("mined_surface", static_cast<uint64_t>(reduction.mined))
        .Number("shadow_requests", shadow_requests)
        .Number("shadow_agree", shadow.agree)
        .Number("shadow_would_block", shadow.would_block)
        .Number("shadow_would_allow", shadow.would_allow)
        .Number("shadow_divergence_unexplained", unexplained)
        .Number("offprofile_probes", probes)
        .Number("offprofile_denied", probes_denied)
        .Number("tighten_gen1_rules", static_cast<uint64_t>(gen1_rules))
        .Number("tighten_excluded", static_cast<uint64_t>(excluded))
        .Number("tighten_gen2_rules", static_cast<uint64_t>(gen2_rules))
        .Add("roc", roc.Render())
        .Add("pagecache_sweep", cache_sweep.Render())
        .Boolean("pass", pass);
    benchjson::WriteFile(json_path, out.Render());
  }
  return pass ? 0 : 1;
}
