// Crash-recovery bench (ISSUE: witjournal write-ahead journal + recovery).
//
// Four sections:
//   1. Journal overhead — the same deploy + evidence traffic driven twice,
//      with and without a DurabilityManager attached (per-record fsync
//      barriers), reporting the wall-time overhead of journaling.
//   2. Crash + recovery — SimulateCrash() on the journaled pool, then
//      Recover() into a fresh cluster; headline numbers are the recovery
//      wall time and records replayed per second, plus a zero-leak audit
//      (bound tickets, live sessions, unrevoked certs) on the recovered pool.
//   3. Checkpoint vs full replay — the same workload recovered once from the
//      raw journal and once after a Checkpoint() compacted it, showing the
//      replay-work reduction.
//   4. Crash-point sweep — witcrash::CrashHarness across every deploy stage
//      × {shard-kill, pool-kill}; every run must recover with a clean audit.
//
// Exits nonzero on any leak or audit failure — CI gates on this.
// `--json PATH` writes the headline numbers (BENCH_crash_recovery.json).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/json_out.h"
#include "src/core/cluster.h"
#include "src/durability/crash.h"
#include "src/durability/durability.h"
#include "src/durability/journal.h"
#include "src/obs/metrics.h"
#include "src/os/memfs.h"

namespace {

struct BenchConfig {
  size_t machines = 8;
  size_t deploys = 256;
  size_t log_appends = 512;  // per machine
  size_t epoch_interval = 128;
  size_t tail_deploys = 32;  // post-checkpoint traffic in section 3
};

watchit::Ticket MakeTicket(const std::string& id, const std::string& machine) {
  watchit::Ticket ticket;
  ticket.id = id;
  ticket.target_machine = machine;
  ticket.assigned_class = "T-1";
  ticket.admin = "alice";
  return ticket;
}

std::unique_ptr<watchit::Cluster> MakeCluster(size_t machines) {
  auto cluster = std::make_unique<watchit::Cluster>();
  for (size_t i = 0; i < machines; ++i) {
    char name[32];
    std::snprintf(name, sizeof(name), "host%02zu", i);
    cluster->AddMachine(name, witnet::Ipv4Addr(10, 0, 5, static_cast<uint8_t>(10 + i)));
  }
  return cluster;
}

// Deploys round-robin (every second one expired immediately), then bulk
// broker-record appends to each machine's chain with periodic epoch
// seals. Identical for the journaled and bare runs so the overhead
// comparison is apples-to-apples.
void DriveTraffic(watchit::Cluster* cluster, const BenchConfig& config,
                  const std::string& id_prefix, size_t deploys) {
  watchit::ClusterManager cm(cluster);
  for (size_t i = 0; i < deploys; ++i) {
    char name[32];
    std::snprintf(name, sizeof(name), "host%02zu", i % config.machines);
    auto deployment = cm.Deploy(MakeTicket(id_prefix + std::to_string(i), name));
    if (deployment.ok() && i % 2 == 1) {
      (void)cm.Expire(&*deployment);
    }
  }
  for (size_t m = 0; m < cluster->size(); ++m) {
    witos::AuditLog& log = cluster->machine(m).kernel().audit();
    for (size_t i = 0; i < config.log_appends; ++i) {
      log.Append(witos::AuditEvent::kBrokerRequest, witos::kNoPid, 0,
                 "pb-op-" + std::to_string(i), 1'000'000 + i);
      if ((i + 1) % config.epoch_interval == 0) {
        (void)log.SealEpoch(2'000'000 + i);
      }
    }
  }
}

struct LeakAudit {
  uint64_t bound_tickets = 0;
  uint64_t live_sessions = 0;
  uint64_t unrevoked_certs = 0;
  uint64_t audit_failures = 0;
  uint64_t Total() const { return bound_tickets + live_sessions + unrevoked_certs; }
};

LeakAudit Audit(watchit::Cluster* cluster) {
  LeakAudit audit;
  for (size_t i = 0; i < cluster->size(); ++i) {
    audit.bound_tickets += cluster->machine(i).broker().bound_ticket_count();
    audit.live_sessions += cluster->machine(i).containit().active_sessions();
  }
  audit.unrevoked_certs = cluster->ca().issued_count() - cluster->ca().revoked_count();
  audit.audit_failures = cluster->VerifyAuditTrail().failures;
  return audit;
}

std::string LeaksJson(const LeakAudit& audit) {
  benchjson::Object obj;
  obj.Number("bound_tickets", audit.bound_tickets);
  obj.Number("live_sessions", audit.live_sessions);
  obj.Number("unrevoked_certs", audit.unrevoked_certs);
  obj.Number("audit_failures", audit.audit_failures);
  return obj.Render();
}

std::string RecoveryJson(const witdur::RecoveryReport& report) {
  benchjson::Object obj;
  obj.Number("wall_ms", static_cast<double>(report.recovery_wall_ns) / 1e6);
  obj.Number("records_replayed", report.records_replayed);
  obj.Number("records_replayed_per_sec", report.ReplayRecordsPerSec());
  obj.Number("checkpoint_records", report.checkpoint_records);
  obj.Number("tail_records", report.tail_records);
  obj.Number("certs_revoked_at_recovery", report.certs_revoked_at_recovery);
  obj.Number("replay_errors", report.replay_errors);
  obj.Boolean("epoch_roots_verified", report.epoch_roots_verified);
  obj.Boolean("journal_tail_clean", report.journal_tail_clean);
  return obj.Render();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = benchjson::ConsumeJsonFlag(&argc, argv);
  BenchConfig config;
  for (int i = 1; i < argc; ++i) {
    auto next = [&](size_t* out) {
      if (i + 1 < argc) {
        *out = static_cast<size_t>(std::strtoull(argv[++i], nullptr, 10));
      }
    };
    if (std::strcmp(argv[i], "--machines") == 0) {
      next(&config.machines);
    } else if (std::strcmp(argv[i], "--deploys") == 0) {
      next(&config.deploys);
    } else if (std::strcmp(argv[i], "--log-appends") == 0) {
      next(&config.log_appends);
    }
  }

  const size_t host_cores = std::max(1u, std::thread::hardware_concurrency());
  std::printf("=== crash recovery: %zu machines, %zu deploys, %zu log appends/machine, "
              "%zu host cores ===\n",
              config.machines, config.deploys, config.log_appends, host_cores);

  // --- 1. journal overhead ---------------------------------------------------
  uint64_t bare_wall_ns = 0;
  {
    auto cluster = MakeCluster(config.machines);
    const uint64_t start = witobs::MonotonicNowNs();
    DriveTraffic(cluster.get(), config, "TKT-", config.deploys);
    bare_wall_ns = witobs::MonotonicNowNs() - start;
  }

  auto fs = std::make_shared<witos::MemFs>();
  uint64_t journaled_wall_ns = 0;
  uint64_t journal_records = 0;
  uint64_t journal_bytes = 0;
  {
    auto cluster = MakeCluster(config.machines);
    witdur::DurabilityManager manager(fs);
    manager.Attach(cluster.get());
    const uint64_t start = witobs::MonotonicNowNs();
    DriveTraffic(cluster.get(), config, "TKT-", config.deploys);
    journaled_wall_ns = witobs::MonotonicNowNs() - start;
    journal_records = manager.journal().records_appended();
    journal_bytes = manager.journal().bytes_appended();
    if (!manager.SimulateCrash().ok()) {
      std::fprintf(stderr, "SimulateCrash failed\n");
      return 1;
    }
  }
  const double overhead =
      bare_wall_ns == 0 ? 0.0
                        : static_cast<double>(journaled_wall_ns) /
                              static_cast<double>(bare_wall_ns);
  std::printf("\n--- journal overhead (per-record fsync barrier) ---\n");
  std::printf("%-14s %12s\n", "run", "wall ms");
  std::printf("%-14s %12.1f\n", "bare", static_cast<double>(bare_wall_ns) / 1e6);
  std::printf("%-14s %12.1f\n", "journaled", static_cast<double>(journaled_wall_ns) / 1e6);
  std::printf("overhead: %.2fx  (%llu records, %.1f KiB journal)\n", overhead,
              static_cast<unsigned long long>(journal_records),
              static_cast<double>(journal_bytes) / 1024.0);

  // --- 2. crash + full-journal recovery --------------------------------------
  auto recovered = MakeCluster(config.machines);
  witobs::MetricsRegistry registry;
  witdur::DurabilityManager recovery_manager(fs);
  recovery_manager.EnableMetrics(&registry);
  auto report = recovery_manager.Recover(recovered.get());
  if (!report.ok()) {
    std::fprintf(stderr, "Recover() failed: %s\n", witos::ErrName(report.error()).c_str());
    return 1;
  }
  LeakAudit post_recovery = Audit(recovered.get());
  std::printf("\n--- crash + recovery (full journal replay) ---\n");
  std::printf("recovery wall: %.2f ms, %llu records replayed (%.0f records/s)\n",
              static_cast<double>(report->recovery_wall_ns) / 1e6,
              static_cast<unsigned long long>(report->records_replayed),
              report->ReplayRecordsPerSec());
  std::printf("certs revoked at recovery=%llu replay errors=%llu\n",
              static_cast<unsigned long long>(report->certs_revoked_at_recovery),
              static_cast<unsigned long long>(report->replay_errors));
  std::printf("leaks: bound=%llu sessions=%llu unrevoked=%llu audit_failures=%llu\n",
              static_cast<unsigned long long>(post_recovery.bound_tickets),
              static_cast<unsigned long long>(post_recovery.live_sessions),
              static_cast<unsigned long long>(post_recovery.unrevoked_certs),
              static_cast<unsigned long long>(post_recovery.audit_failures));

  // --- 3. checkpoint vs full replay ------------------------------------------
  auto ckpt_fs = std::make_shared<witos::MemFs>();
  {
    auto cluster = MakeCluster(config.machines);
    witdur::DurabilityManager manager(ckpt_fs);
    manager.Attach(cluster.get());
    DriveTraffic(cluster.get(), config, "CKP-", config.deploys);
    if (!manager.Checkpoint().ok()) {
      std::fprintf(stderr, "Checkpoint failed\n");
      return 1;
    }
    // A little post-checkpoint traffic so the tail is non-trivial.
    watchit::ClusterManager cm(cluster.get());
    for (size_t i = 0; i < config.tail_deploys; ++i) {
      char name[32];
      std::snprintf(name, sizeof(name), "host%02zu", i % config.machines);
      (void)cm.Deploy(MakeTicket("CKP-TAIL-" + std::to_string(i), name));
    }
    if (!manager.SimulateCrash().ok()) {
      std::fprintf(stderr, "SimulateCrash failed\n");
      return 1;
    }
  }
  auto ckpt_recovered = MakeCluster(config.machines);
  witdur::DurabilityManager ckpt_manager(ckpt_fs);
  auto ckpt_report = ckpt_manager.Recover(ckpt_recovered.get());
  if (!ckpt_report.ok()) {
    std::fprintf(stderr, "checkpointed Recover() failed: %s\n",
                 witos::ErrName(ckpt_report.error()).c_str());
    return 1;
  }
  LeakAudit ckpt_audit = Audit(ckpt_recovered.get());
  std::printf("\n--- checkpoint vs full replay ---\n");
  std::printf("%-14s %12s %16s %12s\n", "recovery", "wall ms", "records", "records/s");
  std::printf("%-14s %12.2f %16llu %12.0f\n", "full journal",
              static_cast<double>(report->recovery_wall_ns) / 1e6,
              static_cast<unsigned long long>(report->records_replayed),
              report->ReplayRecordsPerSec());
  std::printf("%-14s %12.2f %16llu %12.0f\n", "checkpointed",
              static_cast<double>(ckpt_report->recovery_wall_ns) / 1e6,
              static_cast<unsigned long long>(ckpt_report->records_replayed),
              ckpt_report->ReplayRecordsPerSec());
  std::printf("checkpoint folded the history into %llu records (+%llu tail)\n",
              static_cast<unsigned long long>(ckpt_report->checkpoint_records),
              static_cast<unsigned long long>(ckpt_report->tail_records));

  // --- 4. crash-point sweep ---------------------------------------------------
  witcrash::CrashHarness::Options sweep_options;
  sweep_options.machines = 4;
  sweep_options.tickets = 24;
  witcrash::CrashHarness harness(sweep_options);
  const auto sweep = harness.RunSweep(/*nth_arrival=*/3);
  uint64_t sweep_failures = 0;
  std::printf("\n--- crash-point sweep (stage x scope, %zu runs) ---\n", sweep.size());
  std::printf("%-28s %8s %10s %8s %8s %10s\n", "crash point", "crashed", "replayed",
              "revoked", "leaks", "verdict");
  for (const auto& run : sweep) {
    const uint64_t leaks = run.bound_tickets + run.live_sessions + run.unrevoked_certs;
    std::printf("%-28s %8s %10llu %8llu %8llu %10s\n",
                witcrash::CrashPointName(run.point).c_str(), run.crashed ? "yes" : "no",
                static_cast<unsigned long long>(run.recovery.records_replayed),
                static_cast<unsigned long long>(run.recovery.certs_revoked_at_recovery),
                static_cast<unsigned long long>(leaks), run.ok() ? "ok" : "FAIL");
    if (!run.ok()) {
      ++sweep_failures;
      std::fprintf(stderr, "sweep failure at %s: %s\n",
                   witcrash::CrashPointName(run.point).c_str(), run.failure.c_str());
    }
  }

  const uint64_t total_leaks = post_recovery.Total() + ckpt_audit.Total();
  const uint64_t total_audit_failures =
      post_recovery.audit_failures + ckpt_audit.audit_failures;
  if (total_leaks != 0 || total_audit_failures != 0 || sweep_failures != 0 ||
      report->replay_errors != 0 || ckpt_report->replay_errors != 0) {
    std::fprintf(stderr, "CRASH RECOVERY BROKEN — leaks=%llu audit_failures=%llu "
                 "sweep_failures=%llu\n",
                 static_cast<unsigned long long>(total_leaks),
                 static_cast<unsigned long long>(total_audit_failures),
                 static_cast<unsigned long long>(sweep_failures));
    return 1;
  }

  if (!json_path.empty()) {
    benchjson::Object root;
    root.Str("bench", "crash_recovery");
    root.Number("machines", static_cast<uint64_t>(config.machines));
    root.Number("deploys", static_cast<uint64_t>(config.deploys));
    root.Number("log_appends_per_machine", static_cast<uint64_t>(config.log_appends));
    root.Number("host_cores", static_cast<uint64_t>(host_cores));

    benchjson::Object overhead_obj;
    overhead_obj.Number("bare_wall_ms", static_cast<double>(bare_wall_ns) / 1e6);
    overhead_obj.Number("journaled_wall_ms", static_cast<double>(journaled_wall_ns) / 1e6);
    overhead_obj.Number("overhead_x", overhead);
    overhead_obj.Number("journal_records", journal_records);
    overhead_obj.Number("journal_bytes", journal_bytes);
    root.Add("journal_overhead", overhead_obj.Render());

    root.Number("recovery_wall_ms", static_cast<double>(report->recovery_wall_ns) / 1e6);
    root.Number("records_replayed_per_sec", report->ReplayRecordsPerSec());
    root.Add("recovery", RecoveryJson(*report));
    root.Add("checkpointed_recovery", RecoveryJson(*ckpt_report));
    LeakAudit combined;
    combined.bound_tickets = post_recovery.bound_tickets + ckpt_audit.bound_tickets;
    combined.live_sessions = post_recovery.live_sessions + ckpt_audit.live_sessions;
    combined.unrevoked_certs = post_recovery.unrevoked_certs + ckpt_audit.unrevoked_certs;
    combined.audit_failures = total_audit_failures;
    root.Add("leaks", LeaksJson(combined));
    root.Number("audit_failures", total_audit_failures);

    benchjson::Array sweep_array;
    for (const auto& run : sweep) {
      benchjson::Object obj;
      obj.Str("point", witcrash::CrashPointName(run.point))
          .Boolean("ok", run.ok())
          .Number("records_replayed", run.recovery.records_replayed)
          .Number("recovery_wall_ms",
                  static_cast<double>(run.recovery.recovery_wall_ns) / 1e6)
          .Number("certs_revoked_at_recovery", run.recovery.certs_revoked_at_recovery)
          .Number("leaks", run.bound_tickets + run.live_sessions + run.unrevoked_certs);
      sweep_array.Add(obj.Render());
    }
    benchjson::Object sweep_obj;
    sweep_obj.Number("runs", static_cast<uint64_t>(sweep.size()))
        .Number("failures", sweep_failures)
        .Add("points", sweep_array.Render());
    root.Add("crash_sweep", sweep_obj.Render());
    benchjson::WriteFile(json_path, root.Render());
  }
  return 0;
}
