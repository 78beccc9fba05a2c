#include "src/durability/crash.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "src/obs/metrics.h"
#include "src/os/fault.h"
#include "src/os/memfs.h"

namespace witcrash {

namespace {

watchit::Ticket MakeTicket(size_t index, const std::string& machine) {
  watchit::Ticket ticket;
  ticket.id = "TKT-CRASH-" + std::to_string(index);
  ticket.target_machine = machine;
  ticket.assigned_class = "T-1";
  ticket.admin = "alice";
  return ticket;
}

// The recovered pool must *report* its recovered state: per-machine log and
// binding gauges matching the live objects, CA gauges matching the books,
// and a nonzero replay gauge — re-seeded, not zeroed.
bool GaugesMatch(const witobs::MetricsRegistry& registry, watchit::Cluster* cluster,
                 const witdur::RecoveryReport& recovery) {
  bool ok = true;
  for (size_t i = 0; i < cluster->size(); ++i) {
    watchit::Machine& machine = cluster->machine(i);
    const witobs::Labels labels{{"machine", machine.name()}};
    ok = ok && registry.GaugeValue("watchit_securelog_entries", labels) ==
                   static_cast<int64_t>(machine.kernel().audit().size());
    ok = ok && registry.GaugeValue("watchit_securelog_epochs", labels) ==
                   static_cast<int64_t>(machine.kernel().audit().epoch_count());
    ok = ok && registry.GaugeValue("watchit_broker_bound_tickets", labels) ==
                   static_cast<int64_t>(machine.broker().bound_ticket_count());
  }
  ok = ok && registry.GaugeValue("watchit_ca_issued") ==
                 static_cast<int64_t>(cluster->ca().issued_count());
  ok = ok && registry.GaugeValue("watchit_ca_revoked") ==
                 static_cast<int64_t>(cluster->ca().revoked_count());
  ok = ok && registry.GaugeValue("watchit_recovery_records_replayed") ==
                 static_cast<int64_t>(recovery.records_replayed);
  ok = ok && recovery.records_replayed > 0;
  ok = ok && registry.CounterValue("watchit_recovery_runs_total") == 1;
  return ok;
}

}  // namespace

std::string CrashScopeName(CrashScope scope) {
  return scope == CrashScope::kShard ? "shard" : "pool";
}

std::string CrashPointName(const CrashPoint& point) {
  return watchit::DeployStageName(point.stage) + "/" + CrashScopeName(point.scope) + "#" +
         std::to_string(point.nth_arrival);
}

CrashRunReport CrashHarness::Run(const CrashPoint& point) {
  CrashRunReport report;
  report.point = point;

  // The host-side volume holding journal + checkpoint — the only thing that
  // survives the crash.
  auto fs = std::make_shared<witos::MemFs>();
  witdur::DurabilityManager::Options mopts;
  mopts.checkpoint_interval = options_.checkpoint_interval;

  std::vector<std::pair<std::string, witnet::Ipv4Addr>> fleet;
  for (size_t i = 0; i < options_.machines; ++i) {
    fleet.emplace_back("host" + std::to_string(i),
                       witnet::Ipv4Addr(10, 0, 2, static_cast<uint8_t>(10 + i)));
  }

  // --- Phase A: journaled traffic until the plug is pulled -----------------
  {
    watchit::Cluster cluster;
    for (const auto& [name, addr] : fleet) {
      cluster.AddMachine(name, addr);
    }
    witdur::DurabilityManager manager(fs, mopts);
    manager.Attach(&cluster);

    witos::FaultPlan plan(options_.seed);
    plan.CrashAtNthCall(point.nth_arrival);

    watchit::DeployPipeline pipeline(&cluster);

    std::mutex hook_mu;
    bool armed = false;  // set after the first wave
    bool crashed = false;
    const std::string victim = fleet.front().first;
    pipeline.set_stage_hook([&](watchit::DeployStage stage, const watchit::Ticket&,
                                watchit::Machine* machine) -> witos::Status {
      std::lock_guard<std::mutex> lock(hook_mu);
      if (crashed) {
        return witos::Err::kIntr;  // the world is dead; every gate fails
      }
      if (!armed || stage != point.stage) {
        return witos::Status::Ok();
      }
      if (point.scope == CrashScope::kShard && machine->name() != victim) {
        return witos::Status::Ok();
      }
      (void)plan.Decide(witos::FaultOpKind::kAny);
      if (plan.ConsumeCrash()) {
        (void)manager.SimulateCrash();
        crashed = true;
        return witos::Err::kIntr;
      }
      return witos::Status::Ok();
    });

    watchit::ClusterManager expirer(&cluster);
    size_t submitted = 0;
    bool expire_toggle = false;
    while (submitted < options_.tickets) {
      // One wave: a ticket per machine, round-robin, each deployed on its
      // own thread so the crash lands while other machines are mid-deploy.
      const size_t wave = std::min(fleet.size(), options_.tickets - submitted);
      std::vector<witos::Result<watchit::Deployment>> results(wave, witos::Err::kIo);
      std::vector<std::thread> deployers;
      for (size_t m = 0; m < wave; ++m) {
        deployers.emplace_back([&, m, ticket = MakeTicket(submitted + m, fleet[m].first)] {
          results[m] = pipeline.Deploy(ticket);
        });
      }
      for (std::thread& deployer : deployers) {
        deployer.join();
      }
      submitted += wave;
      std::vector<watchit::Deployment> landed;
      for (auto& result : results) {
        if (result.ok()) {
          ++report.deploys_committed;
          landed.push_back(*result);
        }
      }
      {
        std::lock_guard<std::mutex> lock(hook_mu);
        if (crashed) {
          break;  // post-crash state is garbage by definition; stop driving
        }
      }
      // Expire every other committed deployment, so the crash finds both
      // live tickets and completed expiries.
      for (auto& deployment : landed) {
        expire_toggle = !expire_toggle;
        if (expire_toggle && expirer.Expire(&deployment).ok()) {
          ++report.deploys_expired;
        }
      }
      (void)manager.MaybeCheckpoint();
      std::lock_guard<std::mutex> lock(hook_mu);
      armed = true;
    }
    {
      std::lock_guard<std::mutex> lock(hook_mu);
      report.crashed = crashed;
    }
  }  // cluster A, manager A: all volatile state dies here

  if (!report.crashed) {
    report.failure = "crash point " + CrashPointName(point) + " never fired";
    return report;
  }

  // --- Phase B: restart and recover ----------------------------------------
  watchit::Cluster recovered;
  for (const auto& [name, addr] : fleet) {
    recovered.AddMachine(name, addr);
  }
  witobs::MetricsRegistry registry;
  witdur::DurabilityManager manager(fs, mopts);
  manager.EnableMetrics(&registry);
  auto recovery = manager.Recover(&recovered);
  if (!recovery.ok()) {
    report.failure = "Recover() failed: " + witos::ErrName(recovery.error());
    return report;
  }
  report.recovery = *recovery;

  for (size_t i = 0; i < recovered.size(); ++i) {
    report.bound_tickets += recovered.machine(i).broker().bound_ticket_count();
    report.live_sessions += recovered.machine(i).containit().active_sessions();
  }
  // The CA keeps only live certificates: every one left is unrevoked.
  report.unrevoked_certs = recovered.ca().IssuedSnapshot().size();
  report.audit = recovered.VerifyAuditTrail();
  report.gauges_ok = GaugesMatch(registry, &recovered, report.recovery);

  if (report.bound_tickets != 0) {
    report.failure = "bound tickets leaked across recovery";
  } else if (report.live_sessions != 0) {
    report.failure = "live sessions leaked across recovery";
  } else if (report.unrevoked_certs != 0) {
    report.failure = "unrevoked certificates leaked across recovery";
  } else if (report.audit.failures != 0) {
    report.failure = "audit trail failed verification after recovery";
  } else if (!report.recovery.epoch_roots_verified) {
    report.failure = "epoch roots failed verification after replay";
  } else if (report.recovery.replay_errors != 0) {
    report.failure = "journal replay rejected records";
  } else if (!report.gauges_ok) {
    report.failure = "gauges do not reflect the recovered state";
  }
  return report;
}

std::vector<CrashRunReport> CrashHarness::RunSweep(uint64_t nth_arrival) {
  std::vector<CrashRunReport> reports;
  for (size_t s = 0; s < watchit::kNumDeployStages; ++s) {
    for (CrashScope scope : {CrashScope::kShard, CrashScope::kPool}) {
      CrashPoint point;
      point.stage = static_cast<watchit::DeployStage>(s);
      point.scope = scope;
      point.nth_arrival = nth_arrival;
      reports.push_back(Run(point));
    }
  }
  return reports;
}

}  // namespace witcrash
