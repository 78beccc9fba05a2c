// Deploy bench: shard throughput with one artificially slow machine, and a
// fault run proving that every deploy rollback leaves no trace.
//
// One machine ("host00") pays a wall-clock latency penalty on its image
// lookup — a stand-in for a cold image registry or an overloaded host. The
// penalty is paid outside the machine lock, like a real registry fetch.
// The worker deploying for host00 sits inside that latency while idle
// workers steal the rest of its shard's queue, so the other machines keep
// being served. The run reports wall time, throughput, the most deploys
// that executed at once, and a leak audit.
//
// A second run injects a bind-stage fault into every 7th deploy — after
// the session is fully constructed, so each failure forces a real rollback
// — and reports the rollback count plus the leak audit (bound tickets, live
// sessions, unrevoked certificates). Any leak in either run makes the bench
// exit nonzero.
//
// `--profile` instruments the fault run with the witprof stack (a tracer
// recording the serve.* and deploy.* stage spans), and the run reports the
// spans recorded, the deploy-stage p99s and the per-lock wait ranking.
//
// `--json PATH` writes the same numbers machine-readably (BENCH_*.json).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/json_out.h"
#include "src/core/workflow.h"
#include "src/obs/metrics.h"
#include "src/obs/profile.h"
#include "src/obs/trace.h"
#include "src/serve/pool.h"
#include "src/workload/ticket_gen.h"

namespace {

constexpr uint32_t kSeed = 20260805;
constexpr const char* kSlowMachine = "host00";

std::unique_ptr<watchit::ItFramework> TrainFramework() {
  witload::TicketGenerator::Options options;
  options.seed = kSeed;
  witload::TicketGenerator gen(options);
  auto history = gen.GenerateBatch(600, witload::TicketGenerator::HistoricalDistribution());
  std::vector<std::pair<std::string, std::string>> labelled;
  labelled.reserve(history.size());
  for (const auto& t : history) {
    labelled.emplace_back(t.text, t.true_class);
  }
  watchit::ItFramework::Config config;
  config.lda.iterations = 60;
  auto framework = std::make_unique<watchit::ItFramework>(config);
  framework->TrainOnHistory(labelled);
  return framework;
}

std::unique_ptr<watchit::Cluster> MakeCluster(size_t machines) {
  auto cluster = std::make_unique<watchit::Cluster>();
  for (size_t i = 0; i < machines; ++i) {
    char name[32];
    std::snprintf(name, sizeof(name), "host%02zu", i);
    cluster->AddMachine(name, witnet::Ipv4Addr(10, 0, 4, static_cast<uint8_t>(10 + i)));
  }
  return cluster;
}

void StaffDispatcher(watchit::Dispatcher* dispatcher) {
  const std::set<std::string> all_classes = {"T-1", "T-2", "T-3", "T-4",  "T-5", "T-6",
                                             "T-7", "T-8", "T-9", "T-10", "T-11"};
  for (int i = 0; i < 8; ++i) {
    dispatcher->AddSpecialist("admin" + std::to_string(i), all_classes);
  }
}

struct BenchConfig {
  size_t tickets = 160;
  size_t machines = 8;
  size_t pool_workers = 4;
  uint64_t slow_ms = 5;
};

struct RunResult {
  uint64_t wall_ns = 0;
  witserve::ServerPool::Stats stats;

  double WallMs() const { return static_cast<double>(wall_ns) / 1e6; }
  double Tps() const {
    return wall_ns == 0 ? 0.0 : static_cast<double>(stats.served) * 1e9 /
                                    static_cast<double>(wall_ns);
  }
};

struct LeakAudit {
  uint64_t bound_tickets = 0;
  uint64_t live_sessions = 0;
  uint64_t unrevoked_certs = 0;
  uint64_t Total() const { return bound_tickets + live_sessions + unrevoked_certs; }
};

LeakAudit Audit(watchit::Cluster* cluster) {
  LeakAudit audit;
  for (size_t i = 0; i < cluster->size(); ++i) {
    audit.bound_tickets += cluster->machine(i).broker().bound_ticket_count();
    audit.live_sessions += cluster->machine(i).containit().active_sessions();
  }
  audit.unrevoked_certs = cluster->ca().issued_count() - cluster->ca().revoked_count();
  return audit;
}

// What the witprof pass on the fault run captured.
struct DeployProfile {
  std::vector<witobs::LockContention> locks;
  std::vector<std::pair<std::string, uint64_t>> stage_p99_ns;
  uint64_t spans_recorded = 0;
};

RunResult RunOnce(watchit::ItFramework* framework, const BenchConfig& config,
                  bool inject_faults, LeakAudit* audit, DeployProfile* profile = nullptr) {
  auto cluster = MakeCluster(config.machines);
  watchit::Dispatcher dispatcher;
  StaffDispatcher(&dispatcher);

  witserve::ServerPool::Options pool_options;
  pool_options.workers = config.pool_workers;
  pool_options.queue.capacity = config.tickets + 16;
  witserve::ServerPool pool(cluster.get(), framework, &dispatcher, pool_options);

  witobs::MetricsRegistry registry;
  witobs::Tracer tracer(1 << 14);
  if (profile != nullptr) {
    pool.EnableMetrics(&registry, &tracer);
  }

  std::atomic<uint64_t> bind_calls{0};
  pool.deploy_pipeline().set_stage_hook(
      [&](watchit::DeployStage stage, const watchit::Ticket&,
          watchit::Machine* machine) -> witos::Status {
        if (stage == watchit::DeployStage::kImageLookup &&
            machine->name() == kSlowMachine) {
          std::this_thread::sleep_for(std::chrono::milliseconds(config.slow_ms));
        }
        // Bind runs after construction: every injected failure unwinds a
        // fully built session, exercising the rollback path under load.
        if (inject_faults && stage == watchit::DeployStage::kBind &&
            bind_calls.fetch_add(1, std::memory_order_relaxed) % 7 == 6) {
          return witos::Err::kIo;
        }
        return witos::Status::Ok();
      });
  pool.Start();

  witload::TicketGenerator::Options gen_options;
  gen_options.seed = kSeed + 1;
  gen_options.with_ops = true;
  witload::TicketGenerator gen(gen_options);
  const auto tickets =
      gen.GenerateBatch(config.tickets, witload::TicketGenerator::EvaluationDistribution());

  const uint64_t start_ns = witobs::MonotonicNowNs();
  for (size_t i = 0; i < tickets.size(); ++i) {
    char target[32];
    std::snprintf(target, sizeof(target), "host%02zu", i % config.machines);
    while (!pool.Submit(tickets[i], target).ok()) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  pool.Drain();
  const uint64_t wall_ns = witobs::MonotonicNowNs() - start_ns;
  pool.Stop();

  RunResult result;
  result.wall_ns = wall_ns;
  result.stats = pool.stats();
  if (audit != nullptr) {
    *audit = Audit(cluster.get());
  }
  if (profile != nullptr) {
    std::vector<const witobs::MetricsRegistry*> registries = {&registry};
    for (size_t i = 0; i < cluster->size(); ++i) {
      registries.push_back(&cluster->machine(i).metrics());
    }
    profile->locks = witobs::TopContendedLocks(registries, /*max_locks=*/8);
    for (const char* stage : {"image_lookup", "construct", "bind", "issue_cert"}) {
      const witobs::Histogram* hist =
          registry.FindHistogram("watchit_deploy_stage_latency_ns", {{"stage", stage}});
      profile->stage_p99_ns.emplace_back(
          stage, hist == nullptr || hist->Count() == 0 ? 0 : hist->Percentile(99));
    }
    profile->spans_recorded = tracer.total_recorded();
  }
  return result;
}

std::string RunJson(const RunResult& run, const LeakAudit& audit) {
  benchjson::Object leaks;
  leaks.Number("bound_tickets", audit.bound_tickets);
  leaks.Number("live_sessions", audit.live_sessions);
  leaks.Number("unrevoked_certs", audit.unrevoked_certs);
  benchjson::Object obj;
  obj.Number("wall_ms", run.WallMs());
  obj.Number("tickets_per_sec", run.Tps());
  obj.Number("served", run.stats.served);
  obj.Number("failed", run.stats.failed);
  obj.Number("deployed", run.stats.deploy.deployed);
  obj.Number("rollbacks", run.stats.deploy.rollbacks);
  obj.Number("peak_inflight", run.stats.deploy.peak_inflight);
  obj.Number("clock_ownership_violations", run.stats.clock_ownership_violations);
  obj.Add("leaks", leaks.Render());
  return obj.Render();
}

void PrintRun(const char* label, const RunResult& run, const LeakAudit& audit) {
  std::printf("%-8s %10.1f %12.1f %8llu %8llu %10llu %8llu %6llu\n", label, run.WallMs(),
              run.Tps(), static_cast<unsigned long long>(run.stats.served),
              static_cast<unsigned long long>(run.stats.failed),
              static_cast<unsigned long long>(run.stats.deploy.rollbacks),
              static_cast<unsigned long long>(run.stats.deploy.peak_inflight),
              static_cast<unsigned long long>(audit.Total()));
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = benchjson::ConsumeJsonFlag(&argc, argv);
  BenchConfig config;
  bool profile = false;
  for (int i = 1; i < argc; ++i) {
    auto next = [&](size_t* out) {
      if (i + 1 < argc) {
        *out = static_cast<size_t>(std::strtoull(argv[++i], nullptr, 10));
      }
    };
    if (std::strcmp(argv[i], "--tickets") == 0) {
      next(&config.tickets);
    } else if (std::strcmp(argv[i], "--machines") == 0) {
      next(&config.machines);
    } else if (std::strcmp(argv[i], "--workers") == 0) {
      next(&config.pool_workers);
    } else if (std::strcmp(argv[i], "--slow-ms") == 0) {
      size_t ms = config.slow_ms;
      next(&ms);
      config.slow_ms = ms;
    } else if (std::strcmp(argv[i], "--profile") == 0) {
      profile = true;
    }
  }

  std::printf("training framework (600 historical tickets)...\n");
  auto framework = TrainFramework();

  const size_t host_cores = std::max(1u, std::thread::hardware_concurrency());
  std::printf("\n=== deploy: %zu tickets, %zu machines, %zu pool workers, %zu host cores, "
              "%s +%llums on image lookup ===\n",
              config.tickets, config.machines, config.pool_workers, host_cores, kSlowMachine,
              static_cast<unsigned long long>(config.slow_ms));

  LeakAudit slow_audit;
  RunResult slow_run =
      RunOnce(framework.get(), config, /*inject_faults=*/false, &slow_audit);
  LeakAudit fault_audit;
  DeployProfile prof;
  RunResult fault_run = RunOnce(framework.get(), config, /*inject_faults=*/true, &fault_audit,
                                profile ? &prof : nullptr);

  std::printf("%-8s %10s %12s %8s %8s %10s %8s %6s\n", "run", "wall ms", "t/s", "served",
              "failed", "rollbacks", "peakIF", "leaks");
  PrintRun("slow", slow_run, slow_audit);
  PrintRun("faulty", fault_run, fault_audit);
  std::printf("(faulty: every 7th bind fails%s)\n", profile ? ", witprof attached" : "");
  if (slow_audit.Total() != 0 || fault_audit.Total() != 0) {
    std::fprintf(stderr, "LEAK DETECTED — deploy rollback is broken\n");
    return 1;
  }

  if (profile) {
    std::printf("\n=== witprof (fault run) ===\n");
    std::printf("spans recorded: %llu\n",
                static_cast<unsigned long long>(prof.spans_recorded));
    std::printf("\ndeploy stage p99 (us):");
    for (const auto& [stage, p99] : prof.stage_p99_ns) {
      std::printf("  %s=%.1f", stage.c_str(), static_cast<double>(p99) / 1e3);
    }
    std::printf("\n\nper-lock wait ranking:\n");
    std::printf("%-18s %12s %14s %14s\n", "lock", "acquires", "wait sum ms", "hold sum ms");
    for (const auto& lock : prof.locks) {
      std::printf("%-18s %12llu %14.3f %14.3f\n", lock.lock.c_str(),
                  static_cast<unsigned long long>(lock.wait_count),
                  static_cast<double>(lock.wait_sum_ns) / 1e6,
                  static_cast<double>(lock.hold_sum_ns) / 1e6);
    }
  }

  if (!json_path.empty()) {
    benchjson::Object root;
    root.Str("bench", "deploy_pipeline");
    root.Number("tickets", static_cast<uint64_t>(config.tickets));
    root.Number("machines", static_cast<uint64_t>(config.machines));
    root.Number("pool_workers", static_cast<uint64_t>(config.pool_workers));
    root.Number("host_cores", static_cast<uint64_t>(host_cores));
    root.Str("slow_machine", kSlowMachine);
    root.Number("slow_ms", config.slow_ms);
    root.Add("run", RunJson(slow_run, slow_audit));
    root.Add("faulty", RunJson(fault_run, fault_audit));
    if (profile) {
      benchjson::Array lock_array;
      for (const auto& lock : prof.locks) {
        benchjson::Object obj;
        obj.Str("lock", lock.lock)
            .Number("wait_count", lock.wait_count)
            .Number("wait_sum_ns", lock.wait_sum_ns)
            .Number("hold_sum_ns", lock.hold_sum_ns);
        lock_array.Add(obj.Render());
      }
      benchjson::Object stages_obj;
      for (const auto& [stage, p99] : prof.stage_p99_ns) {
        stages_obj.Number(stage + "_p99_ns", p99);
      }
      benchjson::Object profile_obj;
      profile_obj.Number("spans_recorded", prof.spans_recorded)
          .Add("stage_p99_ns", stages_obj.Render())
          .Add("locks", lock_array.Render());
      root.Add("profile", profile_obj.Render());
    }
    benchjson::WriteFile(json_path, root.Render());
  }
  return 0;
}
