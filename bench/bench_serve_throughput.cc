// witserve throughput bench: tickets/sec, queue depth and end-to-end
// latency percentiles for the concurrent serving engine at 1/2/4/8 workers
// over a 10k-ticket synthetic corpus (open-loop Poisson arrivals).
//
// Two throughput numbers are reported per worker count:
//  * wall tickets/sec — served / wall time of submit+drain. Honest on a
//    many-core host, misleading on a small CI box where 8 workers timeshare
//    a single core.
//  * effective tickets/sec — served / max per-shard busy thread-CPU time.
//    Thread-CPU time does not advance while a worker is descheduled, so the
//    serving critical path (the busiest shard) is measured independently of
//    how many cores the host happens to have; this is the scaling headline.
//
// The admission-control section fills a deliberately tiny queue with the
// pool stopped and shows the high-watermark rejection plus the drain.
//
// `--profile` adds the witprof pass at 8 workers: the per-lock wait
// ranking (merged across the pool registry and every machine's own), the
// per-stage p99 breakdown of the e2e p99, the slowest ticket's timeline,
// and the profiling overhead: the median over interleaved (metrics,
// profile) run pairs of the change in thread-CPU per served ticket, where
// the profiled run adds the tracer and its serve.* and deploy.* stage
// spans (DESIGN.md §13).
//
// `--json PATH` writes the same numbers machine-readably (BENCH_*.json).

#include <algorithm>
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
#include "src/obs/timeline.h"
#include "src/obs/trace.h"
#include "src/serve/loadgen.h"
#include "src/serve/pool.h"

namespace {

constexpr size_t kMachines = 16;
constexpr uint32_t kSeed = 20260805;

std::unique_ptr<watchit::ItFramework> TrainFramework() {
  witload::TicketGenerator::Options options;
  options.seed = kSeed;
  witload::TicketGenerator gen(options);
  auto history = gen.GenerateBatch(800, witload::TicketGenerator::HistoricalDistribution());
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

std::unique_ptr<watchit::Cluster> MakeCluster() {
  auto cluster = std::make_unique<watchit::Cluster>();
  for (size_t i = 0; i < kMachines; ++i) {
    char name[16];
    std::snprintf(name, sizeof(name), "host%02zu", i);
    cluster->AddMachine(name, witnet::Ipv4Addr(10, 0, 3, static_cast<uint8_t>(10 + i)));
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

struct RunResult {
  size_t workers = 0;
  uint64_t wall_ns = 0;
  uint64_t busy_retries = 0;
  witserve::ServerPool::Stats stats;
  uint64_t p50_ns = 0;
  uint64_t p95_ns = 0;
  uint64_t p99_ns = 0;
  // End-of-run audit sweep: every machine's evidence chain must still
  // verify (hash links and epoch roots) after the run.
  watchit::Cluster::AuditReport audit;

  double WallTps() const {
    return wall_ns == 0 ? 0.0 : static_cast<double>(stats.served) * 1e9 /
                                    static_cast<double>(wall_ns);
  }
  double EffectiveTps() const {
    return stats.max_shard_busy_cpu_ns == 0
               ? 0.0
               : static_cast<double>(stats.served) * 1e9 /
                     static_cast<double>(stats.max_shard_busy_cpu_ns);
  }
  // Serving thread-CPU per served ticket, summed over every shard.
  double CpuNsPerTicket() const {
    return stats.served == 0 ? 0.0
                             : static_cast<double>(stats.total_busy_cpu_ns) /
                                   static_cast<double>(stats.served);
  }
};

// What the witprof pass measured, beyond the throughput numbers.
struct ProfileData {
  std::vector<witobs::LockContention> locks;
  // Ordered as the stages tile submit→finish.
  std::vector<std::pair<std::string, uint64_t>> stage_p99_ns;
  std::vector<std::pair<std::string, uint64_t>> stage_count;
  uint64_t e2e_p99_ns = 0;
  uint64_t stage_p99_sum_ns = 0;
  double stage_coverage_pct = 0.0;  // stage-p99 sum as % of e2e p99
  uint64_t spans_recorded = 0;
  uint64_t spans_dropped = 0;
  size_t timelines = 0;
  std::string example_ticket;
  uint64_t example_span_ns = 0;
  std::string example_render;
};

enum class RunMode {
  kMetrics,  // registry (incl. lock profiling) — the normal sweep
  kProfile,  // registry + tracer: the serve.* and deploy.* stage spans
};

RunResult RunOnce(watchit::ItFramework* framework, size_t workers, size_t tickets,
                  RunMode mode = RunMode::kMetrics, ProfileData* profile = nullptr) {
  auto cluster = MakeCluster();
  watchit::Dispatcher dispatcher;
  StaffDispatcher(&dispatcher);
  witobs::MetricsRegistry registry;
  witobs::Tracer tracer(1 << 15);

  witserve::ServerPool::Options pool_options;
  pool_options.workers = workers;
  pool_options.queue.capacity = 2048;
  witserve::ServerPool pool(cluster.get(), framework, &dispatcher, pool_options);
  pool.EnableMetrics(&registry, mode == RunMode::kProfile ? &tracer : nullptr);
  pool.Start();

  witserve::LoadGenerator::Options load_options;
  load_options.seed = kSeed;
  load_options.tickets = tickets;
  witserve::LoadGenerator loadgen(load_options);
  const auto arrivals = loadgen.Generate(pool);

  const uint64_t start_ns = witobs::MonotonicNowNs();
  const auto run = loadgen.Run(&pool, arrivals);
  pool.Drain();
  const uint64_t wall_ns = witobs::MonotonicNowNs() - start_ns;
  pool.Stop();

  RunResult result;
  result.audit = cluster->VerifyAuditTrail();
  result.workers = workers;
  result.wall_ns = wall_ns;
  result.busy_retries = run.busy_retries;
  result.stats = pool.stats();
  const witobs::Histogram* latency = pool.latency_histogram();
  if (latency != nullptr && latency->Count() > 0) {
    result.p50_ns = latency->Percentile(50);
    result.p95_ns = latency->Percentile(95);
    result.p99_ns = latency->Percentile(99);
  }

  if (mode == RunMode::kProfile && profile != nullptr) {
    // Lock ranking merged across the pool registry and every machine's own
    // registry (that is where the broker + securelog locks live).
    std::vector<const witobs::MetricsRegistry*> registries = {&registry};
    for (size_t i = 0; i < cluster->size(); ++i) {
      registries.push_back(&cluster->machine(i).metrics());
    }
    profile->locks = witobs::TopContendedLocks(registries);

    for (const char* stage : {"queue_wait", "prepare", "deploy", "finish"}) {
      const witobs::Histogram* hist =
          registry.FindHistogram("watchit_serve_stage_latency_ns", {{"stage", stage}});
      uint64_t p99 = hist == nullptr || hist->Count() == 0 ? 0 : hist->Percentile(99);
      profile->stage_p99_ns.emplace_back(stage, p99);
      profile->stage_count.emplace_back(stage, hist == nullptr ? 0 : hist->Count());
      profile->stage_p99_sum_ns += p99;
    }
    profile->e2e_p99_ns = result.p99_ns;
    profile->stage_coverage_pct =
        result.p99_ns == 0 ? 0.0
                           : 100.0 * static_cast<double>(profile->stage_p99_sum_ns) /
                                 static_cast<double>(result.p99_ns);

    profile->spans_dropped = tracer.dropped();
    const auto spans = tracer.Snapshot();
    profile->spans_recorded = spans.size();
    const auto timelines = witobs::TicketTimeline::AssembleAll(spans);
    profile->timelines = timelines.size();
    // Showcase the slowest ticket: where did its time go?
    for (const auto& timeline : timelines) {
      if (timeline.SpanNs() > profile->example_span_ns) {
        profile->example_span_ns = timeline.SpanNs();
        profile->example_ticket = timeline.ticket_id();
        profile->example_render = timeline.Render();
      }
    }
  }
  return result;
}

struct AdmissionResult {
  size_t capacity = 0;
  size_t high = 0;
  size_t low = 0;
  uint64_t accepted = 0;
  uint64_t rejected = 0;
  uint64_t served_after_drain = 0;
};

// Fill a tiny queue with the workers stopped: the high watermark must turn
// submissions away with EBUSY, and the backlog must serve cleanly once the
// workers start.
AdmissionResult DemonstrateAdmissionControl(watchit::ItFramework* framework) {
  auto cluster = MakeCluster();
  watchit::Dispatcher dispatcher;
  StaffDispatcher(&dispatcher);

  witserve::ServerPool::Options pool_options;
  pool_options.workers = 1;
  pool_options.queue.capacity = 8;
  pool_options.queue.low_watermark = 4;
  witserve::ServerPool pool(cluster.get(), framework, &dispatcher, pool_options);

  witload::TicketGenerator::Options gen_options;
  gen_options.seed = kSeed + 1;
  gen_options.with_ops = true;
  witload::TicketGenerator gen(gen_options);
  const auto tickets =
      gen.GenerateBatch(12, witload::TicketGenerator::EvaluationDistribution());
  for (const auto& ticket : tickets) {
    witos::Status status = pool.Submit(ticket, "host00");
    static_cast<void>(status);  // rejections are the point; counted below
  }
  AdmissionResult result;
  result.capacity = pool_options.queue.capacity;
  result.high = pool_options.queue.capacity;
  result.low = pool_options.queue.low_watermark;
  const auto before = pool.stats();
  result.accepted = before.submitted;
  result.rejected = before.rejected;
  pool.Start();
  pool.Drain();
  pool.Stop();
  result.served_after_drain = pool.stats().served;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = benchjson::ConsumeJsonFlag(&argc, argv);
  size_t tickets = 10000;
  bool profile = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tickets") == 0 && i + 1 < argc) {
      tickets = static_cast<size_t>(std::strtoull(argv[i + 1], nullptr, 10));
      ++i;
    } else if (std::strcmp(argv[i], "--profile") == 0) {
      profile = true;
    }
  }

  std::printf("training framework (800 historical tickets)...\n");
  auto framework = TrainFramework();

  const size_t host_cores = std::max(1u, std::thread::hardware_concurrency());
  std::printf("\n=== witserve throughput: %zu tickets, %zu machines, %zu host cores ===\n",
              tickets, kMachines, host_cores);
  std::printf("%-8s %10s %12s %14s %10s %8s %10s %12s %12s %12s\n", "workers", "served",
              "wall t/s", "effective t/s", "steals", "peakQ", "retries", "p50 ms",
              "p95 ms", "p99 ms");
  std::vector<RunResult> runs;
  for (size_t workers : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    RunResult run = RunOnce(framework.get(), workers, tickets);
    std::printf("%-8zu %10llu %12.0f %14.0f %10llu %8zu %10llu %12.2f %12.2f %12.2f\n",
                run.workers, static_cast<unsigned long long>(run.stats.served),
                run.WallTps(), run.EffectiveTps(),
                static_cast<unsigned long long>(run.stats.stolen),
                run.stats.peak_queue_depth,
                static_cast<unsigned long long>(run.busy_retries),
                static_cast<double>(run.p50_ns) / 1e6, static_cast<double>(run.p95_ns) / 1e6,
                static_cast<double>(run.p99_ns) / 1e6);
    if (run.stats.clock_ownership_violations != 0 || run.stats.clock_resume_underflows != 0) {
      std::printf("!! clock discipline violated: %llu ownership, %llu underflow\n",
                  static_cast<unsigned long long>(run.stats.clock_ownership_violations),
                  static_cast<unsigned long long>(run.stats.clock_resume_underflows));
    }
    if (run.audit.failures != 0) {
      std::printf("!! audit trail verification FAILED on %zu of %zu machines\n",
                  run.audit.failures, run.audit.machines);
    }
    runs.push_back(run);
  }
  const double scaling = runs.front().EffectiveTps() == 0.0
                             ? 0.0
                             : runs.back().EffectiveTps() / runs.front().EffectiveTps();
  const double wall_scaling = runs.front().WallTps() == 0.0
                                  ? 0.0
                                  : runs.back().WallTps() / runs.front().WallTps();
  std::printf("\neffective scaling, 8 workers vs 1: %.2fx (acceptance target: >= 4x)\n",
              scaling);
  std::printf("wall scaling, 8 workers vs 1: %.2fx on %zu host cores (wall cannot beat\n"
              " the core count; below 8 cores the effective number is the headline)\n",
              wall_scaling, host_cores);
  std::printf("(effective t/s divides by the busiest shard's thread-CPU time, so the\n"
              " number is host-core-count independent; wall t/s is what this box saw)\n");
  const watchit::Cluster::AuditReport& audit = runs.back().audit;
  std::printf("audit sweep at 8 workers: %zu machines, %zu chain records, %zu epoch "
              "roots, %zu failures\n",
              audit.machines, audit.log_entries, audit.epoch_roots, audit.failures);

  const AdmissionResult admission = DemonstrateAdmissionControl(framework.get());
  std::printf("\n=== admission control (capacity %zu, high %zu, low %zu, workers stopped) "
              "===\n",
              admission.capacity, admission.high, admission.low);
  std::printf("submitted 12 tickets: %llu accepted, %llu rejected EBUSY at the high "
              "watermark\n",
              static_cast<unsigned long long>(admission.accepted),
              static_cast<unsigned long long>(admission.rejected));
  std::printf("after Start+Drain: %llu served (backlog cleared, nothing lost)\n",
              static_cast<unsigned long long>(admission.served_after_drain));

  // The witprof pass: interleaved (metrics, profile) run pairs at 8 workers.
  ProfileData prof;
  std::vector<double> pair_overhead_pct;
  double profile_overhead_pct = 0.0;
  if (profile) {
    constexpr size_t kProfileWorkers = 8;
    constexpr int kProfilePairs = 25;
    std::printf("\n=== witprof: %d profiled/unprofiled run pairs at %zu workers ===\n",
                kProfilePairs, kProfileWorkers);
    // The baseline is the bench's normal mode (registry, no tracer) — what
    // you get WITHOUT --profile — so the change is what --profile costs.
    // Each pair compares serving thread-CPU per ticket summed over all
    // shards, which neither the core count nor a descheduled worker moves.
    // The pairs alternate which mode runs first, and the gate takes their
    // median, so one slow run cannot decide it. One 800-ticket pair spreads
    // by about ±8% on a small shared host, hence 25 pairs.
    std::printf("%-6s %18s %18s %10s\n", "pair", "metrics us/ticket", "profile us/ticket",
                "overhead");
    for (int i = 0; i < kProfilePairs; ++i) {
      RunResult base;
      RunResult run;
      ProfileData attempt;
      if (i % 2 == 0) {
        base = RunOnce(framework.get(), kProfileWorkers, tickets, RunMode::kMetrics);
        run = RunOnce(framework.get(), kProfileWorkers, tickets, RunMode::kProfile, &attempt);
      } else {
        run = RunOnce(framework.get(), kProfileWorkers, tickets, RunMode::kProfile, &attempt);
        base = RunOnce(framework.get(), kProfileWorkers, tickets, RunMode::kMetrics);
      }
      const double base_ns = base.CpuNsPerTicket();
      const double pct = base_ns == 0.0 ? 0.0 : 100.0 * (run.CpuNsPerTicket() - base_ns) / base_ns;
      pair_overhead_pct.push_back(pct);
      std::printf("%-6d %18.1f %18.1f %9.2f%%\n", i + 1, base_ns / 1e3,
                  run.CpuNsPerTicket() / 1e3, pct);
      prof = std::move(attempt);  // the tables below show the last profiled run
    }
    std::vector<double> sorted = pair_overhead_pct;
    std::sort(sorted.begin(), sorted.end());
    profile_overhead_pct = sorted[sorted.size() / 2];
    std::printf("profiling overhead, median of %d pairs: %.2f%% (acceptance target: < 5%%)\n",
                kProfilePairs, profile_overhead_pct);

    std::printf("\nper-lock wait ranking (all registries merged):\n");
    std::printf("%-18s %12s %14s %12s %14s %12s\n", "lock", "acquires", "wait sum ms",
                "wait p99 us", "hold sum ms", "hold p99 us");
    for (const auto& lock : prof.locks) {
      std::printf("%-18s %12llu %14.3f %12.1f %14.3f %12.1f\n", lock.lock.c_str(),
                  static_cast<unsigned long long>(lock.wait_count),
                  static_cast<double>(lock.wait_sum_ns) / 1e6,
                  static_cast<double>(lock.wait_p99_ns) / 1e3,
                  static_cast<double>(lock.hold_sum_ns) / 1e6,
                  static_cast<double>(lock.hold_p99_ns) / 1e3);
    }

    std::printf("\nper-stage p99 breakdown of the e2e p99 (stages tile submit->finish):\n");
    std::printf("%-12s %12s %12s\n", "stage", "count", "p99 ms");
    for (size_t i = 0; i < prof.stage_p99_ns.size(); ++i) {
      std::printf("%-12s %12llu %12.3f\n", prof.stage_p99_ns[i].first.c_str(),
                  static_cast<unsigned long long>(prof.stage_count[i].second),
                  static_cast<double>(prof.stage_p99_ns[i].second) / 1e6);
    }
    std::printf("stage p99 sum %.3f ms vs e2e p99 %.3f ms -> %.1f%% attributed "
                "(acceptance target: >= 90%%)\n",
                static_cast<double>(prof.stage_p99_sum_ns) / 1e6,
                static_cast<double>(prof.e2e_p99_ns) / 1e6, prof.stage_coverage_pct);

    std::printf("\nspans: %llu buffered, %llu dropped (bounded rings); %zu ticket "
                "timelines assembled\n",
                static_cast<unsigned long long>(prof.spans_recorded),
                static_cast<unsigned long long>(prof.spans_dropped), prof.timelines);
    if (!prof.example_ticket.empty()) {
      std::printf("slowest ticket's timeline (%.3f ms) for %s:\n%s",
                  static_cast<double>(prof.example_span_ns) / 1e6,
                  prof.example_ticket.c_str(), prof.example_render.c_str());
    }
  }

  if (!json_path.empty()) {
    benchjson::Array run_array;
    for (const RunResult& run : runs) {
      benchjson::Object obj;
      obj.Number("workers", run.workers)
          .Number("served", run.stats.served)
          .Number("wall_ns", run.wall_ns)
          .Number("wall_tickets_per_sec", run.WallTps())
          .Number("effective_tickets_per_sec", run.EffectiveTps())
          .Number("max_shard_busy_cpu_ns", run.stats.max_shard_busy_cpu_ns)
          .Number("total_busy_cpu_ns", run.stats.total_busy_cpu_ns)
          .Number("stolen", run.stats.stolen)
          .Number("peak_queue_depth", run.stats.peak_queue_depth)
          .Number("busy_retries", run.busy_retries)
          .Number("p50_latency_ns", run.p50_ns)
          .Number("p95_latency_ns", run.p95_ns)
          .Number("p99_latency_ns", run.p99_ns)
          .Number("clock_ownership_violations", run.stats.clock_ownership_violations)
          .Number("audit_log_entries", run.audit.log_entries)
          .Number("audit_epoch_roots", run.audit.epoch_roots)
          .Number("audit_failures", run.audit.failures);
      run_array.Add(obj.Render());
    }
    benchjson::Object admission_obj;
    admission_obj.Number("capacity", admission.capacity)
        .Number("high_watermark", admission.high)
        .Number("low_watermark", admission.low)
        .Number("accepted", admission.accepted)
        .Number("rejected", admission.rejected)
        .Number("served_after_drain", admission.served_after_drain);
    benchjson::Object root;
    root.Str("bench", "serve_throughput")
        .Number("tickets", tickets)
        .Number("machines", kMachines)
        .Number("host_cores", host_cores)
        .Add("runs", run_array.Render())
        .Number("effective_scaling_8x_vs_1x", scaling)
        .Number("wall_scaling_8x_vs_1x", wall_scaling)
        .Add("admission", admission_obj.Render());
    if (profile) {
      benchjson::Array lock_array;
      for (const auto& lock : prof.locks) {
        benchjson::Object obj;
        obj.Str("lock", lock.lock)
            .Number("wait_count", lock.wait_count)
            .Number("wait_sum_ns", lock.wait_sum_ns)
            .Number("wait_p99_ns", lock.wait_p99_ns)
            .Number("hold_sum_ns", lock.hold_sum_ns)
            .Number("hold_p99_ns", lock.hold_p99_ns);
        lock_array.Add(obj.Render());
      }
      benchjson::Object stages_obj;
      for (const auto& [stage, p99] : prof.stage_p99_ns) {
        stages_obj.Number(stage + "_p99_ns", p99);
      }
      benchjson::Array pair_array;
      for (double pct : pair_overhead_pct) {
        pair_array.Add(benchjson::Num(pct));
      }
      benchjson::Object profile_obj;
      profile_obj.Number("workers", uint64_t{8})
          .Add("pair_overhead_pct", pair_array.Render())
          .Number("profile_overhead_pct", profile_overhead_pct)
          .Add("locks", lock_array.Render())
          .Add("stage_p99_ns", stages_obj.Render())
          .Number("e2e_p99_ns", prof.e2e_p99_ns)
          .Number("stage_p99_sum_ns", prof.stage_p99_sum_ns)
          .Number("stage_p99_coverage_pct", prof.stage_coverage_pct)
          .Number("spans_recorded", prof.spans_recorded)
          .Number("spans_dropped", prof.spans_dropped)
          .Number("timelines", prof.timelines)
          .Str("example_ticket", prof.example_ticket)
          .Number("example_ticket_span_ns", prof.example_span_ns);
      root.Add("profile", profile_obj.Render());
    }
    benchjson::WriteFile(json_path, root.Render());
  }
  return 0;
}
