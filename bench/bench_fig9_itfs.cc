// Figure 9 reproduction: ITFS overhead on grep-100KB, grep-1MB, Postmark
// and SysBench under three filesystem configurations — ext4 (baseline),
// ITFS with extension monitoring, and ITFS with signature monitoring.
//
// The reported metric is simulated time (manual timing): the simulator's
// clock charges disk streaming, page-cache copies, metadata mutations, FUSE
// crossings and signature scans, so the *ratios* are meaningful while wall
// time of the simulator is not. After the google-benchmark run, a summary
// prints the normalized chart exactly as the paper's Figure 9 lays it out.

#include <benchmark/benchmark.h>

#include <time.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench/fig9_common.h"
#include "bench/json_out.h"
#include "src/obs/metrics.h"

namespace {

using fig9::BenchEnv;
using fig9::FsConfig;
using fig9::MakeEnv;

// workload name -> config -> sim ns (filled by the benchmarks, used by the
// summary table).
std::map<std::string, std::map<FsConfig, uint64_t>>& Results() {
  static std::map<std::string, std::map<FsConfig, uint64_t>> results;
  return results;
}

void Record(const std::string& workload, FsConfig config, uint64_t sim_ns,
            benchmark::State& state) {
  Results()[workload][config] = sim_ns;
  state.SetIterationTime(static_cast<double>(sim_ns) / 1e9);
  state.counters["sim_ms"] =
      benchmark::Counter(static_cast<double>(sim_ns) / 1e6, benchmark::Counter::kAvgIterations);
}

FsConfig ConfigOf(const benchmark::State& state) {
  return static_cast<FsConfig>(state.range(0));
}

void BM_Grep100KB(benchmark::State& state) {
  for (auto _ : state) {
    BenchEnv env = MakeEnv(ConfigOf(state));
    Record("grep-100KB", ConfigOf(state), fig9::RunGrepSmall(&env), state);
  }
}

void BM_Grep1MB(benchmark::State& state) {
  for (auto _ : state) {
    BenchEnv env = MakeEnv(ConfigOf(state));
    Record("grep-1MB", ConfigOf(state), fig9::RunGrepLarge(&env), state);
  }
}

void BM_Postmark(benchmark::State& state) {
  uint32_t seed = 1;
  for (auto _ : state) {
    BenchEnv env = MakeEnv(ConfigOf(state));
    Record("Postmark", ConfigOf(state), fig9::RunPostmarkBench(&env, seed++), state);
  }
}

void BM_SysBench(benchmark::State& state) {
  uint32_t seed = 1;
  for (auto _ : state) {
    BenchEnv env = MakeEnv(ConfigOf(state));
    Record("SysBench", ConfigOf(state), fig9::RunSysbenchBench(&env, seed++), state);
  }
}

void ConfigArgs(benchmark::internal::Benchmark* bench) {
  bench->Arg(static_cast<int>(FsConfig::kExt4))
      ->Arg(static_cast<int>(FsConfig::kItfsExtension))
      ->Arg(static_cast<int>(FsConfig::kItfsSignature))
      ->UseManualTime()
      ->Iterations(2)
      ->Unit(benchmark::kMillisecond);
}

BENCHMARK(BM_Grep100KB)->Apply(ConfigArgs);
BENCHMARK(BM_Grep1MB)->Apply(ConfigArgs);
BENCHMARK(BM_Postmark)->Apply(ConfigArgs);
BENCHMARK(BM_SysBench)->Apply(ConfigArgs);

void PrintFigure9() {
  std::printf("\n=== Figure 9: ITFS performance, normalized to ext4 = 1.00 ===\n");
  std::printf("(paper:        ext4 1.00 | ITFS+extension .75/.98/.40/.97 | "
              "ITFS+signature .31/.97/.20/.96)\n\n");
  std::printf("%-12s %10s %16s %16s\n", "workload", "ext4", "ITFS+extension",
              "ITFS+signature");
  for (const char* workload : {"grep-100KB", "grep-1MB", "Postmark", "SysBench"}) {
    auto& row = Results()[workload];
    if (row.count(FsConfig::kExt4) == 0) {
      continue;
    }
    double base = static_cast<double>(row[FsConfig::kExt4]);
    std::printf("%-12s %10.2f %16.2f %16.2f\n", workload, 1.0,
                base / static_cast<double>(row[FsConfig::kItfsExtension]),
                base / static_cast<double>(row[FsConfig::kItfsSignature]));
  }
  std::printf("\nhigher is better (normalized performance, baseline = 1.0)\n");
}

// Instrumented/uninstrumented pass pairs behind the metrics-layer overhead.
constexpr int kOverheadPairs = 11;

struct OverheadResult {
  uint64_t bare_cpu_ns = 0;   // median pass
  uint64_t wired_cpu_ns = 0;  // median pass
  double overhead_pct = 0.0;  // median of the per-pair overheads
  double overhead_q1_pct = 0.0;
  double overhead_q3_pct = 0.0;
  size_t series = 0;
  uint64_t gated_ops = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_invalidations = 0;
  uint64_t compile_observations = 0;
};

uint64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull + static_cast<uint64_t>(ts.tv_nsec);
}

// One fixed ITFS+signature workload pass (grep-100KB + Postmark); returns
// the CPU time the calling thread spent on it. Simulated time is identical
// with and without the metrics layer: what the instrumentation costs is
// real CPU on the gate path. The whole pass runs on the calling thread, so
// its thread-CPU time is the honest measure; unlike wall time, it does not
// count time spent descheduled.
uint64_t TimedWorkloadPass(bool instrument) {
  BenchEnv env = MakeEnv(FsConfig::kItfsSignature, instrument);
  uint64_t start = ThreadCpuNs();
  fig9::RunGrepSmall(&env);
  fig9::RunPostmarkBench(&env, 7);
  return ThreadCpuNs() - start;
}

// The value at quantile `q` of `values` (nearest rank), which it sorts.
template <typename T>
T Quantile(std::vector<T>* values, double q) {
  std::sort(values->begin(), values->end());
  return (*values)[static_cast<size_t>(q * static_cast<double>(values->size() - 1) + 0.5)];
}

OverheadResult PrintMetricsOverhead() {
  // Each pair runs both passes, alternating which goes first, so neither
  // side always runs on a warmer heap and cache; the median and quartiles
  // of the per-pair overheads give the effect and its spread.
  std::vector<uint64_t> bare_ns;
  std::vector<uint64_t> wired_ns;
  std::vector<double> overhead_pct;
  TimedWorkloadPass(false);  // warm-up, discarded
  for (int i = 0; i < kOverheadPairs; ++i) {
    const bool bare_first = i % 2 == 0;
    const uint64_t first = TimedWorkloadPass(!bare_first);
    const uint64_t second = TimedWorkloadPass(bare_first);
    const uint64_t bare = bare_first ? first : second;
    const uint64_t wired = bare_first ? second : first;
    bare_ns.push_back(bare);
    wired_ns.push_back(wired);
    overhead_pct.push_back(100.0 *
                           (static_cast<double>(wired) / static_cast<double>(bare) - 1.0));
  }
  OverheadResult result;
  result.bare_cpu_ns = Quantile(&bare_ns, 0.5);
  result.wired_cpu_ns = Quantile(&wired_ns, 0.5);
  result.overhead_pct = Quantile(&overhead_pct, 0.5);
  result.overhead_q1_pct = Quantile(&overhead_pct, 0.25);
  result.overhead_q3_pct = Quantile(&overhead_pct, 0.75);

  // One more instrumented pass, kept alive to report what the registry saw.
  BenchEnv env = MakeEnv(FsConfig::kItfsSignature, true);
  fig9::RunGrepSmall(&env);
  fig9::RunPostmarkBench(&env, 7);
  uint64_t gated = 0;
  for (const char* op : {"open", "read", "write", "readdir", "unlink", "rename", "attr"}) {
    gated += env.metrics->CounterValue("watchit_itfs_ops_total",
                                       {{"op", op}, {"outcome", "allow"}});
    gated += env.metrics->CounterValue("watchit_itfs_ops_total",
                                       {{"op", op}, {"outcome", "deny"}});
  }
  const witobs::Histogram* read_latency =
      env.metrics->FindHistogram("watchit_itfs_op_latency_ns", {{"op", "read"}});

  std::printf("\n=== metrics-layer overhead (ITFS+signature, grep-100KB + Postmark) ===\n");
  std::printf("%-28s %12.2f thread-CPU ms (median pass)\n", "uninstrumented",
              static_cast<double>(result.bare_cpu_ns) / 1e6);
  std::printf("%-28s %12.2f thread-CPU ms (median pass)\n", "with MetricsRegistry",
              static_cast<double>(result.wired_cpu_ns) / 1e6);
  std::printf("%-28s %+12.2f %%   median of %d alternating pairs, quartiles %+.2f / %+.2f %%"
              "   (acceptance target: < 5%%)\n",
              "overhead", result.overhead_pct, kOverheadPairs, result.overhead_q1_pct,
              result.overhead_q3_pct);
  std::printf("%-28s %12zu series, %llu gated ops counted\n", "registry after one pass",
              env.metrics->SeriesCount(), static_cast<unsigned long long>(gated));
  if (read_latency != nullptr && read_latency->Count() > 0) {
    std::printf("%-28s p50 %llu / p95 %llu / p99 %llu sim ns over %llu reads\n",
                "read gate latency",
                static_cast<unsigned long long>(read_latency->Percentile(50)),
                static_cast<unsigned long long>(read_latency->Percentile(95)),
                static_cast<unsigned long long>(read_latency->Percentile(99)),
                static_cast<unsigned long long>(read_latency->Count()));
  }
  result.series = env.metrics->SeriesCount();
  result.gated_ops = gated;
  result.cache_hits = env.metrics->CounterValue("watchit_itfs_verdict_cache_hits");
  result.cache_misses = env.metrics->CounterValue("watchit_itfs_verdict_cache_misses");
  result.cache_invalidations =
      env.metrics->CounterValue("watchit_itfs_verdict_cache_invalidations");
  const witobs::Histogram* compile_hist =
      env.metrics->FindHistogram("watchit_policy_compile_ns");
  result.compile_observations = compile_hist == nullptr ? 0 : compile_hist->Count();
  std::printf("%-28s %llu hits / %llu misses / %llu invalidations\n", "verdict cache",
              static_cast<unsigned long long>(result.cache_hits),
              static_cast<unsigned long long>(result.cache_misses),
              static_cast<unsigned long long>(result.cache_invalidations));
  return result;
}

// The headline numbers, machine-readably: per-workload normalized
// performance (ext4 = 1.0, higher is better, as in the paper's chart) plus
// the metrics-layer overhead block.
std::string RenderJson(const OverheadResult& overhead) {
  benchjson::Array workloads;
  for (const char* workload : {"grep-100KB", "grep-1MB", "Postmark", "SysBench"}) {
    auto& row = Results()[workload];
    if (row.count(FsConfig::kExt4) == 0) {
      continue;
    }
    double base = static_cast<double>(row[FsConfig::kExt4]);
    benchjson::Object obj;
    obj.Str("workload", workload)
        .Number("ext4_sim_ns", row[FsConfig::kExt4])
        .Number("itfs_extension_sim_ns", row[FsConfig::kItfsExtension])
        .Number("itfs_signature_sim_ns", row[FsConfig::kItfsSignature])
        .Number("itfs_extension_normalized",
                base / static_cast<double>(row[FsConfig::kItfsExtension]))
        .Number("itfs_signature_normalized",
                base / static_cast<double>(row[FsConfig::kItfsSignature]));
    workloads.Add(obj.Render());
  }
  benchjson::Object overhead_obj;
  overhead_obj.Number("uninstrumented_thread_cpu_ns", overhead.bare_cpu_ns)
      .Number("instrumented_thread_cpu_ns", overhead.wired_cpu_ns)
      .Number("pairs", static_cast<uint64_t>(kOverheadPairs))
      .Number("overhead_pct", overhead.overhead_pct)
      .Number("overhead_q1_pct", overhead.overhead_q1_pct)
      .Number("overhead_q3_pct", overhead.overhead_q3_pct)
      .Number("registry_series", overhead.series)
      .Number("gated_ops", overhead.gated_ops);
  benchjson::Object cache_obj;
  cache_obj.Number("hits", overhead.cache_hits)
      .Number("misses", overhead.cache_misses)
      .Number("invalidations", overhead.cache_invalidations)
      .Number("policy_compile_observations", overhead.compile_observations);
  benchjson::Object root;
  root.Str("bench", "fig9_itfs")
      .Number("host_cores",
              static_cast<uint64_t>(std::max(1u, std::thread::hardware_concurrency())))
      .Add("workloads", workloads.Render())
      .Add("metrics_overhead", overhead_obj.Render())
      .Add("verdict_cache", cache_obj.Render());
  return root.Render();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = benchjson::ConsumeJsonFlag(&argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  PrintFigure9();
  const OverheadResult overhead = PrintMetricsOverhead();
  if (!json_path.empty()) {
    benchjson::WriteFile(json_path, RenderJson(overhead));
  }
  return 0;
}
