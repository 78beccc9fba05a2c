// Ablation micro-benchmarks for the design choices DESIGN.md calls out:
//   * perforated-container deploy latency per ticket class (the paper's
//     "containers can be deployed within seconds" claim — simulated time);
//   * permission-broker round-trip cost (serialization + policy + logging);
//   * ITFS log_all on/off;
//   * the signature content-scan limit (the Figure 9 sig-mode knob);
//   * page-cache effect on repeated reads through the FUSE stack;
//   * anomaly-detector throughput over broker logs.

#include <benchmark/benchmark.h>

#include "bench/fig9_common.h"
#include "src/broker/anomaly.h"
#include "src/core/cluster.h"
#include "src/core/session.h"
#include "src/core/ticket_class.h"
#include "src/workload/ticket_gen.h"

namespace {

// Deploy latency (simulated) per ticket class.
void BM_DeploySimLatency(benchmark::State& state) {
  int cls = static_cast<int>(state.range(0));
  watchit::Cluster cluster;
  watchit::Machine& machine = cluster.AddMachine("userpc", witnet::Ipv4Addr(10, 0, 1, 50));
  watchit::ClusterManager manager(&cluster);
  uint64_t total_sim = 0;
  uint64_t count = 0;
  for (auto _ : state) {
    watchit::Ticket ticket;
    ticket.id = "TKT-" + std::to_string(count);
    ticket.target_machine = "userpc";
    ticket.assigned_class = witload::TicketClassName(cls);
    ticket.admin = "bench";
    auto deployment = manager.Deploy(ticket);
    if (deployment.ok()) {
      total_sim += machine.containit().FindSession(deployment->session)->deploy_duration_ns;
      ++count;
      (void)manager.Expire(&*deployment);
    }
  }
  state.counters["sim_us_per_deploy"] = benchmark::Counter(
      count == 0 ? 0.0 : static_cast<double>(total_sim) / static_cast<double>(count) / 1000.0);
}
BENCHMARK(BM_DeploySimLatency)->DenseRange(1, 11)->Iterations(20);

// The bench admin's shell on `machine`: a root process alone in a cgroup
// bound to ticket TKT-B of class T-5.
witos::Pid BenchShell(watchit::Machine& machine) {
  witos::Kernel& kernel = machine.kernel();
  const witos::Pid shell = *kernel.Clone(1, "bash", 0);
  const witos::CgroupId cgroup = kernel.cgroups().Create("session-bench", 0);
  (void)kernel.AssignCgroup(shell, cgroup);
  (void)machine.broker().BindTicket("TKT-B", "T-5", "bench", cgroup, /*expires_ns=*/UINT64_MAX);
  return shell;
}

// Wall-clock broker round trip: serialize -> policy -> execute ps -> log.
void BM_BrokerRoundTrip(benchmark::State& state) {
  watchit::Cluster cluster;
  watchit::Machine& machine = cluster.AddMachine("userpc", witnet::Ipv4Addr(10, 0, 1, 50));
  witbroker::BrokerClient client(&machine.broker_channel(), BenchShell(machine));
  for (auto _ : state) {
    auto out = client.Request(witbroker::kVerbPs, {});
    benchmark::DoNotOptimize(out);
  }
  state.counters["wire_bytes_per_call"] =
      benchmark::Counter(static_cast<double>(machine.broker_channel().bytes_on_wire()) /
                         static_cast<double>(machine.broker_channel().calls()));
}
BENCHMARK(BM_BrokerRoundTrip);

// ITFS blanket logging cost: grep-100KB with log_all on vs off.
void BM_ItfsLogAll(benchmark::State& state) {
  bool log_all = state.range(0) != 0;
  uint64_t sim = 0;
  for (auto _ : state) {
    fig9::BenchEnv env = fig9::MakeEnv(fig9::FsConfig::kItfsExtension);
    witcontain::Session* session = env.containit->FindSession(1);
    witfs::ItfsPolicy builder = session->spec.fs.policy;
    builder.set_inspection_mode(session->spec.fs.inspection);
    builder.set_log_all(log_all);
    session->itfs->SwapPolicy(builder.Compile());
    sim = fig9::RunGrepSmall(&env);
    state.SetIterationTime(static_cast<double>(sim) / 1e9);
  }
  state.counters["sim_ms"] = benchmark::Counter(static_cast<double>(sim) / 1e6);
}
BENCHMARK(BM_ItfsLogAll)->Arg(0)->Arg(1)->UseManualTime()->Iterations(2)->Unit(
    benchmark::kMillisecond);

// Signature scan-limit sweep: the knob behind ITFS+signature's Figure 9
// profile.
void BM_SignatureScanLimit(benchmark::State& state) {
  size_t limit = static_cast<size_t>(state.range(0));
  uint64_t sim = 0;
  for (auto _ : state) {
    fig9::BenchEnv env = fig9::MakeEnv(fig9::FsConfig::kItfsSignature);
    witcontain::Session* session = env.containit->FindSession(1);
    witfs::ItfsPolicy builder = session->spec.fs.policy;
    builder.set_inspection_mode(session->spec.fs.inspection);
    builder.set_content_scan_limit(limit);
    // A custom detector forces the gate to honor the full scan window: a
    // pure signature policy compiles down to a 64-byte read regardless of
    // the limit (required_head_bytes), which would flatten this sweep.
    witfs::ItfsRule deep;
    deep.name = "deep-scan";
    deep.action = witfs::RuleAction::kLogOnly;
    deep.custom = [](const std::string&, std::string_view head) {
      return head.find("CLASSIFIED") != std::string_view::npos;
    };
    builder.AddRule(std::move(deep));
    session->itfs->SwapPolicy(builder.Compile());
    sim = fig9::RunGrepSmall(&env);
    state.SetIterationTime(static_cast<double>(sim) / 1e9);
  }
  state.counters["sim_ms"] = benchmark::Counter(static_cast<double>(sim) / 1e6);
}
BENCHMARK(BM_SignatureScanLimit)
    ->Arg(64)
    ->Arg(4 * 1024)
    ->Arg(64 * 1024)
    ->Arg(256 * 1024)
    ->UseManualTime()
    ->Iterations(2)
    ->Unit(benchmark::kMillisecond);

// Page-cache effect: second grep pass over the same tree through FUSE+ITFS.
void BM_PageCacheSecondPass(benchmark::State& state) {
  bool warm = state.range(0) != 0;
  uint64_t sim = 0;
  for (auto _ : state) {
    fig9::BenchEnv env = fig9::MakeEnv(fig9::FsConfig::kItfsExtension);
    (void)fig9::RunGrepSmall(&env);  // first (cold) pass
    if (!warm) {
      env.kernel->DropCaches();
    }
    uint64_t start = env.kernel->clock().now_ns();
    (void)witload::RunGrep(env.kernel.get(), env.actor, "/data100k", "NEEDLE");
    sim = env.kernel->clock().now_ns() - start;
    state.SetIterationTime(static_cast<double>(sim) / 1e9);
  }
  state.counters["sim_ms"] = benchmark::Counter(static_cast<double>(sim) / 1e6);
}
BENCHMARK(BM_PageCacheSecondPass)->Arg(0)->Arg(1)->UseManualTime()->Iterations(2)->Unit(
    benchmark::kMillisecond);

// Pass-through read/write (paper §7.3): data ops bypass the ITFS daemon
// after an approved open.
void BM_ItfsPassthrough(benchmark::State& state) {
  bool passthrough = state.range(0) != 0;
  uint64_t sim = 0;
  for (auto _ : state) {
    witos::Kernel kernel("bench");
    witload::PopulateTree(&kernel, 1, "/data100k", fig9::BenchEnv::kGrepSmallFiles, 100 * 1024,
                          8, "NEEDLE", 42);
    witcontain::ContainIt containit(&kernel, nullptr);
    witcontain::PerforatedContainerSpec spec;
    spec.name = "pt";
    spec.fs.kind = witcontain::FsView::Kind::kWholeRoot;
    spec.fs.policy.AddRule(witfs::ItfsPolicy::DenyDocumentsRule());
    spec.fs.policy.set_log_all(false);
    spec.fs.passthrough = passthrough;
    spec.net.sniff = false;
    auto id = containit.Deploy(spec, "BENCH", "bench");
    witos::Pid shell = containit.FindSession(*id)->shell;
    kernel.DropCaches();
    uint64_t start = kernel.clock().now_ns();
    (void)witload::RunGrep(&kernel, shell, "/data100k", "NEEDLE");
    sim = kernel.clock().now_ns() - start;
    state.SetIterationTime(static_cast<double>(sim) / 1e9);
  }
  state.counters["sim_ms"] = benchmark::Counter(static_cast<double>(sim) / 1e6);
}
BENCHMARK(BM_ItfsPassthrough)->Arg(0)->Arg(1)->UseManualTime()->Iterations(2)->Unit(
    benchmark::kMillisecond);

// Encrypted vs. plain broker channel round trip.
void BM_BrokerEncryptedRoundTrip(benchmark::State& state) {
  bool encrypted = state.range(0) != 0;
  watchit::Cluster cluster;
  watchit::Machine& machine = cluster.AddMachine("userpc", witnet::Ipv4Addr(10, 0, 1, 50));
  if (encrypted) {
    machine.broker_channel().EnableEncryption(0x5ec23e7);
  }
  witbroker::BrokerClient client(&machine.broker_channel(), BenchShell(machine));
  for (auto _ : state) {
    auto out = client.Request(witbroker::kVerbPs, {});
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_BrokerEncryptedRoundTrip)->Arg(0)->Arg(1);

// Anomaly detection throughput over a synthetic broker log.
void BM_AnomalyAnalyze(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  std::vector<witbroker::BrokerEvent> events;
  events.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    events.push_back({i * 1000000ull, "admin-" + std::to_string(i % 7), "T",
                      witload::TicketClassName(static_cast<int>(i % 10) + 1),
                      i % 97 == 0 ? "read_file" : "ps",
                      {},
                      true});
  }
  witbroker::AnomalyDetector detector;
  detector.Fit(events);
  for (auto _ : state) {
    auto scores = detector.Analyze(events);
    benchmark::DoNotOptimize(scores);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_AnomalyAnalyze)->Arg(1000)->Arg(10000);

}  // namespace

BENCHMARK_MAIN();
