// Broker RPC batching bench: wire frames, bytes-on-wire and latency per
// ticket when every op crosses the wire on its own vs when the whole
// ticket rides one batch frame, at 1/2/4/8 concurrent admin sessions.
//
// Each worker thread is shared-nothing — its own kernel, policy manager,
// encrypted RpcChannel, PermissionBroker and BrokerClient — modelling
// independent machines; the quantity under test is the per-ticket wire
// cost, which the serving path pays once per ticket. Every ticket issues
// the same 8-op escalation sequence; the per-op side sends 8 Request()
// calls, each a one-op batch frame (16 frames, 8 seal/MAC pairs), the
// batched side queues all 8 on the pipeline and Flush()es one batch
// (2 frames, 1 seal/MAC pair).
//
// Invariants reported per run: the broker host's evidence chain carries
// the SAME number of records on both sides (batching amortizes the wire,
// never the audit trail) and the hash chain verifies.
//
// `--json PATH` writes the same numbers machine-readably (BENCH_*.json).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/json_out.h"
#include "src/broker/broker.h"
#include "src/broker/policy.h"
#include "src/broker/rpc.h"
#include "src/obs/metrics.h"
#include "src/os/kernel.h"

namespace {

constexpr size_t kOpsPerTicket = 8;
constexpr uint64_t kChannelKey = 0x5ec23e7;

// One escalation op of the synthetic ticket workload.
struct TicketOp {
  const char* verb;
  std::vector<std::string> args;
};

// A realistic mid-size ticket: mostly small-payload verbs, one kill of an
// already-gone pid (typed ESRCH round-trips), nothing long-running.
const std::vector<TicketOp>& TicketOps() {
  static const std::vector<TicketOp> ops = {
      {witbroker::kVerbPs, {}},
      {witbroker::kVerbReadFile, {"/etc/motd"}},
      {witbroker::kVerbRestartService, {"sshd"}},
      {witbroker::kVerbInstall, {"toolbox"}},
      {witbroker::kVerbReadFile, {"/etc/motd"}},
      {witbroker::kVerbKill, {"99999"}},
      {witbroker::kVerbRestartService, {"cron"}},
      {witbroker::kVerbPs, {}},
  };
  return ops;
}

// Everything one admin session needs, on its own machine.
struct Session {
  std::unique_ptr<witos::Kernel> kernel;
  witbroker::PolicyManager policy;
  witbroker::RpcChannel channel;
  witobs::MetricsRegistry metrics;
  std::unique_ptr<witbroker::PermissionBroker> broker;
  std::unique_ptr<witbroker::BrokerClient> client;
};

std::unique_ptr<Session> MakeSession(const std::string& ticket_id, const std::string& admin) {
  auto session = std::make_unique<Session>();
  session->kernel = std::make_unique<witos::Kernel>("host");
  witos::Pid broker_pid = *session->kernel->Clone(1, "PermissionBroker", 0);
  witbroker::ClassPolicy standard;
  standard.allowed_verbs = {witbroker::kVerbPs, witbroker::kVerbKill,
                            witbroker::kVerbReadFile, witbroker::kVerbInstall,
                            witbroker::kVerbRestartService};
  session->policy.SetPolicy("T-1", standard);
  session->channel.EnableEncryption(kChannelKey);
  session->channel.EnableMetrics(&session->metrics);
  session->broker = std::make_unique<witbroker::PermissionBroker>(
      session->kernel.get(), broker_pid, &session->policy, &session->channel);
  // The admin's shell: a root process alone in the cgroup the ticket is
  // bound to. The broker takes ticket and admin from that binding.
  const witos::Pid shell = *session->kernel->Clone(1, "bash", 0);
  const witos::CgroupId cgroup = session->kernel->cgroups().Create("session-1", 0);
  (void)session->kernel->AssignCgroup(shell, cgroup);
  (void)session->broker->BindTicket(ticket_id, "T-1", admin, cgroup, /*expires_ns=*/UINT64_MAX);
  session->client = std::make_unique<witbroker::BrokerClient>(&session->channel, shell);
  (void)session->kernel->WriteFile(1, "/etc/motd", "host motd\n");
  (void)session->kernel->MkDir(1, "/usr/progs");
  return session;
}

struct ThreadResult {
  uint64_t frames = 0;
  uint64_t bytes_on_wire = 0;
  size_t securelog_entries = 0;
  bool securelog_verified = false;
  std::vector<uint64_t> latencies_ns;  // one sample per ticket
};

struct RunResult {
  size_t workers = 0;
  size_t tickets = 0;
  uint64_t wall_ns = 0;
  uint64_t frames = 0;
  uint64_t bytes_on_wire = 0;
  size_t securelog_entries = 0;
  bool securelog_verified = true;
  uint64_t p50_ns = 0;
  uint64_t p95_ns = 0;
  uint64_t p99_ns = 0;

  double FramesPerTicket() const {
    return tickets == 0 ? 0.0 : static_cast<double>(frames) / static_cast<double>(tickets);
  }
  double BytesPerTicket() const {
    return tickets == 0 ? 0.0
                        : static_cast<double>(bytes_on_wire) / static_cast<double>(tickets);
  }
  double TicketsPerSec() const {
    return wall_ns == 0 ? 0.0
                        : static_cast<double>(tickets) * 1e9 / static_cast<double>(wall_ns);
  }
};

uint64_t Percentile(std::vector<uint64_t> sorted, double p) {
  if (sorted.empty()) {
    return 0;
  }
  size_t index = static_cast<size_t>(p * static_cast<double>(sorted.size() - 1) / 100.0);
  return sorted[index];
}

ThreadResult RunThread(bool batched, size_t tickets, size_t worker_index) {
  char ticket_id[32];
  std::snprintf(ticket_id, sizeof(ticket_id), "TKT-20260805-%05zu", worker_index);
  auto session = MakeSession(ticket_id, "admin03@it.example.org");
  const auto& ops = TicketOps();

  ThreadResult result;
  result.latencies_ns.reserve(tickets);
  for (size_t t = 0; t < tickets; ++t) {
    const uint64_t start_ns = witobs::MonotonicNowNs();
    if (batched) {
      session->client->Begin();
      for (const TicketOp& op : ops) {
        session->client->Queue(op.verb, op.args);
      }
      auto results = session->client->Flush();
      if (results.size() != ops.size()) {
        std::fprintf(stderr, "!! batch answered %zu of %zu ops\n", results.size(),
                     ops.size());
      }
    } else {
      for (const TicketOp& op : ops) {
        (void)session->client->Request(op.verb, op.args);
      }
    }
    result.latencies_ns.push_back(witobs::MonotonicNowNs() - start_ns);
  }
  result.frames = session->channel.frames();
  result.bytes_on_wire = session->channel.bytes_on_wire();
  result.securelog_entries = session->broker->log().size();
  result.securelog_verified = session->broker->log().Verify();
  return result;
}

RunResult RunOnce(bool batched, size_t workers, size_t tickets_per_worker) {
  std::vector<ThreadResult> thread_results(workers);
  const uint64_t start_ns = witobs::MonotonicNowNs();
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&thread_results, batched, tickets_per_worker, w]() {
      thread_results[w] = RunThread(batched, tickets_per_worker, w);
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }

  RunResult result;
  result.workers = workers;
  result.tickets = workers * tickets_per_worker;
  result.wall_ns = witobs::MonotonicNowNs() - start_ns;
  std::vector<uint64_t> latencies;
  for (const ThreadResult& tr : thread_results) {
    result.frames += tr.frames;
    result.bytes_on_wire += tr.bytes_on_wire;
    result.securelog_entries += tr.securelog_entries;
    result.securelog_verified = result.securelog_verified && tr.securelog_verified;
    latencies.insert(latencies.end(), tr.latencies_ns.begin(), tr.latencies_ns.end());
  }
  std::sort(latencies.begin(), latencies.end());
  result.p50_ns = Percentile(latencies, 50);
  result.p95_ns = Percentile(latencies, 95);
  result.p99_ns = Percentile(latencies, 99);
  return result;
}

void PrintRun(const char* mode, const RunResult& run) {
  std::printf("%-7s %8zu %10zu %12.1f %14.1f %12.0f %10.1f %10.1f %10.1f %6s\n", mode,
              run.workers, run.tickets, run.FramesPerTicket(), run.BytesPerTicket(),
              run.TicketsPerSec(), static_cast<double>(run.p50_ns) / 1e3,
              static_cast<double>(run.p95_ns) / 1e3, static_cast<double>(run.p99_ns) / 1e3,
              run.securelog_verified ? "ok" : "FAIL");
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = benchjson::ConsumeJsonFlag(&argc, argv);
  size_t tickets_per_worker = 2000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tickets") == 0 && i + 1 < argc) {
      tickets_per_worker = static_cast<size_t>(std::strtoull(argv[i + 1], nullptr, 10));
      ++i;
    }
  }

  std::printf("=== broker rpc batching: %zu-op tickets, %zu tickets/worker ===\n",
              kOpsPerTicket, tickets_per_worker);
  std::printf("%-7s %8s %10s %12s %14s %12s %10s %10s %10s %6s\n", "mode", "workers",
              "tickets", "frames/tkt", "bytes/tkt", "tickets/s", "p50 us", "p95 us",
              "p99 us", "log");

  std::vector<RunResult> per_op_runs;
  std::vector<RunResult> batched_runs;
  bool log_counts_equal = true;
  for (size_t workers : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    RunResult per_op = RunOnce(/*batched=*/false, workers, tickets_per_worker);
    RunResult batched = RunOnce(/*batched=*/true, workers, tickets_per_worker);
    PrintRun("per-op", per_op);
    PrintRun("batched", batched);
    log_counts_equal =
        log_counts_equal && per_op.securelog_entries == batched.securelog_entries;
    per_op_runs.push_back(per_op);
    batched_runs.push_back(batched);
  }

  const double frame_reduction =
      batched_runs.front().FramesPerTicket() == 0.0
          ? 0.0
          : per_op_runs.front().FramesPerTicket() / batched_runs.front().FramesPerTicket();
  const double bytes_reduction =
      batched_runs.front().BytesPerTicket() == 0.0
          ? 0.0
          : per_op_runs.front().BytesPerTicket() / batched_runs.front().BytesPerTicket();
  std::printf("\nwire frames per ticket: %.1f -> %.1f (%.1fx, acceptance target >= 4x)\n",
              per_op_runs.front().FramesPerTicket(), batched_runs.front().FramesPerTicket(),
              frame_reduction);
  std::printf("bytes on wire per ticket: %.0f -> %.0f (%.2fx, acceptance target >= 2x)\n",
              per_op_runs.front().BytesPerTicket(), batched_runs.front().BytesPerTicket(),
              bytes_reduction);
  std::printf("chain records identical per-op vs batched: %s; chains verified: %s\n",
              log_counts_equal ? "yes" : "NO",
              batched_runs.back().securelog_verified ? "yes" : "NO");

  if (!json_path.empty()) {
    benchjson::Array runs;
    for (size_t i = 0; i < per_op_runs.size(); ++i) {
      for (const RunResult* run : {&per_op_runs[i], &batched_runs[i]}) {
        benchjson::Object obj;
        obj.Str("mode", run == &per_op_runs[i] ? "per_op" : "batched")
            .Number("workers", run->workers)
            .Number("tickets", run->tickets)
            .Number("frames", run->frames)
            .Number("frames_per_ticket", run->FramesPerTicket())
            .Number("bytes_on_wire", run->bytes_on_wire)
            .Number("bytes_per_ticket", run->BytesPerTicket())
            .Number("tickets_per_sec", run->TicketsPerSec())
            .Number("p50_latency_ns", run->p50_ns)
            .Number("p95_latency_ns", run->p95_ns)
            .Number("p99_latency_ns", run->p99_ns)
            .Number("securelog_entries", run->securelog_entries)
            .Boolean("securelog_verified", run->securelog_verified);
        runs.Add(obj.Render());
      }
    }
    benchjson::Object root;
    root.Str("bench", "rpc_batching")
        .Number("ops_per_ticket", kOpsPerTicket)
        .Number("tickets_per_worker", tickets_per_worker)
        .Add("runs", runs.Render())
        .Number("frame_reduction_per_op_over_batched", frame_reduction)
        .Number("bytes_reduction_per_op_over_batched", bytes_reduction)
        .Boolean("securelog_counts_equal", log_counts_equal);
    benchjson::WriteFile(json_path, root.Render());
  }
  return 0;
}
