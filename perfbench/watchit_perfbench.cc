// The WatchIT benchmark program: one process runs one workload.
//
//   watchit_perfbench --workload helpdesk|long_sessions|admin_files
//                     --seed N --seconds S --trace 0|1
//
// Workloads (README.md in this directory gives the reasons for each):
//   helpdesk       evaluation-distribution tickets through witserve's
//                  ServerPool, open loop, Poisson arrivals at a fixed rate.
//   long_sessions  the same serving set-up, but every ticket repeats its
//                  class's ops with a planted beyond-view escalation per
//                  repetition, at a lower fixed rate.
//   admin_files    a closed loop of admin threads, each inside its own
//                  Figure 9 container, running a Postmark-style file mix
//                  plus recursive grep reads.
//
// --trace 0 measures the end-to-end metrics; its only instrument is the
// allocation counter's one increment per operator new.
// --trace 1 repeats the serving run and adds the per-layer ledger: the
// benchmark times each layer from outside, around the calls into its public
// functions, on one thread over the same input stream.
//
// Every metric is printed as "metric <name> = <value> <unit>"; failed
// correctness checks print "check FAILED: ..."; the replay/file digest is
// printed as "digest <key> <value>". The last line is one JSON object with
// the keys correct, attempted, failed and metrics. The exit code is 0 only
// when every check passed.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <new>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/container/containit.h"
#include "src/core/cluster.h"
#include "src/core/deploy.h"
#include "src/core/session.h"
#include "src/core/workflow.h"
#include "src/durability/durability.h"
#include "src/fs/itfs_policy.h"
#include "src/obs/metrics.h"
#include "src/obs/profile.h"
#include "src/os/memfs.h"
#include "src/serve/loadgen.h"
#include "src/serve/pool.h"
#include "src/workload/ticket_gen.h"

// ---------------------------------------------------------------------------
// Allocation counting: every operator new on a thread bumps that thread's
// counter. Compiled into this executable only; the libraries are unchanged.

namespace perfbench {
thread_local uint64_t t_allocs = 0;
}  // namespace perfbench

void* operator new(std::size_t size) {
  ++perfbench::t_allocs;
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {
namespace {

// ---------------------------------------------------------------------------
// Fixed workload constants. The open-loop rates are about 40% of the highest
// rate each workload sustained once on a 4-core host (about 4500 tickets/s
// for helpdesk over 3 s; about 800 for long_sessions over 10 s, where
// per-ticket cost grows with the history a run builds up). They never scale
// per run, so a slowdown shows up as CPU and latency instead of being
// absorbed by a lower rate.

constexpr double kHelpdeskRate = 1800.0;     // tickets/s offered
constexpr double kLongSessionsRate = 300.0;  // tickets/s offered
constexpr size_t kMachines = 16;
constexpr size_t kSpecialists = 8;
constexpr size_t kQueueCapacity = 1 << 15;
// long_sessions: each repetition is the class's ops plus one planted
// beyond-view op (about 50 ops and 6 broker escalations per ticket).
constexpr size_t kLongRepetitions = 12;
// Tickets in each single-threaded ledger pass (trace mode).
constexpr size_t kLedgerTicketsHelpdesk = 1500;
constexpr size_t kLedgerTicketsLong = 1000;
// Set-ups per run; setup_s is their median.
constexpr int kTicketSetupRepeats = 9;
constexpr int kAdminSetupRepeats = 5;

// admin_files sizing. The small-file tree has more distinct paths than the
// ITFS verdict cache (4096 entries); the grep tree is larger than the 64 MiB
// page cache, so the recursive grep streams from the lower filesystem.
constexpr size_t kMaxAdminThreads = 2;
constexpr size_t kVerdictCacheEntries = 4096;  // Itfs::kVerdictCacheCapacity
constexpr size_t kSmallFiles = 5000;
constexpr size_t kSmallDirs = 50;
constexpr size_t kSmallMin = 512;
constexpr size_t kSmallMax = 4096;
constexpr size_t kGrepFiles = 144;
constexpr size_t kGrepDirs = 12;
constexpr size_t kGrepFileBytes = 512 * 1024;
constexpr size_t kGrepReadChunk = 128 * 1024;
// Transactions per thread covered by the admin_files digest; every thread
// runs at least this many, whatever --seconds says.
constexpr size_t kDigestTxns = 2000;
// Transactions per single-threaded pass in admin_files trace mode.
constexpr size_t kTracePassTxns = 20000;
const char kNeedle[] = "NEEDLE";

// ---------------------------------------------------------------------------
// Clocks and small statistics helpers.

uint64_t NowNs() { return witobs::MonotonicNowNs(); }

uint64_t ClockNs(clockid_t id) {
  timespec ts;
  clock_gettime(id, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull + static_cast<uint64_t>(ts.tv_nsec);
}
uint64_t ThreadCpuNs() { return ClockNs(CLOCK_THREAD_CPUTIME_ID); }
uint64_t ProcessCpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }

double PeakRssMb() {
  rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Nearest-rank quantile of exact samples; +inf marks a failed sample.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

size_t HostCores() { return std::max(1u, std::thread::hardware_concurrency()); }

// ---------------------------------------------------------------------------
// Report: metrics in the benchmark's fixed order plus correctness state.

const char* const kEndToEnd[][2] = {
    {"cpu_us_per_op", "us"}, {"throughput_per_s", "1/s"}, {"setup_s", "s"}, {"peak_rss_mb", "MB"},
};

const char* const kLedgerLines[] = {
    "prepare",      "deploy.image_lookup", "deploy.construct", "deploy.bind",
    "deploy.issue_cert", "session.login",  "session.replay",   "expire",
};
const char* const kLockGroups[] = {"ca",     "dispatcher", "deploy.queue", "serve.queue",
                                   "broker", "securelog",  "journal"};
const char* const kReplayCounts[] = {
    "broker.escalations", "rpc.frames",      "rpc.bytes",     "securelog.appends",
    "securelog.epoch_seals", "journal.records", "journal.bytes", "journal.barriers",
};
const char* const kFsOps[] = {"open", "read", "write", "unlink", "readdir"};

// The per-layer metric names and units, in the order BENCHMARK.json lists
// them. Every run with --trace 1 reports all of them; a layer a workload does
// not exercise reads 0.
std::vector<std::pair<std::string, std::string>> PerLayerNames() {
  // The latencies sit here rather than among the bounded end-to-end
  // metrics: on a shared 4-vCPU host their run-to-run spread is wider than
  // any bound the benchmark may set.
  std::vector<std::pair<std::string, std::string>> names = {{"latency_p50_ms", "ms"},
                                                            {"latency_p99_ms", "ms"}};
  for (const char* line : kLedgerLines) {
    names.emplace_back(std::string("ledger.") + line + ".cpu_ns", "ns");
    names.emplace_back(std::string("ledger.") + line + ".allocs", "count");
  }
  names.emplace_back("ledger.total.cpu_ns", "ns");
  names.emplace_back("ledger.coverage", "ratio");
  for (const char* count : kReplayCounts) {
    names.emplace_back(count, std::string(count).ends_with(".bytes") ? "bytes" : "count");
  }
  for (const char* group : kLockGroups) {
    names.emplace_back(std::string("lock.") + group + ".wait_ns", "ns");
    names.emplace_back(std::string("lock.") + group + ".acquires", "count");
  }
  names.emplace_back("serve.steal_ratio", "ratio");
  names.emplace_back("serve.peak_queue_depth", "count");
  names.emplace_back("deploy.peak_inflight", "count");
  names.emplace_back("deploy.rollbacks", "count");
  names.emplace_back("pagecache.hit_ratio", "ratio");
  names.emplace_back("gen.lag_p99_ms", "ms");
  for (const char* op : kFsOps) {
    names.emplace_back(std::string("fs.") + op + ".cpu_ns", "ns");
  }
  names.emplace_back("itfs.overhead_x", "ratio");
  names.emplace_back("itfs.verdict_cache.hit_ratio", "ratio");
  names.emplace_back("itfs.verdict_cache.invalidations_per_txn", "count");
  names.emplace_back("fs.allocs_per_txn", "count");
  names.emplace_back("tracing_overhead_pct", "%");
  return names;
}

struct Report {
  bool trace = false;
  std::map<std::string, double> values;
  std::vector<std::string> problems;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Set(const std::string& name, double value) { values[name] = value; }
  void Check(bool ok, const std::string& what) {
    if (!ok) {
      problems.push_back(what);
    }
  }
  void Info(const std::string& name, double value, const char* unit) {
    std::printf("info %s = %.6g %s\n", name.c_str(), value, unit);
  }
  // The median and p99 of exact per-operation samples; printed on every run.
  void Latencies(const std::vector<double>& latency_ms) {
    for (const auto& [name, q] : {std::pair{"latency_p50_ms", 0.50}, {"latency_p99_ms", 0.99}}) {
      Set(name, Quantile(latency_ms, q));
      Info(name, values[name], "ms");
    }
  }

  // Prints every metric line, the failed checks and the final JSON line.
  int Emit() const {
    std::vector<std::pair<std::string, std::string>> names;
    if (trace) {
      names = PerLayerNames();
    } else {
      for (const auto& metric : kEndToEnd) {
        names.emplace_back(metric[0], metric[1]);
      }
    }
    std::string json = "{\"correct\": ";
    json += problems.empty() ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, unit] : names) {
      auto it = values.find(name);
      double value = it == values.end() ? 0.0 : it->second;
      if (!std::isfinite(value)) {
        value = 0.0;
      }
      std::printf("metric %s = %.12g %s\n", name.c_str(), value, unit.c_str());
      char buf[256];
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                    first ? "" : ", ", name.c_str(), value, unit.c_str());
      json += buf;
      first = false;
    }
    json += "}}";
    for (const std::string& problem : problems) {
      std::printf("check FAILED: %s\n", problem.c_str());
    }
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return problems.empty() ? 0 : 1;
  }
};

// ---------------------------------------------------------------------------
// Ticket workloads: set-up.

std::unique_ptr<watchit::ItFramework> TrainFramework(uint32_t seed) {
  witload::TicketGenerator::Options options;
  options.seed = seed ^ 0x5eedu;
  witload::TicketGenerator gen(options);
  auto history = gen.GenerateBatch(800, witload::TicketGenerator::HistoricalDistribution());
  std::vector<std::pair<std::string, std::string>> labelled;
  labelled.reserve(history.size());
  for (const auto& ticket : history) {
    labelled.emplace_back(ticket.text, ticket.true_class);
  }
  watchit::ItFramework::Config config;
  config.lda.iterations = 60;
  auto framework = std::make_unique<watchit::ItFramework>(config);
  framework->TrainOnHistory(labelled);
  return framework;
}

// One cluster with its journal and dispatcher. Member order is teardown
// order in reverse: the cluster goes before the journal its listeners feed
// and before the registry its locks report into.
struct TicketEnv {
  std::unique_ptr<witobs::MetricsRegistry> registry;
  std::shared_ptr<witos::MemFs> journal_fs;
  std::unique_ptr<witdur::DurabilityManager> durability;
  std::unique_ptr<watchit::Cluster> cluster;
  std::unique_ptr<watchit::Dispatcher> dispatcher;
};

TicketEnv MakeTicketEnv() {
  TicketEnv env;
  env.registry = std::make_unique<witobs::MetricsRegistry>();
  env.journal_fs = std::make_shared<witos::MemFs>();
  env.durability = std::make_unique<witdur::DurabilityManager>(env.journal_fs);
  env.cluster = std::make_unique<watchit::Cluster>();
  for (size_t i = 0; i < kMachines; ++i) {
    char name[16];
    std::snprintf(name, sizeof(name), "host%02zu", i);
    env.cluster->AddMachine(name, witnet::Ipv4Addr(10, 0, 3, static_cast<uint8_t>(10 + i)));
  }
  env.durability->Attach(env.cluster.get());
  env.durability->EnableMetrics(env.registry.get());
  env.dispatcher = std::make_unique<watchit::Dispatcher>();
  const std::set<std::string> all_classes = {"T-1", "T-2", "T-3", "T-4",  "T-5", "T-6",
                                             "T-7", "T-8", "T-9", "T-10", "T-11"};
  for (size_t i = 0; i < kSpecialists; ++i) {
    env.dispatcher->AddSpecialist("admin" + std::to_string(i), all_classes);
  }
  return env;
}

witserve::ServerPool::Options PoolOptions() {
  witserve::ServerPool::Options options;
  // One core stays with the arrival generator. Everything else, the deploy
  // mode included, is the pool's default.
  options.workers = std::max<size_t>(1, HostCores() - 1);
  options.queue.capacity = kQueueCapacity;
  return options;
}

// Every beyond-view op the generator plants, collected from a seeded batch.
std::vector<witload::RequiredOp> HarvestEscalationOps(uint32_t seed) {
  witload::TicketGenerator::Options options;
  options.seed = seed ^ 0xe5ca1u;
  options.with_ops = true;
  witload::TicketGenerator gen(options);
  std::vector<witload::RequiredOp> ops;
  std::set<std::string> seen;
  for (const auto& ticket :
       gen.GenerateBatch(4000, witload::TicketGenerator::EvaluationDistribution())) {
    for (const auto& op : ticket.ops) {
      if (!op.beyond_view) {
        continue;
      }
      std::string key = witload::OpKindName(op.kind) + "|" + op.path + "|" + op.service + "|" +
                        op.endpoint_name + "|" + std::to_string(op.port);
      if (seen.insert(key).second) {
        ops.push_back(op);
      }
    }
  }
  return ops;
}

// The seeded arrival stream: LoadGenerator's tickets, targets and Poisson
// offsets; long_sessions then lengthens each ticket's op list.
std::vector<witserve::LoadGenerator::Arrival> MakeArrivals(const witserve::ServerPool& pool,
                                                           bool long_sessions, uint32_t seed,
                                                           double rate, size_t tickets) {
  witserve::LoadGenerator::Options options;
  options.seed = seed;
  options.tickets = tickets;
  options.arrivals_per_sec = rate;
  witserve::LoadGenerator loadgen(options);
  std::vector<witserve::LoadGenerator::Arrival> arrivals = loadgen.Generate(pool);
  if (!long_sessions) {
    return arrivals;
  }
  const std::vector<witload::RequiredOp> planted = HarvestEscalationOps(seed);
  std::mt19937 rng(seed ^ 0x10f9u);
  std::uniform_int_distribution<size_t> pick(0, planted.size() - 1);
  for (auto& arrival : arrivals) {
    std::vector<witload::RequiredOp> base;
    for (const auto& op : arrival.ticket.ops) {
      if (!op.beyond_view) {
        base.push_back(op);
      }
    }
    std::vector<witload::RequiredOp> ops;
    ops.reserve(kLongRepetitions * (base.size() + 1));
    for (size_t rep = 0; rep < kLongRepetitions; ++rep) {
      ops.insert(ops.end(), base.begin(), base.end());
      ops.push_back(planted[pick(rng)]);
    }
    arrival.ticket.ops = std::move(ops);
  }
  return arrivals;
}

// Replay outcome digest: the count of tickets satisfied in view, of ops that
// used the broker and of broker grants.
struct ReplayDigest {
  uint64_t satisfied_in_view = 0;
  uint64_t used_broker = 0;
  uint64_t broker_ok = 0;
  std::string Render() const {
    return std::to_string(satisfied_in_view) + "/" + std::to_string(used_broker) + "/" +
           std::to_string(broker_ok);
  }
};

// Checks that nothing of a drained run is left behind.
void CheckDrained(const TicketEnv& env, Report* report, const char* what) {
  size_t bound = 0;
  size_t sessions = 0;
  for (size_t i = 0; i < env.cluster->size(); ++i) {
    watchit::Machine& machine = env.cluster->machine(i);
    bound += machine.broker().bound_ticket_count();
    sessions += machine.containit().active_sessions();
  }
  const size_t issued = env.cluster->ca().issued_count();
  const size_t revoked = env.cluster->ca().revoked_count();
  report->Check(bound == 0, std::string(what) + ": " + std::to_string(bound) +
                                " tickets still bound at a broker after drain");
  report->Check(sessions == 0, std::string(what) + ": " + std::to_string(sessions) +
                                   " container sessions still live after drain");
  report->Check(issued == revoked, std::string(what) + ": " + std::to_string(issued - revoked) +
                                       " certificates not revoked after drain");
  watchit::Cluster::AuditReport audit = env.cluster->VerifyAuditTrail();
  report->Check(audit.failures == 0, std::string(what) + ": audit trail failed on " +
                                         std::to_string(audit.failures) + " machines");
  report->Check(env.durability->journal().errors() == 0,
                std::string(what) + ": journal reported " +
                    std::to_string(env.durability->journal().errors()) + " errors");
}

// ---------------------------------------------------------------------------
// Ticket workloads: the open-loop serving run.

// One preallocated slot per arrival. The generator writes due_ns before the
// submit; the result callback (a pool worker) writes the outcome and then
// publishes done_ns, so the serving path takes no extra lock.
struct Slot {
  uint64_t due_ns = 0;
  std::atomic<uint64_t> done_ns{0};
  uint32_t used_broker = 0;
  uint32_t broker_ok = 0;
  bool satisfied_in_view = false;
};

void RunTicketWorkload(bool long_sessions, uint32_t seed, double seconds, bool trace,
                       Report* report) {
  const double rate = long_sessions ? kLongSessionsRate : kHelpdeskRate;
  const size_t tickets = std::max<size_t>(1, static_cast<size_t>(rate * seconds));

  // Set-up, repeated; the last one is kept and served.
  std::vector<double> setup_times;
  std::unique_ptr<watchit::ItFramework> framework;
  TicketEnv env;
  std::unique_ptr<witserve::ServerPool> pool;
  for (int rep = 0; rep < kTicketSetupRepeats; ++rep) {
    pool.reset();
    env = TicketEnv();
    framework.reset();
    const uint64_t start = NowNs();
    framework = TrainFramework(seed);
    env = MakeTicketEnv();
    pool = std::make_unique<witserve::ServerPool>(env.cluster.get(), framework.get(),
                                                  env.dispatcher.get(), PoolOptions());
    pool->EnableMetrics(env.registry.get());
    setup_times.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }

  std::vector<witserve::LoadGenerator::Arrival> arrivals =
      MakeArrivals(*pool, long_sessions, seed, rate, tickets);
  std::unordered_map<std::string, size_t> index;
  index.reserve(arrivals.size());
  size_t total_ops = 0;
  for (size_t i = 0; i < arrivals.size(); ++i) {
    index.emplace(arrivals[i].ticket.id, i);
    total_ops += arrivals[i].ticket.ops.size();
  }
  std::vector<Slot> slots(arrivals.size());
  pool->set_result_callback([&index, &slots](const watchit::ResolvedTicket& resolved) {
    auto it = index.find(resolved.ticket.id);
    if (it == index.end()) {
      return;
    }
    Slot& slot = slots[it->second];
    for (const auto& replay : resolved.replays) {
      slot.used_broker += replay.used_broker ? 1u : 0u;
      slot.broker_ok += replay.broker_ok ? 1u : 0u;
    }
    slot.satisfied_in_view = resolved.satisfied_in_view;
    slot.done_ns.store(NowNs(), std::memory_order_release);
  });
  pool->Start();

  // Open loop: each arrival is due at its fixed offset; the generator never
  // waits for the pool. EBUSY counts as a failure and is not retried.
  std::vector<double> lag_ms(arrivals.size(), 0.0);
  uint64_t rejected = 0;
  const uint64_t cpu_start = ProcessCpuNs();
  const uint64_t gen_cpu_start = ThreadCpuNs();
  const uint64_t start_ns = NowNs() + 2'000'000;
  for (size_t i = 0; i < arrivals.size(); ++i) {
    const uint64_t due = start_ns + arrivals[i].offset_ns;
    for (uint64_t now = NowNs(); now < due; now = NowNs()) {
      if (due - now > 120'000) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now - 80'000));
      }
    }
    slots[i].due_ns = due;
    lag_ms[i] = static_cast<double>(NowNs() - due) / 1e6;
    witos::Status status = pool->Submit(arrivals[i].ticket, arrivals[i].target, arrivals[i].user);
    if (!status.ok()) {
      ++rejected;
    }
  }
  const uint64_t gen_cpu = ThreadCpuNs() - gen_cpu_start;
  pool->Drain();
  const uint64_t end_ns = NowNs();
  const uint64_t cpu = ProcessCpuNs() - cpu_start;
  pool->Stop();
  const witserve::ServerPool::Stats stats = pool->stats();

  const uint64_t failed = stats.failed + rejected;
  std::vector<double> latency_ms;
  latency_ms.reserve(slots.size());
  uint64_t callbacks = 0;
  ReplayDigest digest;
  for (const Slot& slot : slots) {
    uint64_t done = slot.done_ns.load(std::memory_order_acquire);
    if (done == 0) {
      latency_ms.push_back(std::numeric_limits<double>::infinity());
      continue;
    }
    ++callbacks;
    latency_ms.push_back(static_cast<double>(done - slot.due_ns) / 1e6);
    digest.satisfied_in_view += slot.satisfied_in_view ? 1 : 0;
    digest.used_broker += slot.used_broker;
    digest.broker_ok += slot.broker_ok;
  }

  report->attempted = tickets;
  report->failed = failed;
  report->Check(stats.served + stats.failed == stats.submitted,
                "served + failed != submitted (" + std::to_string(stats.served) + " + " +
                    std::to_string(stats.failed) + " vs " + std::to_string(stats.submitted) +
                    ")");
  report->Check(stats.submitted + rejected == tickets, "pool admitted + rejected != arrivals");
  report->Check(callbacks == stats.served, "result callbacks != served tickets");
  report->Check(stats.clock_ownership_violations == 0, "clock ownership violated");
  CheckDrained(env, report, "serving run");
  std::printf("digest %s/%u/%zu %s\n", long_sessions ? "long_sessions" : "helpdesk", seed,
              tickets, digest.Render().c_str());

  const double served = static_cast<double>(std::max<uint64_t>(1, stats.served));
  report->Info("host_cores", static_cast<double>(HostCores()), "count");
  report->Info("pool_workers", static_cast<double>(PoolOptions().workers), "count");
  report->Info("offered_rate", rate, "1/s");
  report->Info("tickets", static_cast<double>(tickets), "count");
  report->Info("ops_per_ticket", static_cast<double>(total_ops) / static_cast<double>(tickets),
               "count");
  report->Info("escalations_per_ticket", static_cast<double>(digest.used_broker) / served,
               "count");
  report->Info("ticket_error_rate",
               static_cast<double>(failed) / static_cast<double>(tickets), "ratio");
  report->Latencies(latency_ms);
  report->Set("cpu_us_per_op", static_cast<double>(cpu - std::min(cpu, gen_cpu)) / 1e3 / served);
  report->Set("throughput_per_s", static_cast<double>(stats.served) * 1e9 /
                                      static_cast<double>(end_ns - start_ns));
  report->Set("setup_s", Median(setup_times));
  report->Set("peak_rss_mb", PeakRssMb());
  if (!trace) {
    return;
  }

  // Per-layer: serving shape and lock waits from the pool run just made.
  report->Set("serve.steal_ratio", static_cast<double>(stats.stolen) / served);
  report->Set("serve.peak_queue_depth", static_cast<double>(stats.peak_queue_depth));
  report->Set("deploy.peak_inflight", static_cast<double>(stats.deploy.peak_inflight));
  report->Set("deploy.rollbacks", static_cast<double>(stats.deploy.rollbacks));
  report->Set("pagecache.hit_ratio",
              Ratio(static_cast<double>(stats.pagecache_hits),
                    static_cast<double>(stats.pagecache_hits + stats.pagecache_misses)));
  report->Set("gen.lag_p99_ms", Quantile(lag_ms, 0.99));
  std::vector<const witobs::MetricsRegistry*> registries = {env.registry.get()};
  for (size_t i = 0; i < env.cluster->size(); ++i) {
    registries.push_back(&env.cluster->machine(i).metrics());
  }
  for (const witobs::LockContention& lock : witobs::TopContendedLocks(registries)) {
    for (const char* group : kLockGroups) {
      const size_t len = std::strlen(group);
      if (lock.lock.compare(0, len, group) == 0 &&
          (lock.lock.size() == len || lock.lock[len] == '.')) {
        const std::string prefix = std::string("lock.") + group;
        report->values[prefix + ".wait_ns"] += static_cast<double>(lock.wait_sum_ns) / served;
        report->values[prefix + ".acquires"] += static_cast<double>(lock.wait_count) / served;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Ticket workloads: the single-threaded ledger pass and its cross-check.

struct LedgerLine {
  uint64_t cpu_ns = 0;
  uint64_t allocs = 0;
};

// Times a block on the calling thread into one ledger line.
class LineTimer {
 public:
  explicit LineTimer(LedgerLine* line)
      : line_(line), cpu_(ThreadCpuNs()), allocs_(t_allocs) {}
  ~LineTimer() {
    line_->cpu_ns += ThreadCpuNs() - cpu_;
    line_->allocs += t_allocs - allocs_;
  }
  LineTimer(const LineTimer&) = delete;
  LineTimer& operator=(const LineTimer&) = delete;

 private:
  LedgerLine* line_;
  uint64_t cpu_;
  uint64_t allocs_;
};

// The benchmark's own DeployGate. A stage's line runs from its BeforeStage
// gate to the next stage's gate (or to Close() after the last stage), so
// each stage carries the journal record the transaction writes for it.
class LedgerGate : public watchit::DeployGate {
 public:
  explicit LedgerGate(LedgerLine* stage_lines) : lines_(stage_lines) {}
  witos::Status BeforeStage(watchit::DeployStage stage, watchit::Machine*) override {
    Close();
    open_ = &lines_[static_cast<size_t>(stage)];
    cpu_ = ThreadCpuNs();
    allocs_ = t_allocs;
    return witos::Status::Ok();
  }
  void Close() {
    if (open_ != nullptr) {
      open_->cpu_ns += ThreadCpuNs() - cpu_;
      open_->allocs += t_allocs - allocs_;
      open_ = nullptr;
    }
  }

 private:
  LedgerLine* lines_;
  LedgerLine* open_ = nullptr;
  uint64_t cpu_ = 0;
  uint64_t allocs_ = 0;
};

// Per-ticket outcome, compared between the split pass and Finish.
struct TicketOutcome {
  bool ok = false;
  bool satisfied_in_view = false;
  std::vector<uint8_t> ops;  // in_view | used_broker << 1 | broker_ok << 2
  bool operator==(const TicketOutcome&) const = default;
};

uint8_t OpBits(const watchit::OpReplayResult& replay) {
  return static_cast<uint8_t>((replay.in_view ? 1 : 0) | (replay.used_broker ? 2 : 0) |
                              (replay.broker_ok ? 4 : 0));
}

// Deploys the primary ticket and, for T-9, the user machine, through
// RunDeployStages with `gate` (null: the default gate).
std::vector<watchit::Deployment> DeployAll(watchit::Cluster* cluster,
                                           const watchit::PreparedTicket& prepared,
                                           LedgerGate* gate) {
  auto deploy = [&](const watchit::Ticket& ticket) {
    auto deployment = watchit::RunDeployStages(
        cluster, ticket, watchit::ClusterManager::kDefaultLifetimeNs, gate);
    if (gate != nullptr) {
      gate->Close();
    }
    return deployment;
  };
  std::vector<watchit::Deployment> deployments;
  const watchit::Ticket& ticket = prepared.resolved.ticket;
  auto primary = deploy(ticket);
  if (!primary.ok()) {
    return deployments;
  }
  deployments.push_back(*primary);
  if (!prepared.user_machine.empty()) {
    watchit::Ticket user_ticket = ticket;
    user_ticket.target_machine = prepared.user_machine;
    auto secondary = deploy(user_ticket);
    if (secondary.ok()) {
      deployments.push_back(*secondary);
    }
  }
  return deployments;
}

// One ticket through Prepare, deploy and TicketWorkflow::Finish, as the
// serving path runs it: the reference the split calls are checked against.
TicketOutcome ReferenceTicket(watchit::Cluster* cluster, watchit::TicketWorkflow* workflow,
                              const witserve::LoadGenerator::Arrival& arrival) {
  TicketOutcome outcome;
  auto prepared = workflow->Prepare(arrival.ticket, arrival.target, arrival.user);
  if (!prepared.ok()) {
    return outcome;
  }
  std::vector<watchit::Deployment> deployments = DeployAll(cluster, *prepared, nullptr);
  auto resolved = workflow->Finish(std::move(*prepared), std::move(deployments));
  if (resolved.ok()) {
    outcome.ok = true;
    outcome.satisfied_in_view = resolved->satisfied_in_view;
    for (const auto& replay : resolved->replays) {
      outcome.ops.push_back(OpBits(replay));
    }
  }
  return outcome;
}

// The traced pass: the same ticket through Prepare, RunDeployStages with the
// ledger gate, then Finish's four calls made one by one, each timed.
class SplitPass {
 public:
  explicit SplitPass(watchit::ItFramework* framework)
      : env_(MakeTicketEnv()),
        workflow_(env_.cluster.get(), framework, env_.dispatcher.get()),
        manager_(env_.cluster.get()),
        gate_(stages_) {}
  SplitPass(const SplitPass&) = delete;
  SplitPass& operator=(const SplitPass&) = delete;

  TicketOutcome Run(const witserve::LoadGenerator::Arrival& arrival) {
    TicketOutcome outcome;
    witos::Result<watchit::PreparedTicket> prepared = witos::Err::kInval;
    {
      LineTimer timer(&prepare_);
      prepared = workflow_.Prepare(arrival.ticket, arrival.target, arrival.user);
    }
    if (!prepared.ok()) {
      return outcome;
    }
    std::vector<watchit::Deployment> deployments =
        DeployAll(env_.cluster.get(), *prepared, &gate_);
    if (deployments.empty()) {
      (void)env_.dispatcher->Complete(prepared->resolved.ticket.admin);
      return outcome;
    }
    // The login line includes opening the session; the expire line includes
    // closing it and the dispatcher assignment.
    const watchit::Deployment& primary = deployments.front();
    std::unique_ptr<watchit::AdminSession> session;
    witos::Status logged_in = witos::Err::kInval;
    {
      LineTimer timer(&login_);
      session = std::make_unique<watchit::AdminSession>(primary.machine, primary.session,
                                                        primary.certificate, &env_.cluster->ca());
      logged_in = session->Login();
    }
    if (logged_in.ok()) {
      outcome.satisfied_in_view = true;
      for (const auto& result : Replay(primary.machine, session.get(),
                                       prepared->resolved.ticket.ops)) {
        outcome.satisfied_in_view &= !result.used_broker;
        outcome.ops.push_back(OpBits(result));
      }
    }
    witos::Status completed = witos::Err::kInval;
    {
      LineTimer timer(&expire_);
      session.reset();
      for (auto& deployment : deployments) {
        (void)manager_.Expire(&deployment);
      }
      completed = env_.dispatcher->Complete(prepared->resolved.ticket.admin);
    }
    outcome.ok = logged_in.ok() && completed.ok();
    return outcome;
  }

  // Per-ticket ledger lines and counts over `tickets` tickets whose whole
  // traced cost was `total_cpu_ns`.
  void Publish(size_t tickets, uint64_t total_cpu_ns, Report* report) const {
    const double n = static_cast<double>(tickets);
    const LedgerLine* lines[] = {&prepare_,   &stages_[0], &stages_[1], &stages_[2],
                                 &stages_[3], &login_,     &replay_,    &expire_};
    double covered = 0.0;
    for (size_t i = 0; i < std::size(kLedgerLines); ++i) {
      const std::string name = std::string("ledger.") + kLedgerLines[i];
      report->Set(name + ".cpu_ns", static_cast<double>(lines[i]->cpu_ns) / n);
      report->Set(name + ".allocs", static_cast<double>(lines[i]->allocs) / n);
      covered += static_cast<double>(lines[i]->cpu_ns);
    }
    report->Set("ledger.total.cpu_ns", static_cast<double>(total_cpu_ns) / n);
    report->Set("ledger.coverage", Ratio(covered, static_cast<double>(total_cpu_ns)));
    double prepare_deploy = static_cast<double>(prepare_.cpu_ns);
    for (const LedgerLine& stage : stages_) {
      prepare_deploy += static_cast<double>(stage.cpu_ns);
    }
    report->Info("ledger_share_prepare_deploy", Ratio(prepare_deploy, covered), "ratio");
    report->Info("ledger_share_replay", Ratio(static_cast<double>(replay_.cpu_ns), covered),
                 "ratio");
    for (const auto& [name, value] : counts_) {
      report->Set(name, static_cast<double>(value) / n);
    }
  }

  const TicketEnv& env() const { return env_; }

 private:
  // ReplayTicket, timed, with the counters it moves read before and after.
  std::vector<watchit::OpReplayResult> Replay(watchit::Machine* machine,
                                              watchit::AdminSession* session,
                                              const std::vector<witload::RequiredOp>& ops) {
    const witdur::JournalWriter& journal = env_.durability->journal();
    const uint64_t frames = machine->broker_channel().frames();
    const uint64_t wire = machine->broker_channel().bytes_on_wire();
    const size_t appends = machine->broker().log().size();
    const size_t seals = machine->broker().log().epoch_count();
    const uint64_t records = journal.records_appended();
    const uint64_t bytes = journal.bytes_appended();
    const uint64_t barriers = journal.barriers();
    std::vector<watchit::OpReplayResult> results;
    {
      LineTimer timer(&replay_);
      results = session->ReplayTicket(ops);
    }
    counts_["rpc.frames"] += machine->broker_channel().frames() - frames;
    counts_["rpc.bytes"] += machine->broker_channel().bytes_on_wire() - wire;
    counts_["securelog.appends"] += machine->broker().log().size() - appends;
    counts_["securelog.epoch_seals"] += machine->broker().log().epoch_count() - seals;
    counts_["journal.records"] += journal.records_appended() - records;
    counts_["journal.bytes"] += journal.bytes_appended() - bytes;
    counts_["journal.barriers"] += journal.barriers() - barriers;
    for (const auto& result : results) {
      counts_["broker.escalations"] += result.used_broker ? 1 : 0;
    }
    return results;
  }

  TicketEnv env_;
  watchit::TicketWorkflow workflow_;
  watchit::ClusterManager manager_;
  LedgerLine prepare_, login_, replay_, expire_;
  LedgerLine stages_[watchit::kNumDeployStages];
  LedgerGate gate_;
  std::map<std::string, uint64_t> counts_;
};

void RunLedgerPass(bool long_sessions, uint32_t seed, Report* report) {
  const size_t count = long_sessions ? kLedgerTicketsLong : kLedgerTicketsHelpdesk;
  const double rate = long_sessions ? kLongSessionsRate : kHelpdeskRate;
  std::unique_ptr<watchit::ItFramework> framework = TrainFramework(seed);

  // The same arrival stream as the serving run: generated against a pool of
  // the same shape, so targets and T-9 peers match.
  std::vector<witserve::LoadGenerator::Arrival> arrivals;
  {
    TicketEnv shape = MakeTicketEnv();
    witserve::ServerPool pool(shape.cluster.get(), framework.get(), shape.dispatcher.get(),
                              PoolOptions());
    arrivals = MakeArrivals(pool, long_sessions, seed, rate, count);
  }

  // Each ticket runs through the reference and the traced pass back to
  // back, each on its own cluster and in alternating order, so both see the
  // same history and warm caches, and the difference in their CPU is the
  // cost of the ledger's own instruments.
  TicketEnv reference_env = MakeTicketEnv();
  watchit::TicketWorkflow reference(reference_env.cluster.get(), framework.get(),
                                    reference_env.dispatcher.get());
  SplitPass split(framework.get());
  uint64_t reference_cpu = 0;
  uint64_t traced_cpu = 0;
  size_t mismatches = 0;
  size_t not_ok = 0;
  auto timed = [](uint64_t* cpu, auto&& run) {
    const uint64_t start = ThreadCpuNs();
    TicketOutcome outcome = run();
    *cpu += ThreadCpuNs() - start;
    return outcome;
  };
  for (size_t i = 0; i < arrivals.size(); ++i) {
    auto run_reference = [&] {
      return ReferenceTicket(reference_env.cluster.get(), &reference, arrivals[i]);
    };
    auto run_traced = [&] { return split.Run(arrivals[i]); };
    TicketOutcome expected;
    TicketOutcome traced;
    if (i % 2 == 0) {
      expected = timed(&reference_cpu, run_reference);
      traced = timed(&traced_cpu, run_traced);
    } else {
      traced = timed(&traced_cpu, run_traced);
      expected = timed(&reference_cpu, run_reference);
    }
    mismatches += traced == expected ? 0 : 1;
    not_ok += traced.ok ? 0 : 1;
  }
  report->Check(mismatches == 0, "ledger cross-check: " + std::to_string(mismatches) +
                                     " tickets differ between the split calls and Finish");
  report->Check(not_ok == 0, "ledger pass: " + std::to_string(not_ok) + " tickets failed");
  CheckDrained(reference_env, report, "reference pass");
  CheckDrained(split.env(), report, "ledger pass");
  split.Publish(arrivals.size(), traced_cpu, report);
  report->Set("tracing_overhead_pct",
              100.0 * Ratio(static_cast<double>(traced_cpu) - static_cast<double>(reference_cpu),
                            static_cast<double>(reference_cpu)));
}

// ---------------------------------------------------------------------------
// admin_files: a closed loop of admin threads in Figure 9 containers.

struct FsFile {
  std::string path;
  bool document = false;  // by extension or by content signature
};

// What one stream of transactions did; the digest covers the first
// kDigestTxns of them.
struct FsStats {
  uint64_t txns = 0;
  uint64_t mismatches = 0;  // outcome differed from the expected verdict
  uint64_t denied = 0;
  uint64_t checksum = 0;
  uint64_t digest_denied = 0;
  uint64_t digest_checksum = 0;
  std::vector<double> latency_ms;
  uint64_t op_cpu_ns[std::size(kFsOps)] = {};
  uint64_t op_calls[std::size(kFsOps)] = {};
};

enum FsOp { kFsOpen, kFsRead, kFsWrite, kFsUnlink, kFsReaddir };

std::string SmallContent(std::mt19937& rng, bool pdf_magic) {
  std::uniform_int_distribution<size_t> size(kSmallMin, kSmallMax);
  std::uniform_int_distribution<int> letter('a', 'z');
  std::string content = pdf_magic ? "%PDF-1.4\n" : "log entry\n";
  const size_t target = size(rng);
  while (content.size() < target) {
    content.push_back(static_cast<char>(content.size() % 64 == 63 ? '\n' : letter(rng)));
  }
  return content;
}

// One admin's transaction stream over its own small-file tree (`root`) and
// a read-only grep tree (`grep_root`).
class FsStream {
 public:
  FsStream(witos::Kernel* kernel, witos::Pid actor, std::string root, std::string grep_root,
           uint32_t seed, bool timed)
      : kernel_(kernel),
        actor_(actor),
        root_(std::move(root)),
        grep_root_(std::move(grep_root)),
        rng_(seed),
        timed_(timed) {}

  // Creates the initial small-file tree: directories as the actor, files
  // through the host root (pid 1) so that document files exist in the tree
  // for the contained admin to trip over.
  void Populate() {
    (void)kernel_->MkDir(actor_, root_);
    for (size_t d = 0; d < kSmallDirs; ++d) {
      (void)kernel_->MkDir(actor_, root_ + "/d" + std::to_string(d));
    }
    std::uniform_real_distribution<double> coin(0.0, 1.0);
    for (size_t i = 0; i < kSmallFiles; ++i) {
      const bool doc_ext = coin(rng_) < 0.04;
      const bool magic = !doc_ext && coin(rng_) < 0.03;
      FsFile file;
      file.path = NewPath(doc_ext);
      file.document = doc_ext || magic;
      (void)kernel_->WriteFile(kernel_->init_pid(), file.path, SmallContent(rng_, magic));
      files_.push_back(std::move(file));
    }
  }

  void RunTxn(FsStats* stats) {
    const uint64_t start = NowNs();
    std::uniform_int_distribution<int> kind(0, 99);
    int k = kind(rng_);
    // Keep the live pool near its initial size so a longer run does not
    // work on a larger tree: a create above the size becomes a delete and a
    // delete below it a create.
    if (k < 20 && files_.size() > kSmallFiles) {
      k = 75;
    } else if (k >= 75 && k < 90 && files_.size() < kSmallFiles) {
      k = 0;
    }
    bool ok = true;
    if (k < 20) {
      ok = Create(stats);
    } else if (k < 55) {
      ok = ReadSmall(stats);
    } else if (k < 75) {
      ok = Append(stats);
    } else if (k < 90) {
      ok = Delete(stats);
    } else {
      ok = GrepNext(stats);
    }
    stats->mismatches += ok ? 0 : 1;
    stats->latency_ms.push_back(static_cast<double>(NowNs() - start) / 1e6);
    if (++stats->txns == kDigestTxns) {
      stats->digest_denied = stats->denied;
      stats->digest_checksum = stats->checksum;
    }
  }

 private:
  template <typename Fn>
  auto Timed(FsOp op, FsStats* stats, Fn&& fn) {
    if (!timed_) {
      return fn();
    }
    const uint64_t cpu = ThreadCpuNs();
    auto result = fn();
    stats->op_cpu_ns[op] += ThreadCpuNs() - cpu;
    ++stats->op_calls[op];
    return result;
  }

  std::string NewPath(bool doc_ext) {
    std::string dir = root_ + "/d" + std::to_string(next_id_ % kSmallDirs);
    return dir + "/f" + std::to_string(next_id_++) + (doc_ext ? ".pdf" : ".txt");
  }

  // Folds an op's outcome against the expected verdict; true when they agree.
  static bool Expect(bool expect_deny, witos::Err err, FsStats* stats) {
    if (err == witos::Err::kAcces) {
      ++stats->denied;
      return expect_deny;
    }
    return !expect_deny && err == witos::Err::kOk;
  }

  static void Sum(const std::string& data, FsStats* stats) {
    uint64_t sum = stats->checksum + data.size();
    for (size_t i = 0; i < data.size(); i += 4096) {
      sum = sum * 31 + static_cast<unsigned char>(data[i]);
    }
    stats->checksum = sum;
  }

  // A create with a document extension is denied. Creates never plant
  // document content: documents cannot be deleted from inside the
  // container, so the share of them in the live pool stays at its initial
  // value however long the run.
  bool Create(FsStats* stats) {
    std::uniform_real_distribution<double> coin(0.0, 1.0);
    const bool doc_ext = coin(rng_) < 0.04;
    FsFile file;
    file.path = NewPath(doc_ext);
    file.document = doc_ext;
    const std::string content = SmallContent(rng_, false);
    auto fd = Timed(kFsOpen, stats, [&] {
      return kernel_->Open(actor_, file.path,
                           witos::kOpenWrite | witos::kOpenCreate | witos::kOpenTrunc);
    });
    if (!fd.ok()) {
      return Expect(doc_ext, fd.error(), stats);
    }
    auto written = Timed(kFsWrite, stats, [&] { return kernel_->Write(actor_, *fd, content); });
    (void)kernel_->Close(actor_, *fd);
    files_.push_back(std::move(file));
    return !doc_ext && written.ok();
  }

  size_t Pick() {
    std::uniform_int_distribution<size_t> pick(0, files_.size() - 1);
    return pick(rng_);
  }

  bool ReadSmall(FsStats* stats) {
    const FsFile& file = files_[Pick()];
    auto fd = Timed(kFsOpen, stats,
                    [&] { return kernel_->Open(actor_, file.path, witos::kOpenRead); });
    if (!fd.ok()) {
      return Expect(file.document, fd.error(), stats);
    }
    auto data = Timed(kFsRead, stats, [&] { return kernel_->Read(actor_, *fd, 2 * kSmallMax); });
    (void)kernel_->Close(actor_, *fd);
    if (data.ok()) {
      Sum(*data, stats);
    }
    return !file.document && data.ok();
  }

  bool Append(FsStats* stats) {
    const FsFile& file = files_[Pick()];
    std::uniform_int_distribution<size_t> size(256, 1024);
    const std::string chunk(size(rng_), 'a');
    auto fd = Timed(kFsOpen, stats, [&] {
      return kernel_->Open(actor_, file.path, witos::kOpenWrite | witos::kOpenAppend);
    });
    if (!fd.ok()) {
      return Expect(file.document, fd.error(), stats);
    }
    auto written = Timed(kFsWrite, stats, [&] { return kernel_->Write(actor_, *fd, chunk); });
    (void)kernel_->Close(actor_, *fd);
    return !file.document && written.ok();
  }

  bool Delete(FsStats* stats) {
    const size_t i = Pick();
    const bool document = files_[i].document;
    witos::Status status =
        Timed(kFsUnlink, stats, [&] { return kernel_->Unlink(actor_, files_[i].path); });
    if (status.ok()) {
      files_[i] = std::move(files_.back());
      files_.pop_back();
    }
    return Expect(document, status.error(), stats);
  }

  // grep -r NEEDLE over the machine's grep tree, one file per transaction:
  // readdir on entering a directory, then a streaming read and a scan.
  bool GrepNext(FsStats* stats) {
    const size_t dir = grep_next_ / (kGrepFiles / kGrepDirs);
    const size_t file = grep_next_ % (kGrepFiles / kGrepDirs);
    grep_next_ = (grep_next_ + 1) % kGrepFiles;
    const std::string dir_path = grep_root_ + "/d" + std::to_string(dir);
    if (file == 0) {
      auto entries = Timed(kFsReaddir, stats, [&] { return kernel_->ReadDir(actor_, dir_path); });
      if (!entries.ok()) {
        return false;
      }
    }
    auto fd = Timed(kFsOpen, stats, [&] {
      return kernel_->Open(actor_, dir_path + "/g" + std::to_string(file) + ".log",
                           witos::kOpenRead);
    });
    if (!fd.ok()) {
      return Expect(false, fd.error(), stats);
    }
    bool ok = true;
    for (;;) {
      auto data = Timed(kFsRead, stats, [&] { return kernel_->Read(actor_, *fd, kGrepReadChunk); });
      if (!data.ok()) {
        ok = false;
        break;
      }
      if (data->empty()) {
        break;
      }
      uint64_t matches = 0;
      for (size_t at = data->find(kNeedle); at != std::string::npos;
           at = data->find(kNeedle, at + 1)) {
        ++matches;
      }
      stats->checksum += matches;
      Sum(*data, stats);
    }
    (void)kernel_->Close(actor_, *fd);
    return ok;
  }

  witos::Kernel* kernel_;
  witos::Pid actor_;
  std::string root_;
  std::string grep_root_;
  std::mt19937 rng_;
  bool timed_;
  std::vector<FsFile> files_;
  uint64_t next_id_ = 0;
  size_t grep_next_ = 0;
};

// The grep tree: kGrepFiles text files with the needle on about one line in
// fifty, provisioned straight into the machine's root filesystem.
void PopulateGrepTree(witos::Kernel* kernel, const std::string& root, uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> letter('a', 'z');
  std::string block;
  block.reserve(kGrepFileBytes);
  size_t line = 0;
  while (block.size() < kGrepFileBytes) {
    std::string text(63, 'x');
    for (char& c : text) {
      c = static_cast<char>(letter(rng));
    }
    if (line++ % 50 == 7) {
      text.replace(10, std::strlen(kNeedle), kNeedle);
    }
    block += text + "\n";
  }
  block.resize(kGrepFileBytes);
  for (size_t d = 0; d < kGrepDirs; ++d) {
    for (size_t f = 0; f < kGrepFiles / kGrepDirs; ++f) {
      std::string content = block;
      // A per-file header keeps the files distinct.
      std::snprintf(content.data(), 32, "file %zu/%zu seed %u", d, f, seed);
      kernel->root_fs().ProvisionFile(
          root + "/d" + std::to_string(d) + "/g" + std::to_string(f) + ".log", content);
    }
  }
}

// One admin: its machine, its Figure 9 container and its streams.
struct AdminSeat {
  watchit::Machine* machine = nullptr;
  witos::Pid shell = witos::kNoPid;
  std::shared_ptr<witfs::Itfs> itfs;
  std::unique_ptr<FsStream> stream;
};

// The Figure 9 measured configuration: whole-root view, deny-documents rule,
// signature inspection, rule hits logged.
witcontain::PerforatedContainerSpec Fig9Spec() {
  witcontain::PerforatedContainerSpec spec;
  spec.name = "fig9";
  spec.fs.kind = witcontain::FsView::Kind::kWholeRoot;
  spec.fs.policy.AddRule(witfs::ItfsPolicy::DenyDocumentsRule());
  spec.fs.policy.set_log_all(false);
  spec.fs.inspection = witfs::InspectionMode::kSignature;
  spec.net.sniff = false;
  return spec;
}

// One machine per admin, each with its grep tree, its container and its
// small-file tree.
struct AdminEnv {
  std::unique_ptr<watchit::Cluster> cluster;
  std::vector<AdminSeat> seats;
};

size_t AdminThreads() { return std::min(kMaxAdminThreads, HostCores()); }

AdminEnv MakeAdminEnv(uint32_t seed) {
  AdminEnv env;
  env.cluster = std::make_unique<watchit::Cluster>();
  const size_t threads = AdminThreads();
  for (size_t i = 0; i < threads; ++i) {
    char name[16];
    std::snprintf(name, sizeof(name), "admin%02zu", i);
    watchit::Machine& machine =
        env.cluster->AddMachine(name, witnet::Ipv4Addr(10, 0, 4, static_cast<uint8_t>(10 + i)));
    PopulateGrepTree(&machine.kernel(), "/srv/grep", seed + static_cast<uint32_t>(i));
    machine.kernel().root_fs().ProvisionDir("/srv/wl");
    auto session = machine.containit().Deploy(Fig9Spec(), "FS-" + std::to_string(i),
                                              "admin" + std::to_string(i));
    AdminSeat seat;
    seat.machine = &machine;
    if (session.ok()) {
      const witcontain::Session* live = machine.containit().FindSession(*session);
      seat.shell = live->shell;
      seat.itfs = live->itfs;
      seat.stream = std::make_unique<FsStream>(&machine.kernel(), seat.shell, "/srv/wl/loop",
                                               "/srv/grep", seed * 7919u + static_cast<uint32_t>(i),
                                               /*timed=*/false);
      seat.stream->Populate();
    }
    env.seats.push_back(std::move(seat));
  }
  return env;
}

void RunAdminFiles(uint32_t seed, double seconds, bool trace, Report* report) {
  std::vector<double> setup_times;
  AdminEnv env;
  for (int rep = 0; rep < kAdminSetupRepeats; ++rep) {
    env = AdminEnv();
    const uint64_t start = NowNs();
    env = MakeAdminEnv(seed);
    setup_times.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }
  for (const AdminSeat& seat : env.seats) {
    report->Check(seat.stream != nullptr, "admin_files: container deploy failed");
  }
  if (!report->problems.empty()) {
    return;
  }

  // Closed loop: each admin issues its next transaction when the previous
  // one returns, until the time is up and its digest prefix is complete.
  const size_t threads = env.seats.size();
  std::vector<FsStats> stats(threads);
  for (FsStats& s : stats) {
    s.latency_ms.reserve(1 << 20);
  }
  const uint64_t cpu_start = ProcessCpuNs();
  const uint64_t start_ns = NowNs();
  const uint64_t deadline = start_ns + static_cast<uint64_t>(seconds * 1e9);
  {
    std::vector<std::thread> workers;
    for (size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        while (NowNs() < deadline || stats[t].txns < kDigestTxns) {
          env.seats[t].stream->RunTxn(&stats[t]);
        }
      });
    }
    for (std::thread& worker : workers) {
      worker.join();
    }
  }
  const uint64_t end_ns = NowNs();
  const uint64_t cpu = ProcessCpuNs() - cpu_start;

  uint64_t txns = 0;
  uint64_t mismatches = 0;
  uint64_t denied = 0;
  uint64_t digest_denied = 0;
  uint64_t digest_checksum = 0;
  std::vector<double> latency_ms;
  for (const FsStats& s : stats) {
    txns += s.txns;
    mismatches += s.mismatches;
    denied += s.denied;
    digest_denied += s.digest_denied;
    digest_checksum = digest_checksum * 1000003u + s.digest_checksum;
    latency_ms.insert(latency_ms.end(), s.latency_ms.begin(), s.latency_ms.end());
  }
  report->attempted = txns;
  report->failed = mismatches;
  report->Check(mismatches == 0, "admin_files: " + std::to_string(mismatches) +
                                     " transactions disagreed with the expected verdict");
  std::printf("digest admin_files/%u/%zu %llu/%llu\n", seed, threads,
              static_cast<unsigned long long>(digest_denied),
              static_cast<unsigned long long>(digest_checksum));
  report->Info("host_cores", static_cast<double>(HostCores()), "count");
  report->Info("admin_threads", static_cast<double>(threads), "count");
  report->Info("small_files_per_tree", static_cast<double>(kSmallFiles), "count");
  report->Info("verdict_cache_capacity", static_cast<double>(kVerdictCacheEntries),
               "count");
  report->Info("grep_tree_mib", static_cast<double>(kGrepFiles * kGrepFileBytes) / 1048576.0,
               "MiB");
  report->Info("page_cache_mib",
               static_cast<double>(env.seats[0].machine->kernel().page_cache().capacity()) /
                   1048576.0,
               "MiB");
  report->Info("denied_per_txn", Ratio(static_cast<double>(denied), static_cast<double>(txns)),
               "ratio");
  report->Info("fs_error_rate", Ratio(static_cast<double>(mismatches), static_cast<double>(txns)),
               "ratio");
  report->Latencies(latency_ms);
  report->Set("cpu_us_per_op", Ratio(static_cast<double>(cpu) / 1e3, static_cast<double>(txns)));
  report->Set("throughput_per_s",
              Ratio(static_cast<double>(txns) * 1e9, static_cast<double>(end_ns - start_ns)));
  report->Set("setup_s", Median(setup_times));
  report->Set("peak_rss_mb", PeakRssMb());
  if (!trace) {
    return;
  }

  // Trace mode: one seeded stream run three times on machine 0, each copy
  // over its own fresh small-file tree: untraced in the container, traced in
  // the container, traced on the bare host kernel. The copies advance in
  // alternating blocks so all three see the same host conditions. No two of
  // them read the same grep file through the same filesystem, so none reads
  // page-cache blocks another copy just loaded.
  AdminSeat& seat = env.seats[0];
  witos::Kernel* kernel = &seat.machine->kernel();
  PopulateGrepTree(kernel, "/srv/grep2", seed + 101u);
  const uint32_t pass_seed = seed * 104729u + 17u;
  struct Pass {
    FsStream stream;
    FsStats stats;
    uint64_t cpu_ns = 0;
    uint64_t allocs = 0;
  };
  Pass untraced{FsStream(kernel, seat.shell, "/srv/wl/untraced", "/srv/grep2", pass_seed, false),
                {}};
  Pass traced{FsStream(kernel, seat.shell, "/srv/wl/traced", "/srv/grep", pass_seed, true), {}};
  Pass bare{FsStream(kernel, kernel->init_pid(), "/srv/wl/bare", "/srv/grep2", pass_seed, true),
            {}};
  for (Pass* pass : {&untraced, &traced, &bare}) {
    pass->stream.Populate();
  }
  kernel->DropCaches();
  // Both container copies share the container's verdict cache.
  const witfs::VerdictCacheStats cache0 = seat.itfs->verdict_cache_stats();
  constexpr size_t kBlock = 500;
  for (size_t done = 0; done < kTracePassTxns; done += kBlock) {
    for (Pass* pass : {&untraced, &traced, &bare}) {
      const uint64_t pass_cpu = ThreadCpuNs();
      const uint64_t pass_allocs = t_allocs;
      for (size_t i = 0; i < kBlock; ++i) {
        pass->stream.RunTxn(&pass->stats);
      }
      pass->allocs += t_allocs - pass_allocs;
      pass->cpu_ns += ThreadCpuNs() - pass_cpu;
    }
  }
  const witfs::VerdictCacheStats cache1 = seat.itfs->verdict_cache_stats();
  report->Check(untraced.stats.mismatches + traced.stats.mismatches == 0,
                "admin_files trace passes disagreed with the expected verdict");

  const double n = static_cast<double>(kTracePassTxns);
  for (size_t op = 0; op < std::size(kFsOps); ++op) {
    report->Set(std::string("fs.") + kFsOps[op] + ".cpu_ns",
                Ratio(static_cast<double>(traced.stats.op_cpu_ns[op]),
                      static_cast<double>(traced.stats.op_calls[op])));
  }
  report->Set("itfs.overhead_x",
              Ratio(static_cast<double>(traced.cpu_ns), static_cast<double>(bare.cpu_ns)));
  const double hits = static_cast<double>(cache1.hits - cache0.hits);
  const double misses = static_cast<double>(cache1.misses - cache0.misses);
  report->Set("itfs.verdict_cache.hit_ratio", Ratio(hits, hits + misses));
  report->Set("itfs.verdict_cache.invalidations_per_txn",
              static_cast<double>(cache1.invalidations - cache0.invalidations) / (2 * n));
  report->Set("fs.allocs_per_txn", static_cast<double>(traced.allocs) / n);
  report->Set("tracing_overhead_pct",
              100.0 * Ratio(static_cast<double>(traced.cpu_ns) -
                                static_cast<double>(untraced.cpu_ns),
                            static_cast<double>(untraced.cpu_ns)));
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  std::string workload;
  uint32_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = static_cast<uint32_t>(std::strtoul(value, nullptr, 10));
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::strcmp(value, "1") == 0;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (seconds <= 0.0 || seconds > 600.0) {
    std::fprintf(stderr, "--seconds must be in (0, 600]\n");
    return 2;
  }
  perfbench::Report report;
  report.trace = trace;
  if (workload == "helpdesk" || workload == "long_sessions") {
    const bool long_sessions = workload == "long_sessions";
    perfbench::RunTicketWorkload(long_sessions, seed, seconds, trace, &report);
    if (trace) {
      perfbench::RunLedgerPass(long_sessions, seed, &report);
    }
  } else if (workload == "admin_files") {
    perfbench::RunAdminFiles(seed, seconds, trace, &report);
  } else {
    std::fprintf(stderr, "usage: %s --workload helpdesk|long_sessions|admin_files --seed N "
                         "--seconds S --trace 0|1\n", argv[0]);
    return 2;
  }
  return report.Emit();
}
