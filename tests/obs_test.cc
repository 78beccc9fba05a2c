// Observability-layer tests: counter/gauge/histogram semantics, percentile
// math, concurrent updates, span nesting and correlation ids,
// exact Prometheus text-format output, and the end-to-end wiring through a
// booted Machine (ITFS + broker + forensics).

#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <optional>
#include <thread>

#include "src/broker/policy.h"
#include "src/core/cluster.h"
#include "src/core/report.h"
#include "src/core/session.h"

namespace witobs {
namespace {

// ---------------------------------------------------------------- metrics --

TEST(CounterTest, IncrementAndHandleIdentity) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("watchit_test_total", {{"op", "open"}});
  ASSERT_NE(c, nullptr);
  c->Increment();
  c->Increment(41);
  EXPECT_EQ(c->Value(), 42u);
  // Same (name, labels) -> same handle; different labels -> different series.
  EXPECT_EQ(registry.GetCounter("watchit_test_total", {{"op", "open"}}), c);
  EXPECT_NE(registry.GetCounter("watchit_test_total", {{"op", "read"}}), c);
  EXPECT_EQ(registry.CounterValue("watchit_test_total", {{"op", "open"}}), 42u);
  EXPECT_EQ(registry.CounterValue("watchit_test_total", {{"op", "absent"}}), 0u);
}

TEST(CounterTest, LabelOrderDoesNotMatter) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("watchit_t", {{"a", "1"}, {"b", "2"}});
  Counter* b = registry.GetCounter("watchit_t", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(a, b);
}

TEST(CounterTest, TypeConfusionReturnsNull) {
  MetricsRegistry registry;
  ASSERT_NE(registry.GetCounter("watchit_x"), nullptr);
  EXPECT_EQ(registry.GetHistogram("watchit_x"), nullptr);
  EXPECT_EQ(registry.GetGauge("watchit_x"), nullptr);
}

TEST(GaugeTest, SetAddSub) {
  MetricsRegistry registry;
  Gauge* g = registry.GetGauge("watchit_depth");
  g->Set(10);
  g->Add(5);
  g->Sub(7);
  EXPECT_EQ(g->Value(), 8);
  EXPECT_EQ(registry.GaugeValue("watchit_depth"), 8);
}

TEST(ShadowTallyTest, OutcomeIndexMatchesTheSeriesAndEvaluatedIsTheSum) {
  ShadowTally tally;
  EXPECT_EQ(tally.Count(/*enforced_allows=*/true, /*shadow_allows=*/true), ShadowTally::kAgree);
  EXPECT_EQ(tally.Count(false, false), ShadowTally::kAgree);
  EXPECT_EQ(tally.Count(true, false), ShadowTally::kWouldBlock);
  EXPECT_EQ(tally.Count(false, true), ShadowTally::kWouldAllow);
  EXPECT_EQ(tally.Count(false, true), ShadowTally::kWouldAllow);
  ShadowCounts counts = tally.Read();
  EXPECT_EQ(counts.agree, 2u);
  EXPECT_EQ(counts.would_block, 1u);
  EXPECT_EQ(counts.would_allow, 2u);
  EXPECT_EQ(counts.evaluated, 5u);
}

TEST(HistogramTest, CountSumAndBucketing) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("watchit_lat_ns");
  h->Observe(500);      // bucket 1 (256 < 500 <= 512)
  h->Observe(300000);   // bucket 11 (262144 < 300000 <= 524288)
  EXPECT_EQ(h->Count(), 2u);
  EXPECT_EQ(h->SumNs(), 300500u);
  EXPECT_EQ(h->BucketCount(0), 0u);
  EXPECT_EQ(h->BucketCount(1), 1u);
  EXPECT_EQ(h->BucketCount(11), 1u);
}

TEST(HistogramTest, PercentileMath) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("watchit_lat_ns");
  EXPECT_EQ(h->Percentile(50), 0u);  // empty histogram

  // 100 observations all in bucket 0 (bounds 0..256): the rank-r estimate
  // interpolates linearly, so p50 (rank 50 of 100) sits at 128.
  for (int i = 0; i < 100; ++i) {
    h->Observe(100);
  }
  EXPECT_EQ(h->Percentile(50), 128u);
  EXPECT_EQ(h->Percentile(100), 256u);

  // Add 100 observations in bucket 2 (512..1024): p75 now lands mid-way
  // through the upper bucket's mass.
  for (int i = 0; i < 100; ++i) {
    h->Observe(1000);
  }
  uint64_t p25 = h->Percentile(25);
  uint64_t p50 = h->Percentile(50);
  uint64_t p75 = h->Percentile(75);
  uint64_t p99 = h->Percentile(99);
  EXPECT_EQ(p25, 128u);   // rank 50 of 200, halfway through bucket 0
  EXPECT_EQ(p50, 256u);   // rank 100 of 200: the whole of bucket 0
  EXPECT_EQ(p75, 768u);   // rank 150: halfway through bucket 2 (512..1024)
  EXPECT_LE(p50, p75);
  EXPECT_LE(p75, p99);
  EXPECT_LE(p99, 1024u);
}

TEST(HistogramTest, ConcurrentObservationsFromEightThreads) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("watchit_hits_total");
  Histogram* hist = registry.GetHistogram("watchit_lat_ns");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        counter->Increment();
        hist->Observe(static_cast<uint64_t>(t * 1000 + i % 997));
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(counter->Value(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(hist->Count(), static_cast<uint64_t>(kThreads) * kPerThread);
  uint64_t bucket_total = 0;
  for (size_t i = 0; i <= Histogram::kNumBuckets; ++i) {
    bucket_total += hist->BucketCount(i);
  }
  EXPECT_EQ(bucket_total, hist->Count());
}

// ------------------------------------------------------------- exporters --

TEST(PrometheusTest, ExactTextFormat) {
  MetricsRegistry registry;
  registry.SetHelp("watchit_test_requests_total", "Requests seen");
  registry.GetCounter("watchit_test_requests_total", {{"outcome", "allow"}})->Increment(3);
  registry.GetCounter("watchit_test_requests_total", {{"outcome", "deny"}})->Increment();
  registry.GetGauge("watchit_test_queue_depth")->Set(7);
  Histogram* h = registry.GetHistogram("watchit_test_latency_ns");
  h->Observe(500);
  h->Observe(300000);

  // The 26-step exponential bucket ladder, hard-coded independently of
  // Histogram::BucketBound.
  const char* kBounds[] = {
      "256",      "512",      "1024",      "2048",      "4096",       "8192",      "16384",
      "32768",    "65536",    "131072",    "262144",    "524288",     "1048576",   "2097152",
      "4194304",  "8388608",  "16777216",  "33554432",  "67108864",   "134217728", "268435456",
      "536870912", "1073741824", "2147483648", "4294967296", "8589934592"};
  std::string expected = "# TYPE watchit_test_latency_ns histogram\n";
  for (size_t i = 0; i < 26; ++i) {
    const char* cumulative = i == 0 ? "0" : (i < 11 ? "1" : "2");
    expected += std::string("watchit_test_latency_ns_bucket{le=\"") + kBounds[i] + "\"} " +
                cumulative + "\n";
  }
  expected += "watchit_test_latency_ns_bucket{le=\"+Inf\"} 2\n";
  expected += "watchit_test_latency_ns_sum 300500\n";
  expected += "watchit_test_latency_ns_count 2\n";
  expected += "# TYPE watchit_test_queue_depth gauge\n";
  expected += "watchit_test_queue_depth 7\n";
  expected += "# HELP watchit_test_requests_total Requests seen\n";
  expected += "# TYPE watchit_test_requests_total counter\n";
  expected += "watchit_test_requests_total{outcome=\"allow\"} 3\n";
  expected += "watchit_test_requests_total{outcome=\"deny\"} 1\n";

  EXPECT_EQ(RenderPrometheus(registry), expected);
}

TEST(JsonTest, SnapshotCarriesPercentiles) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("watchit_lat_ns");
  for (int i = 0; i < 100; ++i) {
    h->Observe(100);
  }
  std::string json = RenderJson(registry);
  EXPECT_NE(json.find("\"watchit_lat_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":100"), std::string::npos);
  EXPECT_NE(json.find("\"p50_ns\":128"), std::string::npos);
}

// --------------------------------------------------------------- tracing --

uint64_t FakeNow() {
  static std::atomic<uint64_t> now{0};
  return now.fetch_add(10) + 10;  // advances 10ns per call
}

TEST(TraceTest, SpanNestingDepthAndCorrelationIds) {
  Tracer tracer(64);
  tracer.SetClockForTest(&FakeNow);
  {
    Span outer(&tracer, "serve.deploy", "TKT-1");
    { Span inner(&tracer, "deploy.construct", "TKT-1"); }
    { Span other(&tracer, "deploy.bind", "TKT-2"); }
  }

  auto spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 3u);
  // Recorded at destruction: innermost spans first.
  EXPECT_EQ(spans[0].name, "deploy.construct");
  EXPECT_EQ(spans[0].correlation_id, "TKT-1");
  EXPECT_EQ(spans[0].depth, 1u);
  EXPECT_EQ(spans[1].name, "deploy.bind");
  EXPECT_EQ(spans[1].correlation_id, "TKT-2");
  EXPECT_EQ(spans[1].depth, 1u);
  EXPECT_EQ(spans[2].name, "serve.deploy");
  EXPECT_EQ(spans[2].correlation_id, "TKT-1");
  EXPECT_EQ(spans[2].depth, 0u);
  EXPECT_GT(spans[2].duration_ns, spans[0].duration_ns);  // outer encloses inner

  std::string dump = RenderTraceDump(tracer);
  EXPECT_NE(dump.find("[TKT-1]   deploy.construct"), std::string::npos);
  EXPECT_NE(dump.find("[TKT-1] serve.deploy"), std::string::npos);
}

TEST(TraceTest, RingBufferDropsOldestAndCounts) {
  Tracer tracer(4);
  for (int i = 0; i < 10; ++i) {
    Span span(&tracer, "s", std::to_string(i));
  }
  auto spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].correlation_id, "6");  // oldest surviving
  EXPECT_EQ(spans[3].correlation_id, "9");
  EXPECT_EQ(tracer.dropped(), 6u);
  EXPECT_EQ(tracer.total_recorded(), 10u);
}

TEST(TraceTest, NullTracerIsNoOp) {
  Span span(nullptr, "noop", "x");
}

// ------------------------------------------------- end-to-end (Machine) --

TEST(EndToEndTest, MachineWiringProducesTwelvePlusSeries) {
  watchit::Cluster cluster;
  watchit::Machine& machine = cluster.AddMachine("userpc", witnet::Ipv4Addr(10, 0, 1, 50));
  watchit::ClusterManager manager(&cluster);

  watchit::Ticket ticket;
  ticket.id = "TKT-OBS";
  ticket.target_machine = "userpc";
  ticket.assigned_class = "T-1";
  ticket.admin = "alice";
  auto deployment = manager.Deploy(ticket);
  ASSERT_TRUE(deployment.ok());

  watchit::AdminSession session(&machine, deployment->session, deployment->certificate,
                                &cluster.ca());
  ASSERT_TRUE(session.Login().ok());
  ASSERT_TRUE(session.ReadFile("/home/user/.matlab/license.lic").ok());
  EXPECT_FALSE(session.ReadFile("/home/user/documents/payroll.xlsx").ok());  // denied
  ASSERT_TRUE(session.Pb(witbroker::kVerbPs, {}).ok());
  EXPECT_FALSE(session.Pb(witbroker::kVerbDriverUpdate, {"rootkit"}).ok());  // denied

  const witobs::MetricsRegistry& metrics = machine.metrics();
  // The acceptance bar: at least 12 distinct series covering ITFS ops,
  // broker verbs, and latency histograms.
  EXPECT_GE(metrics.SeriesCount(), 12u);

  // Per-session ITFS totals by outcome live in the session's record, and
  // per-ticket broker totals are counted from the evidence chain (the
  // forensic report below), not kept in the registry.
  const witcontain::Session* live = session.container();
  ASSERT_NE(live, nullptr);
  const witobs::OutcomeCounts fs_ops = machine.containit().RecordOf(*live).fs_ops;
  EXPECT_GT(fs_ops.allowed, 0u);
  EXPECT_GT(fs_ops.denied, 0u);
  // Broker verbs by grant outcome.
  EXPECT_EQ(metrics.CounterValue("watchit_broker_requests_total",
                                 {{"verb", "ps"}, {"outcome", "grant"}}),
            1u);
  EXPECT_EQ(metrics.CounterValue("watchit_broker_requests_total",
                                 {{"verb", "driver_update"}, {"outcome", "deny"}}),
            1u);
  // Simulated latency histograms saw traffic.
  const Histogram* read_latency =
      metrics.FindHistogram("watchit_itfs_op_latency_ns", {{"op", "read"}});
  ASSERT_NE(read_latency, nullptr);
  EXPECT_GT(read_latency->Count(), 0u);
  EXPECT_GT(read_latency->Percentile(50), 0u);
  const Histogram* dispatch = metrics.FindHistogram("watchit_broker_dispatch_latency_ns");
  ASSERT_NE(dispatch, nullptr);
  EXPECT_EQ(dispatch->Count(), 1u);  // only the granted ps dispatched

  // The rendered exposition carries the headline families.
  std::string prom = RenderPrometheus(metrics);
  for (const char* family :
       {"watchit_itfs_ops_total", "watchit_itfs_op_latency_ns_bucket",
        "watchit_broker_requests_total", "watchit_broker_dispatch_latency_ns_count"}) {
    EXPECT_NE(prom.find(family), std::string::npos) << family;
  }
  EXPECT_EQ(prom.find("ticket=\""), std::string::npos);  // no per-ticket series

  // The forensic report reads the same totals.
  watchit::ForensicReporter reporter(&machine);
  auto forensics = reporter.Collect(deployment->session);
  ASSERT_TRUE(forensics.ok());
  EXPECT_GT(forensics->fs_ops, 0u);
  EXPECT_GT(forensics->fs_denied, 0u);
  EXPECT_EQ(forensics->fs_ops, fs_ops.allowed + fs_ops.denied);
  EXPECT_EQ(forensics->fs_denied, fs_ops.denied);
  EXPECT_EQ(forensics->broker_requests, 2u);
  EXPECT_EQ(forensics->broker_denied, 1u);
}

TEST(EndToEndTest, BogusBrokerVerbsCannotMintSeries) {
  watchit::Cluster cluster;
  watchit::Machine& machine = cluster.AddMachine("userpc", witnet::Ipv4Addr(10, 0, 1, 50));
  watchit::ClusterManager manager(&cluster);
  watchit::Ticket ticket;
  ticket.id = "TKT-VERBS";
  ticket.target_machine = "userpc";
  ticket.assigned_class = "T-1";
  ticket.admin = "mallory";
  auto deployment = manager.Deploy(ticket);
  ASSERT_TRUE(deployment.ok());
  watchit::AdminSession session(&machine, deployment->session, deployment->certificate,
                                &cluster.ca());
  ASSERT_TRUE(session.Login().ok());

  const witobs::MetricsRegistry& metrics = machine.metrics();
  const size_t before = metrics.SeriesCount();
  constexpr int kVerbs = 1000;
  for (int i = 0; i < kVerbs; ++i) {
    EXPECT_FALSE(session.Pb("bogus-verb-" + std::to_string(i), {}).ok());
  }
  // No new series at all: the registry mutex is taken only to create one,
  // so a broker request takes no registry lock.
  EXPECT_EQ(metrics.SeriesCount() - before, 0u);
  EXPECT_EQ(metrics.CounterValue("watchit_broker_requests_total",
                                 {{"verb", "unknown"}, {"outcome", "deny"}}),
            static_cast<uint64_t>(kVerbs));
  watchit::ForensicReporter reporter(&machine);
  auto forensics = reporter.Collect(deployment->session);
  ASSERT_TRUE(forensics.ok());
  EXPECT_EQ(forensics->broker_requests, static_cast<size_t>(kVerbs));
  EXPECT_EQ(forensics->broker_denied, static_cast<size_t>(kVerbs));
  // The accountability record keeps the exact verb.
  auto records = machine.kernel().audit().Snapshot();
  auto events = witbroker::BrokerEventsOf(records);
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.back().verb, "bogus-verb-999");
  EXPECT_NE(records.back().detail.find("bogus-verb-999"), std::string::npos);
}

TEST(EndToEndTest, UnboundCallersCannotMintSeries) {
  // Host processes belong to no session, so no binding names them. Each of
  // their made-up verbs is denied, counts under verb="unknown" and leaves
  // its evidence record with no ticket, under the caller's pid.
  watchit::Cluster cluster;
  watchit::Machine& machine = cluster.AddMachine("userpc", witnet::Ipv4Addr(10, 0, 1, 50));
  const witobs::MetricsRegistry& metrics = machine.metrics();
  const size_t before = metrics.SeriesCount();
  constexpr int kCallers = 4;
  constexpr int kVerbsEach = 250;
  std::vector<witos::Pid> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.push_back(*machine.kernel().Clone(1, "intruder", 0));
    witbroker::BrokerClient client(&machine.broker_channel(), callers.back());
    for (int i = 0; i < kVerbsEach; ++i) {
      EXPECT_EQ(client.Request("made-up-" + std::to_string(c) + "-" + std::to_string(i), {})
                    .error(),
                witos::Err::kPerm);
    }
  }
  constexpr uint64_t kTotal = kCallers * kVerbsEach;
  EXPECT_EQ(metrics.SeriesCount() - before, 0u);
  EXPECT_EQ(metrics.CounterValue("watchit_broker_requests_total",
                                 {{"verb", "unknown"}, {"outcome", "deny"}}),
            kTotal);

  size_t denied_records = 0;
  for (const witos::AuditRecord& record : machine.kernel().audit().Snapshot()) {
    std::optional<witbroker::BrokerEvent> event = witbroker::DecodeBrokerRecord(record);
    if (!event.has_value()) {
      continue;
    }
    EXPECT_FALSE(event->granted);
    EXPECT_TRUE(event->ticket_id.empty());
    EXPECT_EQ(record.detail.rfind("DENY % % [] made-up-", 0), 0u);
    EXPECT_NE(std::find(callers.begin(), callers.end(), record.pid), callers.end());
    ++denied_records;
  }
  EXPECT_EQ(denied_records, kTotal);
}

}  // namespace
}  // namespace witobs
