// witprof tests (DESIGN.md §13): lock-contention profiling, ticket
// timelines, the rolling-window SLO engine, the triggered flight recorder,
// and the exporter escaping contracts the recorder's JSON artifacts lean
// on. Ends with the acceptance scenario: a forced SLO breach on a live
// ServerPool must produce a flight-recorder dump holding one ticket's whole
// timeline.
//
// Tracer ring-drop and OpLog/broker retention accounting are covered in
// obs_test.cc; here the drop-reporting focus is the recorder's own
// suppression counters (dumps_dropped, spans_dropped) surfacing inside the
// artifact.

#include "src/obs/profile.h"
#include "src/obs/recorder.h"
#include "src/obs/slo.h"
#include "src/obs/timeline.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/serve/pool.h"
#include "src/workload/ticket_gen.h"

namespace witobs {
namespace {

// ------------------------------------------------------- ProfiledMutex --

TEST(ProfiledMutexTest, UncontendedAcquisitionsRecordZeroWait) {
  MetricsRegistry registry;
  ProfiledMutex mu("witprof.test");
  mu.EnableMetrics(&registry);
  for (int i = 0; i < 5; ++i) {
    std::lock_guard<ProfiledMutex> lock(mu);
  }
  const ProfiledMutex::Stats stats = mu.stats();
  EXPECT_EQ(stats.acquisitions, 5u);
  EXPECT_EQ(stats.contended, 0u);
  EXPECT_EQ(stats.total_wait_ns, 0u);
  // Every acquisition lands in the wait histogram (zeros included, so count
  // equals acquisitions) and every release lands in the hold histogram.
  const Histogram* wait =
      registry.FindHistogram("watchit_lock_wait_ns", {{"lock", "witprof.test"}});
  const Histogram* hold =
      registry.FindHistogram("watchit_lock_hold_ns", {{"lock", "witprof.test"}});
  ASSERT_NE(wait, nullptr);
  ASSERT_NE(hold, nullptr);
  EXPECT_EQ(wait->Count(), 5u);
  EXPECT_EQ(wait->SumNs(), 0u);
  EXPECT_EQ(hold->Count(), 5u);
}

TEST(ProfiledMutexTest, ContendedAcquisitionRecordsWaitTime) {
  MetricsRegistry registry;
  ProfiledMutex mu("witprof.contended");
  mu.EnableMetrics(&registry);
  std::atomic<bool> holder_ready{false};
  std::thread holder([&] {
    std::unique_lock<ProfiledMutex> lock(mu);
    holder_ready.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  });
  while (!holder_ready.load()) {
    std::this_thread::yield();
  }
  mu.lock();  // blocks until the holder's sleep ends
  mu.unlock();
  holder.join();
  const ProfiledMutex::Stats stats = mu.stats();
  EXPECT_EQ(stats.acquisitions, 2u);
  EXPECT_GE(stats.contended, 1u);
  EXPECT_GT(stats.total_wait_ns, 0u);
  const Histogram* wait =
      registry.FindHistogram("watchit_lock_wait_ns", {{"lock", "witprof.contended"}});
  ASSERT_NE(wait, nullptr);
  EXPECT_EQ(wait->Count(), 2u);
  EXPECT_GT(wait->SumNs(), 0u);
}

TEST(TopContendedLocksTest, RanksByTotalWaitAndMergesAcrossRegistries) {
  // TopContendedLocks reads the registry families back, so plain histogram
  // writes stand in for live mutexes — deterministic numbers.
  MetricsRegistry pool_registry;
  MetricsRegistry machine_registry;
  pool_registry.GetHistogram("watchit_lock_wait_ns", {{"lock", "ca"}})->Observe(1000);
  pool_registry.GetHistogram("watchit_lock_hold_ns", {{"lock", "ca"}})->Observe(50);
  pool_registry.GetHistogram("watchit_lock_wait_ns", {{"lock", "securelog"}})->Observe(200);
  pool_registry.GetHistogram("watchit_lock_hold_ns", {{"lock", "securelog"}})->Observe(10);
  // The same logical lock shows up in a second (per-machine) registry: the
  // merged row must sum counts and wait totals.
  machine_registry.GetHistogram("watchit_lock_wait_ns", {{"lock", "securelog"}})
      ->Observe(900);
  machine_registry.GetHistogram("watchit_lock_hold_ns", {{"lock", "securelog"}})
      ->Observe(30);

  const std::vector<LockContention> single = TopContendedLocks(pool_registry);
  ASSERT_EQ(single.size(), 2u);
  EXPECT_EQ(single[0].lock, "ca");  // 1000 > 200
  EXPECT_EQ(single[0].wait_sum_ns, 1000u);
  EXPECT_EQ(single[1].lock, "securelog");

  const std::vector<LockContention> merged =
      TopContendedLocks({&pool_registry, &machine_registry});
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].lock, "securelog");  // 200 + 900 = 1100 > 1000
  EXPECT_EQ(merged[0].wait_count, 2u);
  EXPECT_EQ(merged[0].wait_sum_ns, 1100u);
  EXPECT_EQ(merged[0].hold_sum_ns, 40u);
  EXPECT_EQ(merged[1].lock, "ca");

  const std::vector<LockContention> capped =
      TopContendedLocks({&pool_registry, &machine_registry}, 1);
  ASSERT_EQ(capped.size(), 1u);
  EXPECT_EQ(capped[0].lock, "securelog");
}

// ------------------------------------------------------ TicketTimeline --

SpanRecord MakeSpan(const std::string& name, const std::string& corr, uint64_t start_ns,
                    uint64_t duration_ns, uint64_t thread_id) {
  SpanRecord record;
  record.name = name;
  record.correlation_id = corr;
  record.start_ns = start_ns;
  record.duration_ns = duration_ns;
  record.thread_id = thread_id;
  return record;
}

TEST(TicketTimelineTest, AssemblesCausalCrossThreadTimeline) {
  // A ticket's spans arrive scattered across thread rings and out of order,
  // with a second ticket interleaved; the assembler accepts any thread mix.
  std::vector<SpanRecord> spans;
  spans.push_back(MakeSpan("serve.deploy", "TKT-1", 300, 400, 2));
  spans.push_back(MakeSpan("serve.queue_wait", "TKT-1", 100, 50, 1));
  spans.push_back(MakeSpan("serve.prepare", "TKT-1", 150, 120, 1));
  spans.push_back(MakeSpan("serve.finish", "TKT-1", 700, 100, 3));
  spans.push_back(MakeSpan("serve.prepare", "TKT-2", 900, 40, 1));
  spans.push_back(MakeSpan("anonymous", "", 0, 10, 4));  // no ticket: skipped

  const std::vector<TicketTimeline> all = TicketTimeline::AssembleAll(spans);
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].ticket_id(), "TKT-1");  // oldest first span first
  EXPECT_EQ(all[1].ticket_id(), "TKT-2");

  const TicketTimeline& t1 = all[0];
  ASSERT_EQ(t1.stages().size(), 4u);
  EXPECT_EQ(t1.stages()[0].name, "serve.queue_wait");
  EXPECT_EQ(t1.stages()[1].name, "serve.prepare");
  EXPECT_EQ(t1.stages()[2].name, "serve.deploy");
  EXPECT_EQ(t1.stages()[3].name, "serve.finish");
  EXPECT_EQ(t1.start_ns(), 100u);
  EXPECT_EQ(t1.end_ns(), 800u);
  EXPECT_EQ(t1.SpanNs(), 700u);
  EXPECT_EQ(t1.ThreadCount(), 3u);
  EXPECT_EQ(t1.StageDurationNs("serve.prepare"), 120u);
  // Render names the ticket and attributes stages to threads.
  EXPECT_NE(t1.Render().find("serve.deploy"), std::string::npos);
}

TEST(TicketTimelineTest, RepeatedStagesSumAndForTicketFiltersTracer) {
  Tracer tracer;
  tracer.RecordSpan(MakeSpan("deploy.execute", "TKT-9", 10, 100, 1));
  tracer.RecordSpan(MakeSpan("deploy.execute", "TKT-9", 200, 150, 2));  // dual deploy
  tracer.RecordSpan(MakeSpan("deploy.execute", "TKT-other", 5, 7, 1));
  const TicketTimeline timeline = TicketTimeline::ForTicket(tracer, "TKT-9");
  EXPECT_EQ(timeline.stages().size(), 2u);
  EXPECT_EQ(timeline.StageDurationNs("deploy.execute"), 250u);
  EXPECT_EQ(TicketTimeline::ForTicket(tracer, "TKT-none").stages().size(), 0u);
}

// ----------------------------------------------------------- SloEngine --

TEST(SloEngineTest, WindowedLatencyCatchesRegressionLifetimeHistoryHides) {
  MetricsRegistry registry;
  Histogram* latency = registry.GetHistogram("witprof_e2e_ns");
  SloEngine engine(&registry);
  SloEngine::LatencySlo slo;
  slo.name = "e2e-p99";
  slo.histogram = "witprof_e2e_ns";
  slo.threshold_ns = 1'000'000;  // 1ms
  engine.AddLatencySlo(slo);
  std::vector<SloEngine::Status> fired;
  engine.set_breach_callback([&](const SloEngine::Status& s) { fired.push_back(s); });

  // Days of healthy history: lifetime p99 sits far below the threshold.
  for (int i = 0; i < 100000; ++i) {
    latency->Observe(100);
  }
  (void)engine.Evaluate();  // prime: window starts after the healthy era

  // The regression: only 100 slow events — 0.1% of lifetime, invisible to
  // the lifetime percentile, unmissable in the window delta.
  for (int i = 0; i < 100; ++i) {
    latency->Observe(50'000'000);
  }
  EXPECT_LT(latency->Percentile(99), slo.threshold_ns);  // lifetime: healthy

  const std::vector<SloEngine::Status> statuses = engine.Evaluate();
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_TRUE(statuses[0].breached);
  EXPECT_EQ(statuses[0].window_events, 100u);
  EXPECT_GT(statuses[0].value, static_cast<double>(slo.threshold_ns));
  EXPECT_EQ(engine.breaches(), 1u);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].name, "e2e-p99");
  EXPECT_FALSE(fired[0].detail.empty());
}

TEST(SloEngineTest, RatioBurnRateBreachesAndIdleWindowNeverDoes) {
  MetricsRegistry registry;
  Counter* bad = registry.GetCounter("witprof_rejects_total", {{"outcome", "reject"}});
  Counter* total_a = registry.GetCounter("witprof_served_total", {{"outcome", "ok"}});
  Counter* total_b = registry.GetCounter("witprof_served_total", {{"outcome", "reject"}});

  SloEngine::Options options;
  options.window_samples = 2;  // window = exactly the delta since last Evaluate
  SloEngine engine(&registry, options);
  SloEngine::RatioSlo slo;
  slo.name = "rejects";
  slo.bad = {"witprof_rejects_total", {}};
  slo.total = {"witprof_served_total", {}};  // subset {} folds both outcome series
  slo.objective = 0.99;                      // 1% budget
  slo.max_burn_rate = 2.0;
  engine.AddRatioSlo(slo);

  (void)engine.Evaluate();  // prime
  total_a->Increment(95);
  total_b->Increment(5);
  bad->Increment(5);  // 5% bad against a 1% budget: burn rate 5.0
  std::vector<SloEngine::Status> statuses = engine.Evaluate();
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_TRUE(statuses[0].breached);
  EXPECT_EQ(statuses[0].window_events, 100u);
  EXPECT_NEAR(statuses[0].value, 5.0, 1e-9);

  // No new events: the two-sample window slides past the burst and an idle
  // window is never a breach (0/0 must not divide).
  statuses = engine.Evaluate();
  EXPECT_FALSE(statuses[0].breached);
  EXPECT_EQ(statuses[0].window_events, 0u);
  EXPECT_EQ(engine.breaches(), 1u);
}

TEST(SloEngineTest, SumCountersFoldsLabelSubsets) {
  MetricsRegistry registry;
  registry.GetCounter("witprof_ops_total", {{"op", "read"}, {"outcome", "deny"}})
      ->Increment(3);
  registry.GetCounter("witprof_ops_total", {{"op", "write"}, {"outcome", "deny"}})
      ->Increment(4);
  registry.GetCounter("witprof_ops_total", {{"op", "read"}, {"outcome", "allow"}})
      ->Increment(10);
  EXPECT_EQ(SumCounters(registry, "witprof_ops_total", {}), 17u);
  EXPECT_EQ(SumCounters(registry, "witprof_ops_total", {{"outcome", "deny"}}), 7u);
  EXPECT_EQ(SumCounters(registry, "witprof_absent_total", {}), 0u);
}

// ------------------------------------------------------ FlightRecorder --

// Injected tracer clock for deterministic blackout windows.
uint64_t g_test_now_ns = 0;
uint64_t TestNow() { return g_test_now_ns; }

TEST(FlightRecorderTest, DumpEmbedsSpansLocksMetricsAndSelfDropCounts) {
  MetricsRegistry registry;
  registry.GetHistogram("watchit_lock_wait_ns", {{"lock", "witprof.dump"}})->Observe(777);
  registry.GetCounter("witprof_marker_total")->Increment(42);
  Tracer tracer;
  tracer.RecordSpan(MakeSpan("serve.prepare", "TKT-DUMP", 10, 90, 1));

  FlightRecorder recorder(&registry, &tracer);
  ASSERT_TRUE(recorder.Trigger("slo-breach", "e2e-p99: windowed p99 over threshold"));
  EXPECT_EQ(recorder.dumps_captured(), 1u);
  const std::string json = recorder.last_json();
  EXPECT_NE(json.find("\"reason\":\"slo-breach\""), std::string::npos);
  EXPECT_NE(json.find("e2e-p99: windowed p99 over threshold"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"serve.prepare\""), std::string::npos);
  EXPECT_NE(json.find("\"correlation_id\":\"TKT-DUMP\""), std::string::npos);
  EXPECT_NE(json.find("\"lock\":\"witprof.dump\""), std::string::npos);
  EXPECT_NE(json.find("witprof_marker_total"), std::string::npos);  // metrics snapshot
  EXPECT_NE(json.find("\"spans_dropped\":0"), std::string::npos);
  EXPECT_NE(json.find("\"dumps_dropped\":0"), std::string::npos);

  ASSERT_EQ(recorder.dumps().size(), 1u);
  EXPECT_EQ(recorder.dumps()[0].reason, "slo-breach");
}

TEST(FlightRecorderTest, SpanTruncationIsReportedInsideTheArtifact) {
  MetricsRegistry registry;
  Tracer tracer;
  for (int i = 0; i < 10; ++i) {
    tracer.RecordSpan(MakeSpan("stage", "TKT-N", static_cast<uint64_t>(i), 1, 1));
  }
  FlightRecorder::Options options;
  options.max_spans = 4;
  FlightRecorder recorder(&registry, &tracer, options);
  ASSERT_TRUE(recorder.Trigger("anomaly"));
  // 6 of 10 buffered spans fell outside the dump window; the artifact says
  // so instead of silently looking complete.
  EXPECT_NE(recorder.last_json().find("\"spans_dropped\":6"), std::string::npos);
}

TEST(FlightRecorderTest, MaxDumpsAndBlackoutSuppressAndCountDrops) {
  MetricsRegistry registry;
  Tracer tracer;
  g_test_now_ns = 1000;
  tracer.SetClockForTest(&TestNow);
  FlightRecorder::Options options;
  options.max_dumps = 2;
  options.min_interval_ns = 1000;
  FlightRecorder recorder(&registry, &tracer, options);

  EXPECT_TRUE(recorder.Trigger("slo-breach", "first"));
  g_test_now_ns = 1500;  // inside the blackout
  EXPECT_FALSE(recorder.Trigger("slo-breach", "suppressed"));
  EXPECT_EQ(recorder.dumps_dropped(), 1u);

  g_test_now_ns = 3000;  // blackout over, capacity left
  EXPECT_TRUE(recorder.Trigger("deploy-rollback", "second"));
  EXPECT_EQ(recorder.dumps_captured(), 2u);
  // The suppression that already happened is reported inside the artifact.
  EXPECT_NE(recorder.last_json().find("\"dumps_dropped\":1"), std::string::npos);

  g_test_now_ns = 10000;  // max_dumps reached: dropped regardless of spacing
  EXPECT_FALSE(recorder.Trigger("slo-breach", "over-capacity"));
  EXPECT_EQ(recorder.dumps_dropped(), 2u);
  EXPECT_EQ(recorder.dumps().size(), 2u);
}

// ------------------------------------------- exporter escaping goldens --

TEST(ExporterEscapingTest, PrometheusLabelValuesEscapeBackslashQuoteNewline) {
  MetricsRegistry registry;
  registry
      .GetCounter("watchit_esc_total",
                  {{"path", "C:\\tmp \"x\"\nend"}})
      ->Increment();
  const std::string expected =
      "# TYPE watchit_esc_total counter\n"
      "watchit_esc_total{path=\"C:\\\\tmp \\\"x\\\"\\nend\"} 1\n";
  EXPECT_EQ(RenderPrometheus(registry), expected);
}

TEST(ExporterEscapingTest, PrometheusHelpEscapesBackslashAndNewline) {
  MetricsRegistry registry;
  registry.SetHelp("watchit_esc_total", "line one\nwith a \\ tail");
  registry.GetCounter("watchit_esc_total")->Increment(2);
  const std::string expected =
      "# HELP watchit_esc_total line one\\nwith a \\\\ tail\n"
      "# TYPE watchit_esc_total counter\n"
      "watchit_esc_total 2\n";
  EXPECT_EQ(RenderPrometheus(registry), expected);
}

TEST(ExporterEscapingTest, JsonEscapeGoldenCoversControlCharacters) {
  EXPECT_EQ(JsonEscape("a\"b\\c\nd\te\rf\x01g"),
            "a\\\"b\\\\c\\nd\\te\\rf\\u0001g");
  EXPECT_EQ(JsonEscape("plain"), "plain");
  // A lock or stage name with hostile content cannot corrupt a JSON label
  // map rendered by RenderJson.
  MetricsRegistry registry;
  registry.GetCounter("watchit_esc_total", {{"lock", "a\"b\nc"}})->Increment();
  const std::string json = RenderJson(registry);
  EXPECT_NE(json.find("\"lock\":\"a\\\"b\\nc\""), std::string::npos);
}

// ---------------------------------------------------------- acceptance --

// The witprof acceptance scenario: a live ServerPool instrumented with
// registry + tracer, a deliberately impossible SLO, and a flight recorder
// on the breach wire. One run must produce a dump holding a whole ticket's
// timeline under its id: every serve stage, and the deploy stages nested
// inside serve.deploy.
class WitprofAcceptanceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    witload::TicketGenerator::Options options;
    options.seed = 5;
    witload::TicketGenerator gen(options);
    auto history = gen.GenerateBatch(300, witload::TicketGenerator::HistoricalDistribution());
    std::vector<std::pair<std::string, std::string>> labelled;
    for (const auto& t : history) {
      labelled.emplace_back(t.text, t.true_class);
    }
    watchit::ItFramework::Config config;
    config.lda.iterations = 60;
    framework_ = new watchit::ItFramework(config);
    framework_->TrainOnHistory(labelled);
  }
  static void TearDownTestSuite() {
    delete framework_;
    framework_ = nullptr;
  }

  void SetUp() override {
    for (int i = 0; i < 2; ++i) {
      cluster_.AddMachine("m" + std::to_string(i),
                          witnet::Ipv4Addr(10, 0, 3, static_cast<uint8_t>(50 + i)));
    }
    const std::set<std::string> all_classes = {"T-1", "T-2", "T-3", "T-4",  "T-5", "T-6",
                                               "T-7", "T-8", "T-9", "T-10", "T-11"};
    dispatcher_.AddSpecialist("alice", all_classes);
    dispatcher_.AddSpecialist("bob", all_classes);
  }

  static watchit::ItFramework* framework_;
  watchit::Cluster cluster_;
  watchit::Dispatcher dispatcher_;
};

watchit::ItFramework* WitprofAcceptanceTest::framework_ = nullptr;

// Pulls (name, correlation_id) out of the recorder artifact's span objects
// by scanning the JSON the recorder itself emitted.
struct DumpSpan {
  std::string name;
  std::string corr;
};

std::vector<DumpSpan> ParseDumpSpans(const std::string& json) {
  std::vector<DumpSpan> spans;
  size_t pos = 0;
  while ((pos = json.find("{\"name\":\"", pos)) != std::string::npos) {
    DumpSpan span;
    size_t start = pos + 9;
    size_t end = json.find('"', start);
    span.name = json.substr(start, end - start);
    size_t corr = json.find("\"correlation_id\":\"", end);
    if (corr == std::string::npos) {
      break;
    }
    start = corr + 18;
    end = json.find('"', start);
    span.corr = json.substr(start, end - start);
    pos = end;
    spans.push_back(std::move(span));
  }
  return spans;
}

TEST_F(WitprofAcceptanceTest, ForcedSloBreachDumpsWholeTicketTimeline) {
  // Declared before the pool so both outlive it (DESIGN.md §13's
  // registry-outlives-instrumented-structure rule).
  MetricsRegistry registry;
  Tracer tracer(1 << 12);
  FlightRecorder recorder(&registry, &tracer);
  SloEngine slo_engine(&registry);
  // 1ns e2e p99: no real ticket can meet it — the forced breach.
  InstallWatchItSlos(&slo_engine, 1);
  slo_engine.set_breach_callback([&](const SloEngine::Status& status) {
    recorder.Trigger("slo-breach", status.name + ": " + status.detail);
  });

  witserve::ServerPool::Options options;
  options.workers = 2;
  witserve::ServerPool pool(&cluster_, framework_, &dispatcher_, options);
  pool.EnableMetrics(&registry, &tracer);
  (void)slo_engine.Evaluate();  // prime: the next window covers the run

  witload::TicketGenerator::Options gen_options;
  gen_options.seed = 77;
  gen_options.with_ops = true;
  witload::TicketGenerator gen(gen_options);
  const auto tickets =
      gen.GenerateBatch(12, witload::TicketGenerator::EvaluationDistribution());

  pool.Start();
  for (size_t i = 0; i < tickets.size(); ++i) {
    const std::string target = "m" + std::to_string(i % 2);
    const std::string user =
        tickets[i].true_class == "T-9" ? pool.PeerInShard(target) : std::string();
    ASSERT_TRUE(pool.Submit(tickets[i], target, user).ok());
  }
  pool.Drain();
  pool.Stop();

  const std::vector<SloEngine::Status> statuses = slo_engine.Evaluate();
  bool latency_breached = false;
  for (const auto& status : statuses) {
    if (status.name == "ticket-e2e-latency") {
      latency_breached = status.breached;
      EXPECT_GE(status.window_events, tickets.size());
    }
  }
  EXPECT_TRUE(latency_breached);
  ASSERT_GE(recorder.dumps_captured(), 1u);

  const std::string dump = recorder.last_json();
  EXPECT_NE(dump.find("\"reason\":\"slo-breach\""), std::string::npos);
  EXPECT_NE(dump.find("ticket-e2e-latency"), std::string::npos);

  // The acceptance bar: one ticket's spans in the dump cover every serve
  // stage and at least one deploy stage.
  const std::vector<DumpSpan> spans = ParseDumpSpans(dump);
  ASSERT_FALSE(spans.empty());
  std::map<std::string, std::set<std::string>> stages_by_ticket;
  for (const auto& span : spans) {
    if (!span.corr.empty()) {
      stages_by_ticket[span.corr].insert(span.name);
    }
  }
  std::string whole_ticket;
  for (const auto& [ticket, names] : stages_by_ticket) {
    bool deploy_stage = false;
    for (const std::string& name : names) {
      deploy_stage = deploy_stage || name.rfind("deploy.", 0) == 0;
    }
    if (deploy_stage && names.count("serve.queue_wait") == 1 &&
        names.count("serve.prepare") == 1 && names.count("serve.deploy") == 1 &&
        names.count("serve.finish") == 1) {
      whole_ticket = ticket;
      break;
    }
  }
  ASSERT_FALSE(whole_ticket.empty()) << "no ticket in the dump carried its whole timeline";

  // The same snapshot reassembles into that ticket's timeline, recorded by
  // the one worker that served it.
  const TicketTimeline timeline = TicketTimeline::ForTicket(tracer, whole_ticket);
  EXPECT_EQ(timeline.ThreadCount(), 1u);
  EXPECT_GT(timeline.SpanNs(), 0u);

  // The per-lock ranking in the same registry set names the serve-side
  // locks, the deploy stats lock included, which ServerPool::EnableMetrics
  // wires to the pool registry (the dump's top_locks table draws from it).
  std::vector<const MetricsRegistry*> registries = {&registry};
  for (size_t i = 0; i < cluster_.size(); ++i) {
    registries.push_back(&cluster_.machine(i).metrics());
  }
  const std::vector<LockContention> locks = TopContendedLocks(registries);
  std::set<std::string> lock_names;
  for (const auto& lock : locks) {
    lock_names.insert(lock.lock);
  }
  EXPECT_EQ(lock_names.count("ca"), 1u);
  EXPECT_EQ(lock_names.count("dispatcher"), 1u);
  EXPECT_EQ(lock_names.count("deploy.stats"), 1u);
}

}  // namespace
}  // namespace witobs
