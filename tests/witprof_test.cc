// witprof tests (DESIGN.md §13): lock-contention profiling, ticket
// timelines, and the exporter escaping contracts. Ends with the acceptance
// scenario: every ticket a live ServerPool served must reassemble from the
// pool's tracer into its whole timeline.
//
// Tracer ring-drop accounting is covered in obs_test.cc.

#include "src/obs/profile.h"
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
// registry + tracer. Every ticket it serves must yield a whole timeline
// under its id: every serve stage, and the deploy stages recorded inside
// serve.deploy.
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
    cluster_.AddMachine("m0", witnet::Ipv4Addr(10, 0, 3, 50));
    cluster_.AddMachine("m1", witnet::Ipv4Addr(10, 0, 3, 51));
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

TEST_F(WitprofAcceptanceTest, EveryServedTicketHasItsWholeTimeline) {
  // Declared before the pool so both outlive it (DESIGN.md §13's
  // registry-outlives-instrumented-structure rule).
  MetricsRegistry registry;
  Tracer tracer(1 << 12);

  witserve::ServerPool::Options options;
  options.workers = 2;
  witserve::ServerPool pool(&cluster_, framework_, &dispatcher_, options);
  pool.EnableMetrics(&registry, &tracer);

  witload::TicketGenerator::Options gen_options;
  gen_options.seed = 77;
  gen_options.with_ops = true;
  witload::TicketGenerator gen(gen_options);
  const auto tickets =
      gen.GenerateBatch(12, witload::TicketGenerator::EvaluationDistribution());

  pool.Start();
  for (size_t i = 0; i < tickets.size(); ++i) {
    const std::string target = i % 2 == 0 ? "m0" : "m1";
    const std::string user =
        tickets[i].true_class == "T-9" ? pool.PeerInShard(target) : std::string();
    ASSERT_TRUE(pool.Submit(tickets[i], target, user).ok());
  }
  pool.Drain();
  pool.Stop();

  // The acceptance bar: no span was lost, and each ticket's timeline,
  // recorded by the one worker that served it, covers every serve stage and
  // at least one deploy stage.
  ASSERT_EQ(pool.stats().served, tickets.size());
  EXPECT_EQ(tracer.dropped(), 0u);
  for (const auto& ticket : tickets) {
    const TicketTimeline timeline = TicketTimeline::ForTicket(tracer, ticket.id);
    std::map<std::string, size_t> stages;
    bool deploy_stage = false;
    for (const SpanRecord& span : timeline.stages()) {
      ++stages[span.name];
      deploy_stage = deploy_stage || span.name.rfind("deploy.", 0) == 0;
    }
    EXPECT_TRUE(deploy_stage) << ticket.id;
    for (const char* stage :
         {"serve.queue_wait", "serve.prepare", "serve.deploy", "serve.finish"}) {
      EXPECT_EQ(stages[stage], 1u) << ticket.id << " " << stage;
    }
    EXPECT_EQ(timeline.ThreadCount(), 1u) << ticket.id;
    EXPECT_GT(timeline.SpanNs(), 0u) << ticket.id;
  }

  // The per-lock ranking over the pool and machine registries names the
  // serve-side locks: the deploy stats and park locks, which
  // ServerPool::EnableMetrics wires to the pool registry, and the machine
  // lock, which each machine wires to its own at boot.
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
  EXPECT_EQ(lock_names.count("serve.park"), 1u);
  EXPECT_EQ(lock_names.count("machine"), 1u);
}

}  // namespace
}  // namespace witobs
