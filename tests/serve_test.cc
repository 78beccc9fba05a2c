// witserve tests: bounded-queue admission control, the shared-nothing
// worker pool with work stealing, the open-loop load generator, and the
// concurrency contracts the serving engine leans on (anomaly analysis over
// a consistent broker snapshot, SimClock single-owner discipline). The
// SecureLog's concurrent-appender cases live in securelog_test.

#include "src/serve/loadgen.h"
#include "src/serve/pool.h"
#include "src/serve/queue.h"

#include <gtest/gtest.h>
#include <time.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "src/broker/anomaly.h"
#include "src/broker/broker.h"
#include "src/os/clock.h"

namespace witserve {
namespace {

uint64_t ThreadCpuNs() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull + static_cast<uint64_t>(ts.tv_nsec);
}

ServeJob MakeJob(const std::string& id) {
  ServeJob job;
  job.ticket.id = id;
  return job;
}

TEST(TicketQueueTest, OwnerPopsFifoThiefStealsLifo) {
  TicketQueue queue;
  ASSERT_TRUE(queue.TryPush(MakeJob("a")).ok());
  ASSERT_TRUE(queue.TryPush(MakeJob("b")).ok());
  ASSERT_TRUE(queue.TryPush(MakeJob("c")).ok());
  ServeJob job;
  ASSERT_TRUE(queue.TryPop(&job));
  EXPECT_EQ(job.ticket.id, "a");  // oldest first for the owner
  ASSERT_TRUE(queue.TrySteal(&job));
  EXPECT_EQ(job.ticket.id, "c");  // newest first for a thief
  ASSERT_TRUE(queue.TryPop(&job));
  EXPECT_EQ(job.ticket.id, "b");
  EXPECT_FALSE(queue.TryPop(&job));
  EXPECT_FALSE(queue.TrySteal(&job));
}

TEST(TicketQueueTest, WatermarkHysteresis) {
  TicketQueue::Options options;
  options.capacity = 8;
  options.low_watermark = 4;
  TicketQueue queue(options);
  EXPECT_EQ(queue.high_watermark(), 8u);
  EXPECT_EQ(queue.low_watermark(), 4u);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(queue.TryPush(MakeJob("t")).ok());
  }
  // Depth hit the high watermark: admission closes.
  EXPECT_EQ(queue.TryPush(MakeJob("over")).error(), witos::Err::kBusy);
  EXPECT_FALSE(queue.admitting());
  ServeJob job;
  // Draining one job is not enough — hysteresis keeps admission closed
  // until the low watermark, so the boundary cannot flap.
  ASSERT_TRUE(queue.TryPop(&job));
  EXPECT_EQ(queue.TryPush(MakeJob("still-over")).error(), witos::Err::kBusy);
  while (queue.depth() > queue.low_watermark()) {
    ASSERT_TRUE(queue.TryPop(&job));
  }
  EXPECT_TRUE(queue.TryPush(MakeJob("reopened")).ok());
  EXPECT_TRUE(queue.admitting());
  EXPECT_EQ(queue.accepted(), 9u);
  EXPECT_EQ(queue.rejected(), 2u);
  EXPECT_EQ(queue.peak_depth(), 8u);
}

TEST(TicketQueueTest, CloseRefusesPushesAndDrainsRemainder) {
  TicketQueue queue;
  ASSERT_TRUE(queue.TryPush(MakeJob("first")).ok());
  ASSERT_TRUE(queue.TryPush(MakeJob("second")).ok());
  queue.Close();
  EXPECT_TRUE(queue.closed());
  EXPECT_EQ(queue.TryPush(MakeJob("late")).error(), witos::Err::kPipe);
  ServeJob job;
  // Queued work survives Close() so shutdown never loses tickets, from
  // either end.
  ASSERT_TRUE(queue.TryPop(&job));
  EXPECT_EQ(job.ticket.id, "first");
  ASSERT_TRUE(queue.TrySteal(&job));
  EXPECT_EQ(job.ticket.id, "second");
  EXPECT_FALSE(queue.TryPop(&job));  // closed + empty
  EXPECT_FALSE(queue.TrySteal(&job));
}

TEST(TicketQueueTest, MpmcStressDeliversEveryJobExactlyOnce) {
  TicketQueue::Options options;
  options.capacity = 100000;  // no admission pressure; this is a race test
  TicketQueue queue(options);
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 250;
  std::vector<std::thread> threads;
  std::mutex seen_mu;
  std::multiset<std::string> seen;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&queue, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(
            queue.TryPush(MakeJob(std::to_string(p) + ":" + std::to_string(i))).ok());
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&queue, &seen_mu, &seen, c] {
      ServeJob job;
      for (;;) {
        // Alternate owner pops and thief steals to exercise both ends.
        bool got = (c % 2 == 0) ? queue.TryPop(&job) : queue.TrySteal(&job);
        if (!got) {
          // closed() first: once it holds, no push can follow, so an empty
          // queue stays empty.
          if (queue.closed() && queue.depth() == 0) {
            return;
          }
          std::this_thread::yield();
          continue;
        }
        std::lock_guard<std::mutex> lock(seen_mu);
        seen.insert(job.ticket.id);
      }
    });
  }
  threads[0].join();
  threads[1].join();
  threads[2].join();
  threads[3].join();
  queue.Close();
  for (size_t i = 4; i < threads.size(); ++i) {
    threads[i].join();
  }
  EXPECT_EQ(seen.size(), static_cast<size_t>(kProducers) * kPerProducer);
  for (int p = 0; p < kProducers; ++p) {
    for (int i = 0; i < kPerProducer; ++i) {
      EXPECT_EQ(seen.count(std::to_string(p) + ":" + std::to_string(i)), 1u);
    }
  }
}

TEST(BrokerSnapshotTest, AnomalyAnalysisRunsBesideLiveTraffic) {
  witos::Kernel kernel("host");
  witos::Pid broker_pid = *kernel.Clone(1, "PermissionBroker", 0);
  witbroker::PolicyManager policy;
  witbroker::ClassPolicy standard;
  standard.allowed_verbs = {witbroker::kVerbPs, witbroker::kVerbRestartService};
  policy.SetPolicy("T-1", standard);
  witbroker::RpcChannel channel;
  witbroker::PermissionBroker broker(&kernel, broker_pid, &policy, &channel);
  // The session's shell: a root process alone in the cgroup TKT-1 is bound to.
  const witos::Pid shell = *kernel.Clone(1, "bash", 0);
  const witos::CgroupId cgroup = kernel.cgroups().Create("session-1", 0);
  ASSERT_TRUE(kernel.AssignCgroup(shell, cgroup).ok());
  ASSERT_TRUE(broker.BindTicket("TKT-1", "T-1", "alice", cgroup, /*expires_ns=*/UINT64_MAX).ok());

  // One writer (in witserve the machine lock serializes every call into a
  // machine's broker; the contract under test is snapshot-while-writing,
  // not parallel HandleBatch).
  std::atomic<bool> done{false};
  std::thread writer([&broker, &done, shell] {
    witbroker::RpcBatchRequest batch;
    batch.ops.resize(1);
    for (int i = 0; i < 500; ++i) {
      batch.ops[0].method = (i % 2 == 0) ? witbroker::kVerbPs : witbroker::kVerbRestartService;
      batch.ops[0].args = (i % 2 == 0) ? std::vector<std::string>{}
                                       : std::vector<std::string>{"sshd"};
      broker.HandleBatch(shell, batch);
    }
    done.store(true);
  });
  // do-while: on a single-core host the writer may finish before this loop
  // first runs, and the post-completion analysis must still hold.
  do {
    const std::vector<witbroker::BrokerEvent> events =
        witbroker::BrokerEventsOf(broker.log().Snapshot());
    witbroker::AnomalyDetector detector;
    detector.Fit(events);
    const auto scores = detector.Analyze(events);
    EXPECT_EQ(scores.size(), events.size());
  } while (!done.load());
  writer.join();
  EXPECT_EQ(witbroker::BrokerEventsOf(broker.log().Snapshot()).size(), 500u);
  EXPECT_TRUE(broker.log().Verify());
}

TEST(SimClockTest, ResumeUnderflowNeverWrapsPausedState) {
  witos::SimClock clock;
#ifdef NDEBUG
  clock.Resume();  // no matching Pause()
  EXPECT_EQ(clock.resume_underflows(), 1u);
  // The clock must still charge time afterwards — paused_ did not wrap.
  clock.Advance(7);
  EXPECT_EQ(clock.now_ns(), 7u);
#else
  EXPECT_DEATH(clock.Resume(), "matching Pause");
#endif
}

TEST(SimClockTest, OwnershipViolationIsNeverSilent) {
  witos::SimClock clock;
  std::thread([&clock] { clock.BindOwner(); }).join();
  // The owner thread is gone without releasing; this thread is not the
  // owner, so mutating must trip the discipline check.
#ifdef NDEBUG
  clock.Advance(5);
  EXPECT_EQ(clock.ownership_violations(), 1u);
#else
  EXPECT_DEATH(clock.Advance(5), "bound owner");
#endif
}

TEST(SimClockTest, BindReleaseHandoffIsClean) {
  witos::SimClock clock;
  std::thread([&clock] {
    clock.BindOwner();
    clock.Advance(10);
    clock.ReleaseOwner();
  }).join();
  clock.BindOwner();
  clock.Advance(5);
  clock.ReleaseOwner();
  EXPECT_EQ(clock.now_ns(), 15u);
  EXPECT_EQ(clock.ownership_violations(), 0u);
}

// Serving tests share one trained framework: training dominates runtime and
// the framework is read-only (thread-safe) once trained.
class ServePoolTest : public ::testing::Test {
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
    for (int i = 0; i < 4; ++i) {
      cluster_.AddMachine("m" + std::to_string(i),
                          witnet::Ipv4Addr(10, 0, 2, static_cast<uint8_t>(50 + i)));
    }
    const std::set<std::string> all_classes = {"T-1", "T-2", "T-3", "T-4",  "T-5", "T-6",
                                               "T-7", "T-8", "T-9", "T-10", "T-11"};
    dispatcher_.AddSpecialist("alice", all_classes);
    dispatcher_.AddSpecialist("bob", all_classes);
    dispatcher_.AddSpecialist("carol", all_classes);
  }

  std::vector<witload::GeneratedTicket> MakeTickets(size_t n, uint32_t seed = 77) {
    witload::TicketGenerator::Options options;
    options.seed = seed;
    options.with_ops = true;
    witload::TicketGenerator gen(options);
    return gen.GenerateBatch(n, witload::TicketGenerator::EvaluationDistribution());
  }

  // Submits `ticket` to `target`; a T-9 ticket gets a user machine in the
  // same shard.
  static witos::Status SubmitTo(ServerPool* pool, const witload::GeneratedTicket& ticket,
                                const std::string& target) {
    const std::string user =
        ticket.true_class == "T-9" ? pool->PeerInShard(target) : std::string();
    return pool->Submit(ticket, target, user);
  }

  static watchit::ItFramework* framework_;
  watchit::Cluster cluster_;
  watchit::Dispatcher dispatcher_;
};

watchit::ItFramework* ServePoolTest::framework_ = nullptr;

TEST_F(ServePoolTest, ServesConcurrentlyWithCleanDiscipline) {
  ServerPool::Options options;
  options.workers = 2;
  ServerPool pool(&cluster_, framework_, &dispatcher_, options);
  witobs::MetricsRegistry registry;
  pool.EnableMetrics(&registry);
  pool.Start();
  const auto tickets = MakeTickets(40);
  for (size_t i = 0; i < tickets.size(); ++i) {
    const std::string target = "m" + std::to_string(i % 4);
    const std::string user =
        tickets[i].true_class == "T-9" ? pool.PeerInShard(target) : std::string();
    ASSERT_TRUE(pool.Submit(tickets[i], target, user).ok());
  }
  pool.Drain();
  pool.Stop();
  const ServerPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.submitted, 40u);
  EXPECT_EQ(stats.served, 40u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.rejected, 0u);
  // The shard discipline held: nobody touched a clock they did not own.
  EXPECT_EQ(stats.clock_ownership_violations, 0u);
  EXPECT_EQ(stats.clock_resume_underflows, 0u);
  // All deployments expired, dispatcher accounting drained to zero.
  for (size_t i = 0; i < cluster_.size(); ++i) {
    EXPECT_EQ(cluster_.machine(i).containit().active_sessions(), 0u);
    EXPECT_TRUE(cluster_.machine(i).broker().log().Verify());
  }
  EXPECT_EQ(dispatcher_.Find("alice")->open_tickets, 0u);
  EXPECT_EQ(dispatcher_.Find("bob")->open_tickets, 0u);
  EXPECT_EQ(dispatcher_.Find("carol")->open_tickets, 0u);
  // End-to-end latency was recorded for every served ticket.
  ASSERT_NE(pool.latency_histogram(), nullptr);
  EXPECT_EQ(pool.latency_histogram()->Count(), 40u);
}

TEST_F(ServePoolTest, IdleWorkersStealFromTheLoadedShard) {
  ServerPool::Options options;
  options.workers = 4;  // m0 is alone in shard 0; shards 1..3 idle
  ServerPool pool(&cluster_, framework_, &dispatcher_, options);
  const auto tickets = MakeTickets(60);
  for (const auto& ticket : tickets) {
    ASSERT_TRUE(pool.Submit(ticket, "m0").ok());  // all load on one shard
  }
  pool.Start();
  pool.Drain();
  pool.Stop();
  const ServerPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.served, 60u);
  // Work stealing moved jobs to non-owner workers (still serialized by the
  // victim's shard mutex — discipline stays clean).
  EXPECT_GT(stats.stolen, 0u);
  EXPECT_EQ(stats.clock_ownership_violations, 0u);
}

// An idle worker parks instead of polling: once the pool has served its
// ticket, the shard queues' locks see no acquisition at all.
TEST_F(ServePoolTest, IdleWorkersTakeNoQueueLocks) {
  witobs::MetricsRegistry registry;  // outlives the pool
  ServerPool::Options options;
  options.workers = 2;
  ServerPool pool(&cluster_, framework_, &dispatcher_, options);
  pool.EnableMetrics(&registry);
  pool.Start();
  ASSERT_TRUE(SubmitTo(&pool, MakeTickets(1)[0], "m0").ok());
  pool.Drain();
  auto queue_acquisitions = [&registry] {
    uint64_t count = 0;
    for (const char* lock : {"serve.queue.0", "serve.queue.1"}) {
      count += registry.GetHistogram("watchit_lock_wait_ns", {{"lock", lock}})->Count();
    }
    return count;
  };
  // The worker that served the ticket scans every queue once more before
  // it parks: wait, for at most 2 s, for a 20 ms window without a queue
  // lock acquisition.
  uint64_t settled = queue_acquisitions();
  for (int i = 0; i < 100; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const uint64_t now = queue_acquisitions();
    if (now == settled) {
      break;
    }
    settled = now;
  }
  EXPECT_GT(settled, 0u);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(queue_acquisitions(), settled);
  pool.Stop();
  EXPECT_EQ(pool.stats().served, 1u);
}

// The wake rule: with one worker held inside a shard-0 deploy, a second
// shard-0 ticket wakes the other, parked worker, which serves it.
TEST_F(ServePoolTest, SubmitWakesAParkedThiefWhileTheOwnerIsBusy) {
  ServerPool::Options options;
  options.workers = 2;  // shard 0: m0, m2; shard 1: m1, m3
  ServerPool pool(&cluster_, framework_, &dispatcher_, options);
  const auto tickets = MakeTickets(2);
  std::mutex mu;
  std::condition_variable cv;
  bool held = false;
  bool release = false;
  std::set<std::string> served;
  // The hook runs before the machine lock is taken, so the held ticket
  // blocks its worker and nothing else.
  pool.deploy_pipeline().set_stage_hook(
      [&](watchit::DeployStage, const watchit::Ticket& ticket, watchit::Machine*) {
        if (ticket.id == tickets[0].id) {
          std::unique_lock<std::mutex> lock(mu);
          held = true;
          cv.notify_all();
          cv.wait(lock, [&release] { return release; });
        }
        return witos::Status::Ok();
      });
  pool.set_result_callback([&](const watchit::ResolvedTicket& resolved) {
    std::lock_guard<std::mutex> lock(mu);
    served.insert(resolved.ticket.id);
    cv.notify_all();
  });
  pool.Start();
  ASSERT_TRUE(SubmitTo(&pool, tickets[0], "m0").ok());
  bool second_served = false;
  {
    std::unique_lock<std::mutex> lock(mu);
    EXPECT_TRUE(cv.wait_for(lock, std::chrono::seconds(30), [&held] { return held; }));
  }
  ASSERT_TRUE(SubmitTo(&pool, tickets[1], "m0").ok());
  {
    // Timed waits only, and the latch always opens: a failure here must
    // not leave the held worker blocked.
    std::unique_lock<std::mutex> lock(mu);
    second_served = cv.wait_for(lock, std::chrono::seconds(30),
                                [&] { return served.count(tickets[1].id) == 1; });
    EXPECT_EQ(served.count(tickets[0].id), 0u);
    release = true;
  }
  cv.notify_all();
  EXPECT_TRUE(second_served) << "the second ticket waited for the held one";
  pool.Drain();
  pool.Stop();
  const ServerPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.served, 2u);
  EXPECT_EQ(stats.stolen, 1u);  // one of the two shard-0 tickets ran on worker 1
}

// Stop() on a started pool whose workers have all parked wakes them, and
// they exit.
TEST_F(ServePoolTest, StopWakesParkedWorkers) {
  ServerPool::Options options;
  options.workers = 4;
  ServerPool pool(&cluster_, framework_, &dispatcher_, options);
  pool.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // nothing to do: all park
  pool.Stop();
  EXPECT_EQ(pool.Submit(MakeTickets(1)[0], "m0").error(), witos::Err::kPipe);
  EXPECT_EQ(pool.stats().submitted, 0u);
}

// Two producers race Submit (each publish and wake) against parking
// workers; every ticket is served exactly once.
TEST_F(ServePoolTest, TwoProducersServeEveryTicketOnce) {
  constexpr size_t kPerProducer = 200;
  ServerPool::Options options;
  options.workers = 3;
  ServerPool pool(&cluster_, framework_, &dispatcher_, options);
  const auto tickets = MakeTickets(2 * kPerProducer);
  std::mutex mu;
  std::map<std::string, size_t> seen;
  pool.set_result_callback([&mu, &seen](const watchit::ResolvedTicket& resolved) {
    std::lock_guard<std::mutex> lock(mu);
    ++seen[resolved.ticket.id];
  });
  pool.Start();
  std::vector<std::thread> producers;
  for (size_t p = 0; p < 2; ++p) {
    producers.emplace_back([&pool, &tickets, p] {
      for (size_t i = p * kPerProducer; i < (p + 1) * kPerProducer; ++i) {
        // Appended, not `"m" + std::to_string(...)`: GCC 12 at -O3 reads
        // that as an overlapping copy (-Wrestrict) here.
        std::string target(1, 'm');
        target += std::to_string(i % 4);
        EXPECT_TRUE(SubmitTo(&pool, tickets[i], target).ok());
      }
    });
  }
  for (std::thread& producer : producers) {
    producer.join();
  }
  pool.Drain();
  pool.Stop();
  const ServerPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.submitted, 2 * kPerProducer);
  EXPECT_EQ(stats.served, 2 * kPerProducer);
  EXPECT_EQ(stats.clock_ownership_violations, 0u);
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(seen.size(), tickets.size());
  for (const auto& ticket : tickets) {
    EXPECT_EQ(seen[ticket.id], 1u) << ticket.id;
  }
}

// Deploys run on the shard worker, so their CPU is charged to the shard:
// a stage hook that burns 2 ms of thread CPU per deploy must show up in
// the shards' busy time ("effective t/s" used to leave deploys out).
TEST_F(ServePoolTest, ShardBusyCpuIncludesDeployCpu) {
  constexpr uint64_t kBurnNs = 2'000'000;
  constexpr size_t kTickets = 12;
  ServerPool::Options options;
  options.workers = 2;
  ServerPool pool(&cluster_, framework_, &dispatcher_, options);
  pool.deploy_pipeline().set_stage_hook(
      [](watchit::DeployStage stage, const watchit::Ticket&, watchit::Machine*) {
        if (stage == watchit::DeployStage::kConstruct) {
          const uint64_t start = ThreadCpuNs();
          while (ThreadCpuNs() - start < kBurnNs) {
          }
        }
        return witos::Status::Ok();
      });
  pool.Start();
  const auto tickets = MakeTickets(kTickets);
  for (size_t i = 0; i < tickets.size(); ++i) {
    const std::string target = "m" + std::to_string(i % 4);
    const std::string user =
        tickets[i].true_class == "T-9" ? pool.PeerInShard(target) : std::string();
    ASSERT_TRUE(pool.Submit(tickets[i], target, user).ok());
  }
  pool.Drain();
  pool.Stop();
  const ServerPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.served, kTickets);
  EXPECT_GE(stats.deploy.deployed, kTickets);
  EXPECT_GE(stats.total_busy_cpu_ns, kTickets * kBurnNs);
}

TEST_F(ServePoolTest, AdmissionControlRejectsPastHighWatermark) {
  ServerPool::Options options;
  options.workers = 1;
  options.queue.capacity = 8;
  options.queue.low_watermark = 4;
  ServerPool pool(&cluster_, framework_, &dispatcher_, options);
  const auto tickets = MakeTickets(10);
  // Pool not started: the queue fills to the high watermark, then EBUSY.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(pool.Submit(tickets[static_cast<size_t>(i)], "m0").ok());
  }
  EXPECT_EQ(pool.Submit(tickets[8], "m0").error(), witos::Err::kBusy);
  EXPECT_EQ(pool.Submit(tickets[9], "m0").error(), witos::Err::kBusy);
  const ServerPool::Stats before = pool.stats();
  EXPECT_EQ(before.rejected, 2u);
  EXPECT_EQ(before.peak_queue_depth, 8u);
  // Workers drain the backlog; everything admitted gets served.
  pool.Start();
  pool.Drain();
  pool.Stop();
  EXPECT_EQ(pool.stats().served, 8u);
}

TEST_F(ServePoolTest, RoutingErrorsAreExplicit) {
  ServerPool::Options options;
  options.workers = 2;  // shard 0: m0, m2; shard 1: m1, m3
  ServerPool pool(&cluster_, framework_, &dispatcher_, options);
  const auto tickets = MakeTickets(1);
  EXPECT_EQ(pool.Submit(tickets[0], "ghost").error(), witos::Err::kHostUnreach);
  EXPECT_EQ(pool.Submit(tickets[0], "m0", "ghost").error(), witos::Err::kHostUnreach);
  // A T-9 dual deployment across shards would break shared-nothing.
  EXPECT_EQ(pool.Submit(tickets[0], "m0", "m1").error(), witos::Err::kXdev);
  EXPECT_EQ(pool.ShardOf("m0"), pool.ShardOf(pool.PeerInShard("m0")));
  EXPECT_EQ(pool.PeerInShard("m0"), "m2");
  EXPECT_EQ(pool.stats().submitted, 0u);
}

TEST_F(ServePoolTest, LoadGeneratorDrivesPoolEndToEnd) {
  ServerPool::Options pool_options;
  pool_options.workers = 2;
  pool_options.queue.capacity = 16;  // small queue: forces backpressure
  pool_options.queue.low_watermark = 8;
  ServerPool pool(&cluster_, framework_, &dispatcher_, pool_options);
  pool.Start();

  LoadGenerator::Options load_options;
  load_options.seed = 42;
  load_options.tickets = 120;
  LoadGenerator loadgen(load_options);
  const auto arrivals = loadgen.Generate(pool);
  ASSERT_EQ(arrivals.size(), 120u);
  // Deterministic: same seed, same pool geometry, same plan.
  const auto replay = loadgen.Generate(pool);
  for (size_t i = 0; i < arrivals.size(); ++i) {
    EXPECT_EQ(arrivals[i].ticket.text, replay[i].ticket.text);
    EXPECT_EQ(arrivals[i].target, replay[i].target);
    EXPECT_EQ(arrivals[i].offset_ns, replay[i].offset_ns);
  }
  uint64_t last_offset = 0;
  for (const auto& arrival : arrivals) {
    EXPECT_GE(arrival.offset_ns, last_offset);  // Poisson offsets accumulate
    last_offset = arrival.offset_ns;
    if (arrival.ticket.true_class == "T-9") {
      EXPECT_EQ(pool.ShardOf(arrival.user), pool.ShardOf(arrival.target));
    }
  }

  const LoadGenerator::RunStats run = loadgen.Run(&pool, arrivals);
  pool.Drain();
  pool.Stop();
  EXPECT_EQ(run.submitted, 120u);
  EXPECT_EQ(run.dropped, 0u);  // retry_on_busy resubmits after EBUSY
  const ServerPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.served, 120u);
  EXPECT_EQ(stats.clock_ownership_violations, 0u);
}

}  // namespace
}  // namespace witserve
