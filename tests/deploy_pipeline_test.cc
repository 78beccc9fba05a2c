// Deploy-pipeline tests: the staged deploy transaction (rollback on every
// stage failure), Expire idempotence, DeployPipeline::Deploy (stage spans,
// concurrent deployers, deploys from both entry points on one machine), and
// the fault-injection sweep proving that a failed deploy never leaks a
// bound ticket, a live session or an unrevoked certificate.

#include "src/core/deploy.h"

#include <gtest/gtest.h>

#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/core/cluster.h"
#include "src/obs/metrics.h"
#include "src/obs/timeline.h"
#include "src/obs/trace.h"
#include "src/os/fault.h"
#include "src/os/kernel.h"
#include "src/os/memfs.h"

namespace watchit {
namespace {

Ticket MakeTicket(const std::string& id, const std::string& machine,
                  const std::string& ticket_class = "T-1") {
  Ticket ticket;
  ticket.id = id;
  ticket.target_machine = machine;
  ticket.assigned_class = ticket_class;
  ticket.admin = "alice";
  return ticket;
}

// Asserts the no-trace invariant: after a failed (or fully expired) deploy
// the machine holds no bound ticket, no live session, and every certificate
// the CA ever issued has been revoked.
void ExpectNoLeaks(Cluster* cluster, Machine* machine) {
  EXPECT_EQ(machine->broker().bound_ticket_count(), 0u);
  EXPECT_EQ(machine->containit().active_sessions(), 0u);
  EXPECT_EQ(cluster->ca().issued_count(), cluster->ca().revoked_count());
}

// --- transactional rollback (satellite regressions) --------------------------

// Regression: a Deploy that fails container construction must not leave the
// broker ticket binding behind (the binding used to precede construction and
// leaked on this path).
TEST(DeployRollbackTest, ConstructFailureLeavesNoTrace) {
  Cluster cluster;
  Machine& machine = cluster.AddMachine("userpc", witnet::Ipv4Addr(10, 0, 1, 50));
  // A session needs several processes; a 1-process cgroup cap makes the
  // shell clone fail deterministically partway through construction.
  witcontain::PerforatedContainerSpec cramped;
  cramped.name = "cramped";
  cramped.max_processes = 1;
  cluster.images().Register("T-CRAMPED", cramped);

  ClusterManager manager(&cluster);
  Ticket ticket = MakeTicket("TKT-CRAMPED", "userpc", "T-CRAMPED");
  EXPECT_FALSE(manager.Deploy(ticket).ok());
  EXPECT_FALSE(machine.broker().IsTicketBound("TKT-CRAMPED"));
  ExpectNoLeaks(&cluster, &machine);
}

// A failure *after* the bind stage must unwind the binding and the session.
TEST(DeployRollbackTest, LateStageFailureUnbindsTicket) {
  Cluster cluster;
  Machine& machine = cluster.AddMachine("userpc", witnet::Ipv4Addr(10, 0, 1, 50));

  class FailCertGate : public DeployGate {
   public:
    witos::Status BeforeStage(DeployStage stage, Machine*) override {
      return stage == DeployStage::kIssueCert ? witos::Status(witos::Err::kIo)
                                              : witos::Status::Ok();
    }
    void OnRollback(DeployStage failed_stage, witos::Err err) override {
      failed_stage_ = failed_stage;
      err_ = err;
      ++rollbacks_;
    }
    DeployStage failed_stage_ = DeployStage::kImageLookup;
    witos::Err err_ = witos::Err::kOk;
    int rollbacks_ = 0;
  } gate;

  Ticket ticket = MakeTicket("TKT-LATE", "userpc");
  auto result =
      RunDeployStages(&cluster, ticket, ClusterManager::kDefaultLifetimeNs, &gate);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error(), witos::Err::kIo);
  EXPECT_EQ(gate.rollbacks_, 1);
  EXPECT_EQ(gate.failed_stage_, DeployStage::kIssueCert);
  EXPECT_FALSE(machine.broker().IsTicketBound("TKT-LATE"));
  ExpectNoLeaks(&cluster, &machine);
}

TEST(DeployRollbackTest, UnknownClassFailsWithoutRollback) {
  Cluster cluster;
  cluster.AddMachine("userpc", witnet::Ipv4Addr(10, 0, 1, 50));
  class CountGate : public DeployGate {
   public:
    void OnRollback(DeployStage, witos::Err) override { ++rollbacks_; }
    int rollbacks_ = 0;
  } gate;
  Ticket ticket = MakeTicket("TKT-NOCLASS", "userpc", "T-99");
  EXPECT_FALSE(
      RunDeployStages(&cluster, ticket, ClusterManager::kDefaultLifetimeNs, &gate).ok());
  // Image lookup failed before anything was committed: nothing to unwind.
  EXPECT_EQ(gate.rollbacks_, 0);
}

// --- Expire idempotence ------------------------------------------------------

TEST(ExpireTest, SecondExpireReturnsEsrchWithoutDoubleRevoke) {
  Cluster cluster;
  Machine& machine = cluster.AddMachine("userpc", witnet::Ipv4Addr(10, 0, 1, 50));
  ClusterManager manager(&cluster);
  auto deployment = manager.Deploy(MakeTicket("TKT-TWICE", "userpc"));
  ASSERT_TRUE(deployment.ok());

  ASSERT_TRUE(manager.Expire(&*deployment).ok());
  EXPECT_EQ(cluster.ca().revoked_count(), 1u);
  EXPECT_FALSE(machine.broker().IsTicketBound("TKT-TWICE"));

  witos::Status again = manager.Expire(&*deployment);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.error(), witos::Err::kSrch);
  EXPECT_EQ(cluster.ca().revoked_count(), 1u);  // not revoked twice
  ExpectNoLeaks(&cluster, &machine);
}

// A session torn down behind the manager's back (crash, manual Terminate)
// must not wedge Expire: the certificate is still revoked and the ticket
// unbound, the Terminate error is reported once, and the *next* Expire is
// the idempotent ESRCH path.
TEST(ExpireTest, ExpireAfterExternalTerminateStillRevokesAndUnbinds) {
  Cluster cluster;
  Machine& machine = cluster.AddMachine("userpc", witnet::Ipv4Addr(10, 0, 1, 50));
  ClusterManager manager(&cluster);
  auto deployment = manager.Deploy(MakeTicket("TKT-GONE", "userpc"));
  ASSERT_TRUE(deployment.ok());
  ASSERT_TRUE(machine.containit().Terminate(deployment->session, "crashed").ok());

  witos::Status expired = manager.Expire(&*deployment);
  EXPECT_FALSE(expired.ok());  // surfaces the Terminate failure...
  EXPECT_TRUE(cluster.ca().IsRevoked(deployment->certificate.serial));  // ...but revokes
  EXPECT_FALSE(machine.broker().IsTicketBound("TKT-GONE"));
  EXPECT_EQ(manager.Expire(&*deployment).error(), witos::Err::kSrch);
  EXPECT_EQ(cluster.ca().revoked_count(), 1u);
  ExpectNoLeaks(&cluster, &machine);
}

// --- the gated transaction (DeployPipeline::Deploy) -------------------------

// Called directly, outside any serving worker's serve.deploy span, a traced
// pipeline still tags every stage span with the deploying ticket's id, so
// the ticket's timeline holds all four stages.
TEST(DeployPipelineTest, StageSpansNameTheirTicket) {
  Cluster cluster;
  cluster.AddMachine("userpc", witnet::Ipv4Addr(10, 0, 1, 50));
  witobs::MetricsRegistry registry;
  witobs::Tracer tracer;
  DeployPipeline pipeline(&cluster);
  pipeline.EnableMetrics(&registry, &tracer);

  ASSERT_TRUE(pipeline.Deploy(MakeTicket("TKT-SPANS", "userpc")).ok());
  const witobs::TicketTimeline timeline =
      witobs::TicketTimeline::ForTicket(tracer, "TKT-SPANS");
  std::set<std::string> names;
  for (const witobs::SpanRecord& span : timeline.stages()) {
    names.insert(span.name);
  }
  EXPECT_EQ(timeline.stages().size(), kNumDeployStages);
  EXPECT_EQ(names, (std::set<std::string>{"deploy.image_lookup", "deploy.construct",
                                          "deploy.bind", "deploy.issue_cert"}));
}

// Shard workers deploy concurrently, each on its own thread: four deployers
// over two machines, each expiring its deployment under the machine lock
// the way the serving pool's Finish does.
TEST(DeployPipelineTest, ConcurrentDeployersAllLandAndExpireCleanly) {
  Cluster cluster;
  cluster.AddMachine("userpc", witnet::Ipv4Addr(10, 0, 1, 50));
  cluster.AddMachine("devbox", witnet::Ipv4Addr(10, 0, 1, 51));
  DeployPipeline pipeline(&cluster);
  ClusterManager manager(&cluster);

  constexpr size_t kDeployers = 4;
  constexpr size_t kPerDeployer = 8;
  std::vector<std::thread> deployers;
  for (size_t t = 0; t < kDeployers; ++t) {
    deployers.emplace_back([&, t] {
      for (size_t i = 0; i < kPerDeployer; ++i) {
        std::string id = "TKT-" + std::to_string(t) + "-" + std::to_string(i);
        std::string target = (t + i) % 2 == 0 ? "userpc" : "devbox";
        auto result = pipeline.Deploy(MakeTicket(id, target));
        ASSERT_TRUE(result.ok());
        std::unique_lock<witobs::ProfiledMutex> lock(result->machine->mu());
        result->machine->kernel().clock().BindOwner();
        EXPECT_TRUE(manager.Expire(&*result).ok());
        result->machine->kernel().clock().ReleaseOwner();
      }
    });
  }
  for (std::thread& deployer : deployers) {
    deployer.join();
  }

  DeployPipeline::Stats stats = pipeline.GetStats();
  EXPECT_EQ(stats.submitted, kDeployers * kPerDeployer);
  EXPECT_EQ(stats.deployed, kDeployers * kPerDeployer);
  EXPECT_GE(stats.peak_inflight, 1u);
  EXPECT_LE(stats.peak_inflight, kDeployers);
  for (size_t i = 0; i < cluster.size(); ++i) {
    Machine& machine = cluster.machine(i);
    EXPECT_EQ(machine.containit().active_sessions(), 0u);
    EXPECT_EQ(machine.broker().bound_ticket_count(), 0u);
    EXPECT_EQ(machine.kernel().clock().ownership_violations(), 0u);
  }
  EXPECT_EQ(cluster.ca().issued_count(), cluster.ca().revoked_count());
}

// A deploy from any thread is serialized: the transaction takes the machine
// lock and clock itself, so ClusterManager::Deploy on one thread and
// DeployPipeline::Deploy on another can share a machine. Each thread then
// expires under the machine lock, as the serving pool's Finish does.
TEST(DeployPipelineTest, ManagerAndPipelineDeploysOnOneMachineAreSerialized) {
  Cluster cluster;
  Machine& machine = cluster.AddMachine("userpc", witnet::Ipv4Addr(10, 0, 1, 50));
  DeployPipeline pipeline(&cluster);
  ClusterManager manager(&cluster);
  auto expire_locked = [&](Deployment* deployment) {
    std::unique_lock<witobs::ProfiledMutex> lock(deployment->machine->mu());
    deployment->machine->kernel().clock().BindOwner();
    witos::Status status = manager.Expire(deployment);
    deployment->machine->kernel().clock().ReleaseOwner();
    return status;
  };

  constexpr size_t kRounds = 24;
  std::thread direct([&] {
    for (size_t i = 0; i < kRounds; ++i) {
      auto result = manager.Deploy(MakeTicket("TKT-MGR-" + std::to_string(i), "userpc"));
      ASSERT_TRUE(result.ok());
      EXPECT_TRUE(expire_locked(&*result).ok());
    }
  });
  std::thread pooled([&] {
    for (size_t i = 0; i < kRounds; ++i) {
      auto result = pipeline.Deploy(MakeTicket("TKT-PIPE-" + std::to_string(i), "userpc"));
      ASSERT_TRUE(result.ok());
      EXPECT_TRUE(expire_locked(&*result).ok());
    }
  });
  direct.join();
  pooled.join();

  EXPECT_EQ(machine.kernel().clock().ownership_violations(), 0u);
  EXPECT_EQ(cluster.ca().issued_count(), 2 * kRounds);
  ExpectNoLeaks(&cluster, &machine);
}

// --- fault-injection sweep (no stage/errno combination may leak) -------------

TEST(DeployFaultSweepTest, EveryStageTimesEveryErrnoRollsBackCleanly) {
  Cluster cluster;
  Machine& machine = cluster.AddMachine("userpc", witnet::Ipv4Addr(10, 0, 1, 50));
  DeployPipeline pipeline(&cluster);

  // kIntr is what an interrupted gate returns (the crash harness fails every
  // gate with it once the world is dead); at the bind stage it unwinds a
  // fully built session like any other error.
  const witos::Err kErrnos[] = {witos::Err::kIo, witos::Err::kNoSpc, witos::Err::kNoMem,
                                witos::Err::kIntr};
  DeployStage fail_stage = DeployStage::kImageLookup;
  std::shared_ptr<witos::FaultPlan> plan;
  pipeline.set_stage_hook([&](DeployStage stage, const Ticket&, Machine*) -> witos::Status {
    if (stage != fail_stage || plan == nullptr) {
      return witos::Status::Ok();
    }
    witos::Err injected = plan->Decide(witos::FaultOpKind::kAny);
    if (injected != witos::Err::kOk) {
      return injected;
    }
    return witos::Status::Ok();
  });

  size_t events_before = witbroker::BrokerEventsOf(machine.kernel().audit().Snapshot()).size();
  int combo = 0;
  for (size_t stage = 0; stage < kNumDeployStages; ++stage) {
    for (witos::Err err : kErrnos) {
      fail_stage = static_cast<DeployStage>(stage);
      plan = std::make_shared<witos::FaultPlan>();
      plan->FailNthCall(1, err);
      std::string id = "TKT-FAULT-" + std::to_string(combo++);
      auto result = pipeline.Deploy(MakeTicket(id, "userpc"));
      ASSERT_FALSE(result.ok()) << DeployStageName(fail_stage);
      EXPECT_EQ(result.error(), err) << DeployStageName(fail_stage);
      EXPECT_EQ(plan->injected(), 1u);
      // The invariant under test: whatever stage died with whatever errno,
      // nothing the transaction touched survives it.
      EXPECT_FALSE(machine.broker().IsTicketBound(id)) << DeployStageName(fail_stage);
      ExpectNoLeaks(&cluster, &machine);
    }
  }
  // No broker escalation events either: the sessions never got to run.
  EXPECT_EQ(witbroker::BrokerEventsOf(machine.kernel().audit().Snapshot()).size(), events_before);

  // The machine is unharmed: a clean deploy still succeeds afterwards.
  plan = nullptr;
  auto result = pipeline.Deploy(MakeTicket("TKT-AFTER", "userpc"));
  ASSERT_TRUE(result.ok());
  ClusterManager manager(&cluster);
  ASSERT_TRUE(manager.Expire(&*result).ok());
  ExpectNoLeaks(&cluster, &machine);

  DeployPipeline::Stats stats = pipeline.GetStats();
  EXPECT_EQ(stats.failed, static_cast<uint64_t>(combo));
  EXPECT_EQ(stats.deployed, 1u);
  // A failure before construct has committed nothing to unwind; bind and
  // issue_cert failures each roll back: 2 stages x 4 errnos.
  EXPECT_EQ(stats.rollbacks, 8u);
}

// Construction failure injected through the VFS layer itself: a faulty
// filesystem mounted where the session's ConFS view goes makes the recipe's
// first filesystem mutation fail, and the rollback must still run.
TEST(DeployFaultSweepTest, VfsFaultDuringConstructRollsBack) {
  Cluster cluster;
  Machine& machine = cluster.AddMachine("userpc", witnet::Ipv4Addr(10, 0, 1, 50));
  witos::Kernel& kernel = machine.kernel();

  auto plan = std::make_shared<witos::FaultPlan>();
  plan->FailOp(witos::FaultOpKind::kGetAttr, witos::Err::kIo);
  auto faulty =
      std::make_shared<witos::ErrorInjectingVfs>(std::make_shared<witos::MemFs>(), plan);
  // The first session's view mounts at /ConFS-1; squat on that path.
  ASSERT_TRUE(kernel.MkDir(1, "/ConFS-1").ok());
  ASSERT_TRUE(kernel.Mount(1, faulty, "/ConFS-1", "faultfs").ok());

  ClusterManager manager(&cluster);
  auto result = manager.Deploy(MakeTicket("TKT-VFS", "userpc"));
  ASSERT_FALSE(result.ok());
  EXPECT_GT(plan->injected(), 0u);
  EXPECT_FALSE(machine.broker().IsTicketBound("TKT-VFS"));
  ExpectNoLeaks(&cluster, &machine);
}

}  // namespace
}  // namespace watchit
