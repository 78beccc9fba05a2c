// The deploy transaction: staged perforated-container deployment with
// transactional rollback (DESIGN.md §12).
//
// The Figure 3 recipe runs as four explicit stages —
//
//   image lookup → container construction → certificate issue → broker bind
//
// — each executed under only *that machine's* lock, with a hook point
// between stages. When any stage fails the completed stages are rolled back
// in reverse order: revoke the certificate, terminate the half-built
// session (bind is last, so nothing is ever unbound). A deploy therefore
// either yields a fully wired Deployment or leaves no trace — no bound
// ticket, no live session, no valid certificate.
//
// DeployPipeline runs that transaction on the calling thread — a witserve
// shard worker — and keeps the outcome stats and metrics.

#ifndef SRC_CORE_DEPLOY_H_
#define SRC_CORE_DEPLOY_H_

#include <array>
#include <cstdint>
#include <functional>
#include <string>

#include "src/core/cluster.h"
#include "src/core/ticket.h"
#include "src/obs/metrics.h"
#include "src/obs/profile.h"
#include "src/obs/trace.h"

namespace watchit {

// Values name metric series and ledger lines, not the run order.
enum class DeployStage {
  kImageLookup = 0,  // resolve the ticket class to a container image spec
  kConstruct = 1,    // ContainIt::Deploy — the Figure 5 recipe
  kBind = 2,         // bind the session's cgroup, on the certificate's terms
  kIssueCert = 3,    // CA issues the admin's login certificate
};
inline constexpr size_t kNumDeployStages = 4;

std::string DeployStageName(DeployStage stage);

// The transaction's one observer. Its hooks add instrumentation, delay or
// failure; the locking is the transaction's own.
class DeployGate {
 public:
  virtual ~DeployGate() = default;

  // Runs before each stage WITHOUT the machine lock held — where fault
  // injection / image-registry latency models hook in. A non-ok status
  // fails the deploy at this stage.
  virtual witos::Status BeforeStage(DeployStage /*stage*/, Machine* /*machine*/) {
    return witos::Status::Ok();
  }

  // After each stage body, with the machine lock released; `sim_ns` is the
  // simulated time the body took.
  virtual void OnStageDone(DeployStage /*stage*/, uint64_t /*sim_ns*/, witos::Err /*err*/) {}
  // After the rollback, with the machine lock released.
  virtual void OnRollback(DeployStage /*failed_stage*/, witos::Err /*err*/) {}
};

// Runs the staged deploy transaction for `ticket` against its target
// machine. Each stage body, and the rollback, holds the machine's lock and
// owns its SimClock, so any thread may deploy as long as it does not hold
// that lock already. On any stage failure the completed stages are rolled
// back in reverse order before the error is returned. `gate` may be null.
// This is the single deploy implementation: ClusterManager::Deploy and
// DeployPipeline::Deploy both land here.
witos::Result<Deployment> RunDeployStages(Cluster* cluster, const Ticket& ticket,
                                          uint64_t lifetime_ns, DeployGate* gate);

// The deploy transaction the serving pool runs, with the stage hook, the
// stage histograms and spans, and the outcome stats.
// Thread-safe: any number of shard workers may call Deploy concurrently.
class DeployPipeline {
 public:
  struct Stats {
    uint64_t submitted = 0;
    uint64_t deployed = 0;
    uint64_t failed = 0;     // a stage returned an error
    uint64_t rollbacks = 0;  // transactions that unwound at least one stage
    uint64_t peak_inflight = 0;  // most deploys executing at once
  };

  // Runs in BeforeStage (no machine lock held): fault injection and
  // external-latency modelling. A non-ok status fails the deploy at that
  // stage. Set before traffic starts.
  using StageHook = std::function<witos::Status(DeployStage, const Ticket&, Machine*)>;

  explicit DeployPipeline(Cluster* cluster) : cluster_(cluster) {}
  DeployPipeline(const DeployPipeline&) = delete;
  DeployPipeline& operator=(const DeployPipeline&) = delete;

  void set_stage_hook(StageHook hook) { stage_hook_ = std::move(hook); }

  // Runs the gated transaction for `ticket` on the calling thread. The
  // certificate lives ClusterManager::kDefaultLifetimeNs.
  witos::Result<Deployment> Deploy(const Ticket& ticket);

  // watchit_deploy_stage_latency_ns{stage}, watchit_deploy_inflight,
  // watchit_deploy_rollbacks_total{stage}, watchit_deploy_total{outcome},
  // plus the stats lock's watchit_lock_* series. With a tracer, each stage
  // emits a "deploy.<stage>" span tagged with the deploying ticket's id.
  void EnableMetrics(witobs::MetricsRegistry* registry, witobs::Tracer* tracer = nullptr);

  Stats GetStats() const;

 private:
  class WorkerGate;  // defined in deploy.cc

  // Folds one finished transaction into stats_ and the outcome and
  // rollback counters.
  void RecordOutcome(const witos::Result<Deployment>& result, const WorkerGate& gate);

  Cluster* cluster_;
  StageHook stage_hook_;

  // Profiled "deploy.stats" lock (DESIGN.md §13): it is taken twice per
  // deploy on the request path.
  mutable witobs::ProfiledMutex mu_{"deploy.stats"};  // guards inflight_, stats_
  size_t inflight_ = 0;  // deploys executing right now
  Stats stats_;

  // Observability handles (null when metrics are disabled).
  witobs::Tracer* tracer_ = nullptr;
  std::array<witobs::Histogram*, kNumDeployStages> stage_latency_{};
  std::array<witobs::Counter*, kNumDeployStages> rollbacks_total_{};
  witobs::Gauge* inflight_gauge_ = nullptr;
  witobs::Counter* outcome_ok_ = nullptr;
  witobs::Counter* outcome_error_ = nullptr;
};

}  // namespace watchit

#endif  // SRC_CORE_DEPLOY_H_
