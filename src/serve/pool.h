// witserve: the concurrent ticket-serving engine (worker-pool half).
//
// ServerPool drives many TicketWorkflow pipelines in parallel over one
// Cluster. The cluster's machines are partitioned across N shards (one per
// worker) and every job is routed to the shard that owns its target
// machine. A machine — its simulated kernel, broker, ITFS instances and
// clock — is only ever touched while holding that machine's own lock
// (Machine::mu(), taken in address order for multi-machine jobs), with
// SimClock ownership declared per critical section via
// BindOwner/ReleaseOwner, so a violation of the discipline shows up as a
// nonzero clock_ownership_violations in Stats rather than as a silently
// corrupted experiment.
//
// The worker that pops a job runs the whole ticket: Prepare (classify,
// review, dispatch — no machine state), the gated deploy transaction of a
// DeployPipeline (src/core/deploy.h; the T-9 secondary deploys only once
// the primary has landed), then Finish (replay + expire) under the machine
// locks.
//
// The owning worker processes its shard's queue FIFO; a worker whose own
// queue is empty steals from the back of another shard's queue, so
// imbalance — a worker stuck in a slow deploy included — is absorbed without
// breaking the locking discipline. A worker that finds every queue empty
// parks with no timeout. Submit wakes the target shard's owner if it is
// parked, else one other parked worker (which steals), else nobody: a busy
// worker rescans before it parks. An idle pool therefore takes no lock and
// burns no CPU (DESIGN.md §10). What stays genuinely shared is
// organizational by nature and internally synchronized: the Dispatcher
// roster, the CertificateAuthority, the ItFramework (read-only after
// training), the network fabric's delivery counter, and the witobs registry.

#ifndef SRC_SERVE_POOL_H_
#define SRC_SERVE_POOL_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/deploy.h"
#include "src/core/workflow.h"
#include "src/serve/queue.h"

namespace witserve {

class ServerPool {
 public:
  struct Options {
    size_t workers = 4;
    // Per-shard queue bounds (admission control is per shard).
    TicketQueue::Options queue;
  };

  struct Stats {
    uint64_t submitted = 0;
    uint64_t served = 0;
    uint64_t failed = 0;
    uint64_t rejected = 0;  // admission-control EBUSY at Submit()
    uint64_t stolen = 0;    // jobs processed by a non-owner worker
    size_t peak_queue_depth = 0;
    // Busy time per shard in thread-CPU ns — prepare, deploy and finish;
    // lock waits and queue idling excluded. max_shard_busy_cpu_ns is the
    // serving critical path: on any machine with enough cores, wall time
    // converges to it.
    std::vector<uint64_t> shard_busy_cpu_ns;
    uint64_t total_busy_cpu_ns = 0;
    uint64_t max_shard_busy_cpu_ns = 0;
    // Single-owner clock discipline check, summed over all machines; any
    // nonzero value means the locking discipline was violated.
    uint64_t clock_ownership_violations = 0;
    uint64_t clock_resume_underflows = 0;
    // Page-cache totals summed over every machine in the pool.
    uint64_t pagecache_hits = 0;
    uint64_t pagecache_misses = 0;
    uint64_t pagecache_evictions = 0;
    watchit::DeployPipeline::Stats deploy;
  };

  // All dependencies must outlive the pool. Machines present in `cluster`
  // at construction are partitioned round-robin into options.workers shards.
  ServerPool(watchit::Cluster* cluster, watchit::ItFramework* framework,
             watchit::Dispatcher* dispatcher, Options options);
  ~ServerPool();
  ServerPool(const ServerPool&) = delete;
  ServerPool& operator=(const ServerPool&) = delete;

  // Wires per-worker workflows, the deploy pipeline and pool-level series
  // into the registry: watchit_serve_e2e_latency_ns,
  // watchit_serve_stage_latency_ns{stage} (queue_wait / prepare / deploy /
  // finish — the per-stage breakdown of every ticket's end-to-end
  // latency), watchit_serve_tickets_total{outcome},
  // watchit_serve_steals_total, watchit_serve_queue_depth{shard}, the
  // watchit_deploy_* family, per-shard
  // watchit_pagecache_{hits,misses,evictions}{shard} gauges, and the
  // watchit_lock_* contention series for the shard queues, the park lock,
  // dispatcher, CA and deploy stats (DESIGN.md §13). With a tracer, every
  // ticket yields one timeline under its ticket id, recorded by the worker
  // that served it.
  void EnableMetrics(witobs::MetricsRegistry* registry, witobs::Tracer* tracer = nullptr);

  void Start();
  // Routes the ticket to the shard owning `target_machine` and applies that
  // shard's admission control. EHOSTUNREACH for an unknown machine; EXDEV
  // when `user_machine` lives in a different shard (a cross-shard T-9 job
  // would break the shard routing — pick PeerInShard()); EBUSY past the
  // high watermark.
  witos::Status Submit(const witload::GeneratedTicket& ticket, const std::string& target_machine,
                       const std::string& user_machine = "");
  // Blocks until every submitted job has finished. Requires Start().
  void Drain();
  // Closes the queues, wakes every parked worker, lets the workers drain
  // the queued jobs and joins them.
  void Stop();

  // Shard routing (stable after construction).
  size_t shards() const { return shards_.size(); }
  // Machine names in cluster order (the order they were partitioned).
  std::vector<std::string> MachineNames() const;
  size_t ShardOf(const std::string& machine) const;  // shards() when unknown
  // A machine sharing `machine`'s shard (for T-9 dual deployments); the
  // machine itself when its shard has no other member, "" when unknown.
  std::string PeerInShard(const std::string& machine) const;

  // Invoked after each successfully served ticket, once the processing
  // worker has released the machine locks — it runs on worker threads, so
  // the callee must be thread-safe. Set before Start().
  using ResultCallback = std::function<void(const watchit::ResolvedTicket&)>;
  void set_result_callback(ResultCallback callback) { callback_ = std::move(callback); }

  // The deploy transaction — exposed so tests and benches can install a
  // stage hook or read deploy stats directly. Configure before Start().
  watchit::DeployPipeline& deploy_pipeline() { return *pipeline_; }

  Stats stats() const;
  const witobs::Histogram* latency_histogram() const { return latency_hist_; }

 private:
  struct Shard {
    std::unique_ptr<TicketQueue> queue;
    std::vector<watchit::Machine*> machines;
    std::atomic<uint64_t> busy_cpu_ns{0};
    witobs::Gauge* depth_gauge = nullptr;
    witobs::Gauge* cache_hits_gauge = nullptr;
    witobs::Gauge* cache_misses_gauge = nullptr;
    witobs::Gauge* cache_evictions_gauge = nullptr;
    // The shard's worker is waiting on `wake`. Guarded by park_mu_; a waker
    // clears it, so a wake-up that finds it still set was spurious.
    bool parked = false;
    std::condition_variable_any wake;
  };

  void WorkerLoop(size_t worker);
  // Parks `worker` unless a job was published since it read `seen` from
  // submitted_ before its last scan. False once the pool is stopping.
  bool Park(size_t worker, uint64_t seen);
  // Wakes the parked owner of `shard`, else one other parked worker.
  void WakeFor(size_t shard);
  // Runs one job end to end: Prepare, the gated deploy(s), then Finish.
  void ProcessJob(size_t worker, size_t shard, const ServeJob& job);
  void FinishPrepared(size_t worker, size_t shard, const ServeJob& job,
                      watchit::PreparedTicket prepared,
                      std::vector<watchit::Deployment> deployments);
  void FailJob(const Shard& shard, const ServeJob& job);
  void UpdateCacheGauges(const Shard& shard);

  watchit::Cluster* cluster_;
  watchit::Dispatcher* dispatcher_;
  Options options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::map<std::string, size_t> shard_of_;
  std::vector<std::unique_ptr<watchit::TicketWorkflow>> workflows_;  // one per worker
  std::unique_ptr<watchit::DeployPipeline> pipeline_;
  std::vector<std::thread> threads_;
  bool started_ = false;

  ResultCallback callback_;
  // Also the park protocol's event count: Submit bumps it after the push
  // and before it takes park_mu_.
  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> finished_{0};
  std::atomic<uint64_t> served_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> stolen_{0};

  // Guards every Shard::parked and stopping_. Never held together with a
  // queue lock.
  witobs::ProfiledMutex park_mu_{"serve.park"};
  bool stopping_ = false;

  // Observability wiring (all null when metrics are disabled).
  witobs::MetricsRegistry* metrics_ = nullptr;
  witobs::Tracer* tracer_ = nullptr;
  witobs::Histogram* latency_hist_ = nullptr;
  witobs::Counter* served_counter_ = nullptr;
  witobs::Counter* failed_counter_ = nullptr;
  witobs::Counter* rejected_counter_ = nullptr;
  witobs::Counter* steals_counter_ = nullptr;
  // Per-stage latency histograms; together the stages tile submit→finish,
  // so their p99s attribute the e2e p99 (bench_serve_throughput --profile).
  witobs::Histogram* stage_queue_wait_ = nullptr;
  witobs::Histogram* stage_prepare_ = nullptr;
  witobs::Histogram* stage_deploy_ = nullptr;
  witobs::Histogram* stage_finish_ = nullptr;
};

}  // namespace witserve

#endif  // SRC_SERVE_POOL_H_
