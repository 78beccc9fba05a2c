#include "src/serve/pool.h"

#include <time.h>

#include <algorithm>
#include <chrono>

#include "src/core/cluster.h"
#include "src/os/kernel.h"

namespace witserve {

namespace {

// CPU time consumed by the calling thread. Unlike wall time this does not
// advance while the thread is descheduled, so per-shard busy sums stay
// meaningful even when the host has fewer cores than workers.
uint64_t ThreadCpuNs() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull + static_cast<uint64_t>(ts.tv_nsec);
}

// Synthesized stage span: an interval measured by hand (the queue wait)
// rather than by an RAII scope, recorded under the ticket's correlation id
// so the ticket's timeline tiles submit→finish.
void RecordStageSpan(witobs::Tracer* tracer, const char* name, const std::string& ticket_id,
                     uint64_t start_ns, uint64_t end_ns) {
  if (tracer == nullptr || end_ns < start_ns || start_ns == 0) {
    return;
  }
  witobs::SpanRecord record;
  record.name = name;
  record.correlation_id = ticket_id;
  record.start_ns = start_ns;
  record.duration_ns = end_ns - start_ns;
  tracer->RecordSpan(std::move(record));
}

}  // namespace

ServerPool::ServerPool(watchit::Cluster* cluster, watchit::ItFramework* framework,
                       watchit::Dispatcher* dispatcher, Options options)
    : cluster_(cluster), dispatcher_(dispatcher), options_(options) {
  options_.workers = std::max<size_t>(options_.workers, 1);
  for (size_t i = 0; i < options_.workers; ++i) {
    auto shard = std::make_unique<Shard>();
    TicketQueue::Options queue_options = options_.queue;
    if (queue_options.lock_name.empty()) {
      queue_options.lock_name = "serve.queue." + std::to_string(i);
    }
    shard->queue = std::make_unique<TicketQueue>(queue_options);
    shards_.push_back(std::move(shard));
    workflows_.push_back(
        std::make_unique<watchit::TicketWorkflow>(cluster, framework, dispatcher));
  }
  // Round-robin machine partition: machine i belongs to shard i % workers.
  for (size_t i = 0; i < cluster->size(); ++i) {
    watchit::Machine* machine = &cluster->machine(i);
    size_t shard = i % options_.workers;
    shards_[shard]->machines.push_back(machine);
    shard_of_.emplace(machine->name(), shard);
  }
  pipeline_ = std::make_unique<watchit::DeployPipeline>(cluster);
}

ServerPool::~ServerPool() { Stop(); }

void ServerPool::EnableMetrics(witobs::MetricsRegistry* registry, witobs::Tracer* tracer) {
  metrics_ = registry;
  tracer_ = tracer;
  for (auto& workflow : workflows_) {
    workflow->EnableMetrics(registry);
  }
  if (registry == nullptr) {
    return;
  }
  pipeline_->EnableMetrics(registry, tracer);
  dispatcher_->EnableLockMetrics(registry);
  cluster_->ca().EnableLockMetrics(registry);
  for (auto& shard : shards_) {
    shard->queue->EnableLockMetrics(registry);
  }
  park_mu_.EnableMetrics(registry);
  registry->SetHelp("watchit_serve_e2e_latency_ns",
                    "Wall-clock submit-to-finish latency per served ticket");
  registry->SetHelp("watchit_serve_stage_latency_ns",
                    "Wall-clock latency of each serving stage; the stages tile a ticket's "
                    "submit-to-finish interval");
  registry->SetHelp("watchit_serve_tickets_total", "Serving outcomes at the pool level");
  registry->SetHelp("watchit_serve_steals_total",
                    "Jobs executed by a worker that does not own the shard");
  registry->SetHelp("watchit_serve_queue_depth", "Jobs queued per shard right now");
  registry->SetHelp("watchit_pagecache_hits", "Page-cache hits summed over a shard's machines");
  registry->SetHelp("watchit_pagecache_misses",
                    "Page-cache misses summed over a shard's machines");
  registry->SetHelp("watchit_pagecache_evictions",
                    "Page-cache capacity evictions summed over a shard's machines");
  latency_hist_ = registry->GetHistogram("watchit_serve_e2e_latency_ns");
  served_counter_ = registry->GetCounter("watchit_serve_tickets_total", {{"outcome", "ok"}});
  failed_counter_ = registry->GetCounter("watchit_serve_tickets_total", {{"outcome", "error"}});
  rejected_counter_ =
      registry->GetCounter("watchit_serve_tickets_total", {{"outcome", "rejected"}});
  steals_counter_ = registry->GetCounter("watchit_serve_steals_total");
  stage_queue_wait_ =
      registry->GetHistogram("watchit_serve_stage_latency_ns", {{"stage", "queue_wait"}});
  stage_prepare_ =
      registry->GetHistogram("watchit_serve_stage_latency_ns", {{"stage", "prepare"}});
  stage_deploy_ =
      registry->GetHistogram("watchit_serve_stage_latency_ns", {{"stage", "deploy"}});
  stage_finish_ =
      registry->GetHistogram("watchit_serve_stage_latency_ns", {{"stage", "finish"}});
  for (size_t i = 0; i < shards_.size(); ++i) {
    witobs::Labels labels = {{"shard", std::to_string(i)}};
    shards_[i]->depth_gauge = registry->GetGauge("watchit_serve_queue_depth", labels);
    shards_[i]->cache_hits_gauge = registry->GetGauge("watchit_pagecache_hits", labels);
    shards_[i]->cache_misses_gauge = registry->GetGauge("watchit_pagecache_misses", labels);
    shards_[i]->cache_evictions_gauge =
        registry->GetGauge("watchit_pagecache_evictions", labels);
  }
}

void ServerPool::Start() {
  if (started_) {
    return;
  }
  started_ = true;
  threads_.reserve(shards_.size());
  for (size_t w = 0; w < shards_.size(); ++w) {
    threads_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

witos::Status ServerPool::Submit(const witload::GeneratedTicket& ticket,
                                 const std::string& target_machine,
                                 const std::string& user_machine) {
  auto it = shard_of_.find(target_machine);
  if (it == shard_of_.end()) {
    return witos::Err::kHostUnreach;
  }
  if (!user_machine.empty() && user_machine != target_machine) {
    auto user_it = shard_of_.find(user_machine);
    if (user_it == shard_of_.end()) {
      return witos::Err::kHostUnreach;
    }
    if (user_it->second != it->second) {
      return witos::Err::kXdev;  // cross-shard job would break shard routing
    }
  }
  Shard& shard = *shards_[it->second];
  ServeJob job;
  job.ticket = ticket;
  job.target_machine = target_machine;
  job.user_machine = user_machine;
  job.submit_ns = witobs::MonotonicNowNs();
  witos::Status pushed = shard.queue->TryPush(std::move(job));
  if (!pushed.ok()) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    if (rejected_counter_ != nullptr) {
      rejected_counter_->Increment();
    }
    return pushed;
  }
  // Publish the job, then wake: a worker that scanned before the push sees
  // the count move under park_mu_ and rescans instead of parking.
  submitted_.fetch_add(1, std::memory_order_release);
  WakeFor(it->second);
  if (shard.depth_gauge != nullptr) {
    shard.depth_gauge->Set(static_cast<int64_t>(shard.queue->depth()));
  }
  return witos::Status::Ok();
}

void ServerPool::WakeFor(size_t shard) {
  Shard* parked = nullptr;
  {
    std::lock_guard<witobs::ProfiledMutex> lock(park_mu_);
    for (size_t i = 0; i < shards_.size() && parked == nullptr; ++i) {
      Shard& candidate = *shards_[(shard + i) % shards_.size()];
      if (candidate.parked) {
        candidate.parked = false;
        parked = &candidate;
      }
    }
  }
  // Notified after the unlock, so the woken worker does not block on it.
  if (parked != nullptr) {
    parked->wake.notify_one();
  }
}

void ServerPool::WorkerLoop(size_t worker) {
  const size_t n = shards_.size();
  ServeJob job;
  bool stopping = false;
  for (;;) {
    // Acquire pairs with Submit's release: a job counted here is visible to
    // the scan below.
    const uint64_t seen = submitted_.load(std::memory_order_acquire);
    // The own queue first (FIFO), then the back of every other (LIFO).
    size_t found = n;
    for (size_t i = 0; i < n && found == n; ++i) {
      const size_t shard = (worker + i) % n;
      TicketQueue& queue = *shards_[shard]->queue;
      if (i == 0 ? queue.TryPop(&job) : queue.TrySteal(&job)) {
        found = shard;
      }
    }
    if (found != n) {
      ProcessJob(worker, found, job);
      continue;
    }
    if (stopping) {
      return;  // this scan began after Stop() closed every queue
    }
    stopping = !Park(worker, seen);
  }
}

bool ServerPool::Park(size_t worker, uint64_t seen) {
  Shard& own = *shards_[worker];
  std::unique_lock<witobs::ProfiledMutex> lock(park_mu_);
  if (!stopping_ && submitted_.load(std::memory_order_acquire) == seen) {
    own.parked = true;
    own.wake.wait(lock, [&own, this] { return !own.parked || stopping_; });
    own.parked = false;
  }
  return !stopping_;
}

void ServerPool::FailJob(const Shard& shard, const ServeJob& job) {
  failed_.fetch_add(1, std::memory_order_relaxed);
  if (failed_counter_ != nullptr) {
    failed_counter_->Increment();
  }
  if (latency_hist_ != nullptr) {
    latency_hist_->Observe(witobs::MonotonicNowNs() - job.submit_ns);
  }
  if (shard.depth_gauge != nullptr) {
    shard.depth_gauge->Set(static_cast<int64_t>(shard.queue->depth()));
  }
  finished_.fetch_add(1, std::memory_order_release);
}

void ServerPool::ProcessJob(size_t worker, size_t shard_index, const ServeJob& job) {
  if (worker != shard_index) {
    stolen_.fetch_add(1, std::memory_order_relaxed);
    if (steals_counter_ != nullptr) {
      steals_counter_->Increment();
    }
  }
  Shard& shard = *shards_[shard_index];

  // Stage 1, queue_wait: admission to the time a worker popped the job.
  // Recorded here (not in the queue) so steals attribute identically.
  uint64_t popped_ns = witobs::MonotonicNowNs();
  if (stage_queue_wait_ != nullptr && popped_ns >= job.submit_ns) {
    stage_queue_wait_->Observe(popped_ns - job.submit_ns);
  }
  RecordStageSpan(tracer_, "serve.queue_wait", job.ticket.id, job.submit_ns, popped_ns);

  // Stage 2, prepare — classify + review + dispatch: no machine state, so
  // no machine locks.
  uint64_t cpu_start = ThreadCpuNs();
  witos::Result<watchit::PreparedTicket> prepared = witos::Err::kInval;
  {
    witobs::Span span(tracer_, "serve.prepare", job.ticket.id);
    prepared = workflows_[worker]->Prepare(job.ticket, job.target_machine, job.user_machine);
  }
  uint64_t prepare_end_ns = witobs::MonotonicNowNs();
  if (stage_prepare_ != nullptr) {
    stage_prepare_->Observe(prepare_end_ns - popped_ns);
  }
  shard.busy_cpu_ns.fetch_add(ThreadCpuNs() - cpu_start, std::memory_order_relaxed);
  if (!prepared.ok()) {
    FailJob(shard, job);
    return;
  }

  // Stage 3, deploy: the gated transaction takes each machine's lock per
  // stage. The T-9 secondary deploys only once the primary has landed, so
  // a failed ticket never leaves a deployment behind.
  std::vector<watchit::Deployment> deployments;
  cpu_start = ThreadCpuNs();
  {
    witobs::Span span(tracer_, "serve.deploy", job.ticket.id);
    witos::Result<watchit::Deployment> primary = pipeline_->Deploy(prepared->resolved.ticket);
    if (primary.ok()) {
      deployments.push_back(*primary);
      if (!prepared->user_machine.empty()) {
        watchit::Ticket user_ticket = prepared->resolved.ticket;
        user_ticket.target_machine = prepared->user_machine;
        witos::Result<watchit::Deployment> secondary = pipeline_->Deploy(user_ticket);
        if (secondary.ok()) {
          deployments.push_back(*secondary);
        }
      }
    }
  }
  if (stage_deploy_ != nullptr) {
    stage_deploy_->Observe(witobs::MonotonicNowNs() - prepare_end_ns);
  }
  shard.busy_cpu_ns.fetch_add(ThreadCpuNs() - cpu_start, std::memory_order_relaxed);
  if (deployments.empty()) {
    // The ticket cannot be worked: the dispatcher assignment from Prepare()
    // closes here, or the specialist leaks an open ticket.
    (void)dispatcher_->Complete(prepared->resolved.ticket.admin);
    FailJob(shard, job);
    return;
  }
  FinishPrepared(worker, shard_index, job, std::move(*prepared), std::move(deployments));
}

void ServerPool::FinishPrepared(size_t worker, size_t shard_index, const ServeJob& job,
                                watchit::PreparedTicket prepared,
                                std::vector<watchit::Deployment> deployments) {
  Shard& shard = *shards_[shard_index];

  // Lock every machine the ticket deployed on, in address order.
  std::vector<watchit::Machine*> machines;
  machines.reserve(deployments.size());
  for (const watchit::Deployment& deployment : deployments) {
    machines.push_back(deployment.machine);
  }
  std::sort(machines.begin(), machines.end());
  machines.erase(std::unique(machines.begin(), machines.end()), machines.end());

  // Stage 4, finish: replay + expire under the machine locks.
  uint64_t finish_start_ns = witobs::MonotonicNowNs();
  witos::Result<watchit::ResolvedTicket> result = witos::Err::kInval;
  {
    witobs::Span span(tracer_, "serve.finish", job.ticket.id);
    std::vector<std::unique_lock<witobs::ProfiledMutex>> locks;
    locks.reserve(machines.size());
    for (watchit::Machine* machine : machines) {
      locks.emplace_back(machine->mu());
      machine->kernel().clock().BindOwner();
    }
    uint64_t cpu_start = ThreadCpuNs();
    result = workflows_[worker]->Finish(std::move(prepared), std::move(deployments));
    shard.busy_cpu_ns.fetch_add(ThreadCpuNs() - cpu_start, std::memory_order_relaxed);
    for (watchit::Machine* machine : machines) {
      machine->kernel().clock().ReleaseOwner();
    }
  }
  if (stage_finish_ != nullptr) {
    stage_finish_->Observe(witobs::MonotonicNowNs() - finish_start_ns);
  }

  if (result.ok()) {
    served_.fetch_add(1, std::memory_order_relaxed);
    if (served_counter_ != nullptr) {
      served_counter_->Increment();
    }
    if (callback_) {
      callback_(*result);
    }
  } else {
    failed_.fetch_add(1, std::memory_order_relaxed);
    if (failed_counter_ != nullptr) {
      failed_counter_->Increment();
    }
  }
  if (latency_hist_ != nullptr) {
    latency_hist_->Observe(witobs::MonotonicNowNs() - job.submit_ns);
  }
  if (shard.depth_gauge != nullptr) {
    shard.depth_gauge->Set(static_cast<int64_t>(shard.queue->depth()));
  }
  UpdateCacheGauges(shard);
  finished_.fetch_add(1, std::memory_order_release);
}

void ServerPool::UpdateCacheGauges(const Shard& shard) {
  if (shard.cache_hits_gauge == nullptr) {
    return;
  }
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  // The counters are atomic on the cache, so sampling needs no machine lock.
  for (watchit::Machine* machine : shard.machines) {
    const witos::PageCache& cache = machine->kernel().page_cache();
    hits += cache.hits();
    misses += cache.misses();
    evictions += cache.evictions();
  }
  shard.cache_hits_gauge->Set(static_cast<int64_t>(hits));
  shard.cache_misses_gauge->Set(static_cast<int64_t>(misses));
  shard.cache_evictions_gauge->Set(static_cast<int64_t>(evictions));
}

void ServerPool::Drain() {
  while (finished_.load(std::memory_order_acquire) <
         submitted_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

void ServerPool::Stop() {
  if (!started_) {
    return;
  }
  for (auto& shard : shards_) {
    shard->queue->Close();
  }
  {
    std::lock_guard<witobs::ProfiledMutex> lock(park_mu_);
    stopping_ = true;
  }
  for (auto& shard : shards_) {
    shard->wake.notify_one();
  }
  for (auto& thread : threads_) {
    thread.join();
  }
  threads_.clear();
  started_ = false;
}

std::vector<std::string> ServerPool::MachineNames() const {
  std::vector<std::string> names;
  names.reserve(cluster_->size());
  for (size_t i = 0; i < cluster_->size(); ++i) {
    names.push_back(cluster_->machine(i).name());
  }
  return names;
}

size_t ServerPool::ShardOf(const std::string& machine) const {
  auto it = shard_of_.find(machine);
  return it == shard_of_.end() ? shards_.size() : it->second;
}

std::string ServerPool::PeerInShard(const std::string& machine) const {
  auto it = shard_of_.find(machine);
  if (it == shard_of_.end()) {
    return "";
  }
  for (watchit::Machine* candidate : shards_[it->second]->machines) {
    if (candidate->name() != machine) {
      return candidate->name();
    }
  }
  return machine;
}

ServerPool::Stats ServerPool::stats() const {
  Stats stats;
  stats.submitted = submitted_.load(std::memory_order_relaxed);
  stats.served = served_.load(std::memory_order_relaxed);
  stats.failed = failed_.load(std::memory_order_relaxed);
  stats.rejected = rejected_.load(std::memory_order_relaxed);
  stats.stolen = stolen_.load(std::memory_order_relaxed);
  stats.deploy = pipeline_->GetStats();
  for (const auto& shard : shards_) {
    uint64_t busy = shard->busy_cpu_ns.load(std::memory_order_relaxed);
    stats.shard_busy_cpu_ns.push_back(busy);
    stats.total_busy_cpu_ns += busy;
    stats.max_shard_busy_cpu_ns = std::max(stats.max_shard_busy_cpu_ns, busy);
    stats.peak_queue_depth = std::max(stats.peak_queue_depth, shard->queue->peak_depth());
    for (watchit::Machine* machine : shard->machines) {
      const witos::SimClock& clock = machine->kernel().clock();
      stats.clock_ownership_violations += clock.ownership_violations();
      stats.clock_resume_underflows += clock.resume_underflows();
      const witos::PageCache& cache = machine->kernel().page_cache();
      stats.pagecache_hits += cache.hits();
      stats.pagecache_misses += cache.misses();
      stats.pagecache_evictions += cache.evictions();
    }
  }
  return stats;
}

}  // namespace witserve
