#include "src/core/deploy.h"

#include <algorithm>
#include <mutex>

namespace watchit {

std::string DeployStageName(DeployStage stage) {
  switch (stage) {
    case DeployStage::kImageLookup:
      return "image_lookup";
    case DeployStage::kConstruct:
      return "construct";
    case DeployStage::kBind:
      return "bind";
    case DeployStage::kIssueCert:
      return "issue_cert";
  }
  return "?";
}

witos::Result<Deployment> RunDeployStages(Cluster* cluster, const Ticket& ticket,
                                          uint64_t lifetime_ns, DeployGate* gate) {
  DeployGate inline_gate;
  if (gate == nullptr) {
    gate = &inline_gate;
  }
  Machine* machine = cluster->FindMachine(ticket.target_machine);
  if (machine == nullptr) {
    return witos::Err::kHostUnreach;
  }
  witos::SimClock& clock = machine->kernel().clock();

  // What the transaction has committed so far; rollback unwinds in reverse.
  struct Tx {
    witcontain::SessionId session = 0;  // 0 until built
    witos::CgroupId cgroup = witos::kRootCgroup;
    Certificate cert;  // serial 0 until issued
  } tx;

  // Runs `body` holding the machine's lock and owning its clock.
  auto locked = [&](auto&& body) {
    std::lock_guard<witobs::ProfiledMutex> lock(machine->mu());
    clock.BindOwner();
    body();
    clock.ReleaseOwner();
  };

  auto run_stage = [&](DeployStage stage, auto&& body) -> witos::Status {
    WITOS_RETURN_IF_ERROR(gate->BeforeStage(stage, machine));
    witos::Status status = witos::Status::Ok();
    uint64_t sim_ns = 0;
    locked([&] {
      const uint64_t start_ns = clock.now_ns();
      status = body();
      sim_ns = clock.now_ns() - start_ns;
    });
    gate->OnStageDone(stage, sim_ns, status.error());
    return status;
  };

  auto rollback = [&](DeployStage failed_stage, witos::Err err) {
    if (tx.session == 0) {
      return;  // nothing committed yet — nothing to unwind
    }
    locked([&] {
      if (tx.cert.serial != 0) {
        // The session never began: no Login has seen this certificate.
        cluster->ca().Revoke(tx.cert.serial);
      }
      (void)machine->containit().Terminate(tx.session,
                                           "deploy rollback at " + DeployStageName(failed_stage));
    });
    gate->OnRollback(failed_stage, err);
  };

  witcontain::PerforatedContainerSpec spec;
  witos::Status status = run_stage(DeployStage::kImageLookup, [&]() -> witos::Status {
    WITOS_ASSIGN_OR_RETURN(spec, cluster->images().Lookup(ticket.assigned_class));
    return witos::Status::Ok();
  });
  if (!status.ok()) {
    rollback(DeployStage::kImageLookup, status.error());
    return status.error();
  }

  status = run_stage(DeployStage::kConstruct, [&]() -> witos::Status {
    WITOS_ASSIGN_OR_RETURN(tx.session,
                           machine->containit().Deploy(spec, ticket.id, ticket.admin));
    tx.cgroup = machine->containit().FindSession(tx.session)->cgroup;
    return witos::Status::Ok();
  });
  if (!status.ok()) {
    rollback(DeployStage::kConstruct, status.error());
    return status.error();
  }

  status = run_stage(DeployStage::kIssueCert, [&]() -> witos::Status {
    tx.cert = cluster->ca().Issue(ticket.admin, machine->name(), ticket.id,
                                  ticket.assigned_class, clock.now_ns(), lifetime_ns);
    return witos::Status::Ok();
  });
  if (!status.ok()) {
    rollback(DeployStage::kIssueCert, status.error());
    return status.error();
  }

  // The session's cgroup is its identity at the broker, on the issued
  // certificate's terms.
  status = run_stage(DeployStage::kBind, [&]() -> witos::Status {
    return machine->broker().BindTicket(tx.cert.ticket_id, tx.cert.ticket_class, tx.cert.admin,
                                        tx.cgroup, tx.cert.expires_ns);
  });
  if (!status.ok()) {
    rollback(DeployStage::kBind, status.error());
    return status.error();
  }

  Deployment deployment;
  deployment.session = tx.session;
  deployment.machine = machine;
  deployment.certificate = tx.cert;
  return deployment;
}

// The shard workers' gate: the optional stage hook, the stage histograms
// and spans, and the rollback record.
class DeployPipeline::WorkerGate : public DeployGate {
 public:
  WorkerGate(DeployPipeline* pipeline, const Ticket* ticket)
      : pipeline_(pipeline), ticket_(ticket) {}

  witos::Status BeforeStage(DeployStage stage, Machine* machine) override {
    if (pipeline_->stage_hook_) {
      WITOS_RETURN_IF_ERROR(pipeline_->stage_hook_(stage, *ticket_, machine));
    }
    if (pipeline_->tracer_ != nullptr) {
      stage_start_wall_ns_ = pipeline_->tracer_->NowNs();
    }
    return witos::Status::Ok();
  }

  void OnStageDone(DeployStage stage, uint64_t sim_ns, witos::Err /*err*/) override {
    witobs::Histogram* hist = pipeline_->stage_latency_[static_cast<size_t>(stage)];
    if (hist != nullptr) {
      hist->Observe(sim_ns);
    }
    // Synthesized wall-clock stage span under the ticket's timeline — the
    // stage body is a plain lambda, so the interval is measured here at the
    // gate instead of by an RAII scope inside it.
    witobs::Tracer* tracer = pipeline_->tracer_;
    if (tracer != nullptr && stage_start_wall_ns_ != 0) {
      witobs::SpanRecord record;
      record.name = "deploy." + DeployStageName(stage);
      record.correlation_id = ticket_->id;
      record.start_ns = stage_start_wall_ns_;
      record.duration_ns = tracer->NowNs() - stage_start_wall_ns_;
      record.depth = 1;  // nested under the pool's serve.deploy
      tracer->RecordSpan(std::move(record));
      stage_start_wall_ns_ = 0;
    }
  }

  void OnRollback(DeployStage failed_stage, witos::Err /*err*/) override {
    rolled_back_ = true;
    rollback_stage_ = failed_stage;
  }

  // Consumed by Deploy after the transaction, so the rollback is counted
  // with no machine lock held.
  bool rolled_back() const { return rolled_back_; }
  DeployStage rollback_stage() const { return rollback_stage_; }

 private:
  DeployPipeline* pipeline_;
  const Ticket* ticket_;
  uint64_t stage_start_wall_ns_ = 0;
  bool rolled_back_ = false;
  DeployStage rollback_stage_ = DeployStage::kImageLookup;
};

witos::Result<Deployment> DeployPipeline::Deploy(const Ticket& ticket) {
  {
    std::lock_guard<witobs::ProfiledMutex> lock(mu_);
    ++stats_.submitted;
    ++inflight_;
    stats_.peak_inflight = std::max<uint64_t>(stats_.peak_inflight, inflight_);
    if (inflight_gauge_ != nullptr) {
      inflight_gauge_->Set(static_cast<int64_t>(inflight_));
    }
  }
  WorkerGate gate(this, &ticket);
  witos::Result<Deployment> result =
      RunDeployStages(cluster_, ticket, ClusterManager::kDefaultLifetimeNs, &gate);
  RecordOutcome(result, gate);
  return result;
}

void DeployPipeline::RecordOutcome(const witos::Result<Deployment>& result,
                                   const WorkerGate& gate) {
  witobs::Counter* outcome = nullptr;
  {
    std::lock_guard<witobs::ProfiledMutex> lock(mu_);
    --inflight_;
    if (inflight_gauge_ != nullptr) {
      inflight_gauge_->Set(static_cast<int64_t>(inflight_));
    }
    if (result.ok()) {
      ++stats_.deployed;
      outcome = outcome_ok_;
    } else {
      ++stats_.failed;
      outcome = outcome_error_;
    }
    if (gate.rolled_back()) {
      ++stats_.rollbacks;
    }
  }
  if (outcome != nullptr) {
    outcome->Increment();
  }
  if (gate.rolled_back()) {
    witobs::Counter* rollbacks = rollbacks_total_[static_cast<size_t>(gate.rollback_stage())];
    if (rollbacks != nullptr) {
      rollbacks->Increment();
    }
  }
}

void DeployPipeline::EnableMetrics(witobs::MetricsRegistry* registry, witobs::Tracer* tracer) {
  tracer_ = tracer;
  mu_.EnableMetrics(registry);
  registry->SetHelp("watchit_deploy_stage_latency_ns",
                    "Simulated time spent in each deploy stage");
  registry->SetHelp("watchit_deploy_inflight",
                    "Deploy transactions executing on shard workers right now");
  registry->SetHelp("watchit_deploy_rollbacks_total",
                    "Deploy transactions rolled back, by the stage that failed");
  registry->SetHelp("watchit_deploy_total", "Finished deploy transactions by outcome");
  for (size_t i = 0; i < kNumDeployStages; ++i) {
    std::string stage = DeployStageName(static_cast<DeployStage>(i));
    stage_latency_[i] =
        registry->GetHistogram("watchit_deploy_stage_latency_ns", {{"stage", stage}});
    rollbacks_total_[i] =
        registry->GetCounter("watchit_deploy_rollbacks_total", {{"stage", stage}});
  }
  inflight_gauge_ = registry->GetGauge("watchit_deploy_inflight");
  outcome_ok_ = registry->GetCounter("watchit_deploy_total", {{"outcome", "ok"}});
  outcome_error_ = registry->GetCounter("watchit_deploy_total", {{"outcome", "error"}});
}

DeployPipeline::Stats DeployPipeline::GetStats() const {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  return stats_;
}

}  // namespace watchit
