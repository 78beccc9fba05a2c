#include "src/core/workflow.h"

#include <algorithm>
#include <iterator>

namespace watchit {

void Dispatcher::AddSpecialist(const std::string& name, std::set<std::string> expertise) {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  ItSpecialist specialist;
  specialist.name = name;
  specialist.expertise = std::move(expertise);
  roster_.push_back(std::move(specialist));
}

witos::Result<std::string> Dispatcher::Assign(const std::string& ticket_class) {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  const size_t n = roster_.size();
  if (n == 0) {
    return witos::Err::kSrch;
  }
  const size_t start = static_cast<size_t>(rotation_++ % n);
  ItSpecialist* best = nullptr;
  bool best_pinned_here = false;
  for (size_t i = 0; i < n; ++i) {
    ItSpecialist& specialist = roster_[(start + i) % n];
    if (specialist.expertise.count(ticket_class) == 0) {
      continue;
    }
    bool pinned_here = false;
    if (options_.single_class_per_admin) {
      auto pinned = pinned_.find(specialist.name);
      if (pinned != pinned_.end()) {
        if (pinned->second != ticket_class) {
          continue;  // already pinned to a different class
        }
        pinned_here = true;
      }
    }
    // Least loaded wins; at equal load an admin already pinned to this
    // class beats an unpinned one (don't spend a fresh admin's pin on work
    // a pinned admin can absorb), else the rotated scan order decides.
    if (best == nullptr || specialist.open_tickets < best->open_tickets ||
        (specialist.open_tickets == best->open_tickets && pinned_here && !best_pinned_here)) {
      best = &specialist;
      best_pinned_here = pinned_here;
    }
  }
  if (best == nullptr) {
    return witos::Err::kSrch;
  }
  ++best->open_tickets;
  ++best->total_assigned;
  if (options_.single_class_per_admin) {
    pinned_.emplace(best->name, ticket_class);
  }
  return best->name;
}

witos::Status Dispatcher::Complete(const std::string& admin) {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  for (auto& specialist : roster_) {
    if (specialist.name != admin) {
      continue;
    }
    if (specialist.open_tickets == 0) {
      return witos::Err::kInval;  // double-complete: accounting bug
    }
    --specialist.open_tickets;
    return witos::Status::Ok();
  }
  return witos::Err::kSrch;  // unknown admin
}

const ItSpecialist* Dispatcher::Find(const std::string& name) const {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  // The returned pointer is stable (the roster only grows at setup time),
  // but its counters are meaningful only while the dispatcher is quiescent.
  for (const auto& specialist : roster_) {
    if (specialist.name == name) {
      return &specialist;
    }
  }
  return nullptr;
}

size_t Dispatcher::size() const {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  return roster_.size();
}

std::map<std::string, std::string> Dispatcher::pinned_classes() const {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  return pinned_;
}

void TicketWorkflow::EnableMetrics(witobs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    std::fill(std::begin(stage_latency_), std::end(stage_latency_), nullptr);
    std::fill(std::begin(tickets_), std::end(tickets_), nullptr);
    return;
  }
  registry->SetHelp("watchit_workflow_stage_latency_ns",
                    "Wall-clock duration of each ticket-workflow stage");
  registry->SetHelp("watchit_workflow_tickets_total",
                    "Tickets processed by classification outcome");
  // Created up front, so a snapshot taken before the first ticket already
  // shows the full shape of the pipeline.
  static constexpr const char* kStageNames[kNumStages] = {"classify", "dispatch", "deploy",
                                                          "replay", "expire"};
  for (size_t stage = 0; stage < kNumStages; ++stage) {
    stage_latency_[stage] = registry->GetHistogram("watchit_workflow_stage_latency_ns",
                                                   {{"stage", kStageNames[stage]}});
  }
  tickets_[0] =
      registry->GetCounter("watchit_workflow_tickets_total", {{"classified", "correct"}});
  tickets_[1] =
      registry->GetCounter("watchit_workflow_tickets_total", {{"classified", "reviewed"}});
}

witos::Result<PreparedTicket> TicketWorkflow::Prepare(
    const witload::GeneratedTicket& generated, const std::string& target_machine,
    const std::string& user_machine) {
  PreparedTicket prepared;
  ResolvedTicket& resolved = prepared.resolved;
  Ticket& ticket = resolved.ticket;
  {
    witobs::ScopedTimer timer(stage_latency_[kClassify]);
    resolved.predicted_class = framework_->Classify(generated.text);
    resolved.classified_correctly = resolved.predicted_class == generated.true_class;

    ticket.id = generated.id;
    ticket.text = generated.text;
    ticket.target_machine = target_machine;
    // Review corrects mispredictions before deployment (§5.1): the
    // supervisor sees this one prediction and may override it; the
    // prediction's accuracy is what Table 4's precision column reports.
    ticket.assigned_class =
        generated.true_class.empty() ? resolved.predicted_class : generated.true_class;
    ticket.true_class = generated.true_class;
    ticket.ops = generated.ops;
  }
  witobs::Counter* outcome = tickets_[resolved.classified_correctly ? 0 : 1];
  if (outcome != nullptr) {
    outcome->Increment();
  }

  {
    witobs::ScopedTimer timer(stage_latency_[kDispatch]);
    WITOS_ASSIGN_OR_RETURN(ticket.admin, dispatcher_->Assign(ticket.assigned_class));
  }

  // T-9 deploys on the user's machine as well (§7.1.2); validate it now so
  // the deploy step needs no cluster lookups.
  if (ticket.assigned_class == "T-9") {
    std::string second = user_machine.empty() ? target_machine : user_machine;
    if (second != target_machine && cluster_->FindMachine(second) != nullptr) {
      prepared.user_machine = second;
    }
  }
  return prepared;
}

witos::Result<ResolvedTicket> TicketWorkflow::Finish(PreparedTicket prepared,
                                                     std::vector<Deployment> deployments) {
  ResolvedTicket resolved = std::move(prepared.resolved);
  Ticket& ticket = resolved.ticket;
  if (deployments.empty()) {
    // Nothing was deployed; still close the assignment so the specialist's
    // open-ticket count doesn't leak.
    (void)dispatcher_->Complete(ticket.admin);
    return witos::Err::kInval;
  }
  resolved.deployments = std::move(deployments);

  witos::Err replay_err = witos::Err::kOk;
  {
    witobs::ScopedTimer timer(stage_latency_[kReplay]);
    // The specialist works the ticket in the primary session.
    const Deployment& primary = resolved.deployments.front();
    AdminSession session(primary.machine, primary.session, primary.certificate,
                         &cluster_->ca());
    witos::Status login = session.Login();
    if (!login.ok()) {
      // Capture rather than return: the deployments below must still expire.
      replay_err = login.error();
    } else {
      resolved.satisfied_in_view = true;
      // Batched replay: the whole ticket's broker escalations ride one
      // wire crossing instead of one frame per op.
      std::vector<OpReplayResult> replays = session.ReplayTicket(ticket.ops);
      for (OpReplayResult& replay : replays) {
        resolved.satisfied_in_view &= !replay.used_broker;
        resolved.replays.push_back(std::move(replay));
      }
    }
  }

  {
    witobs::ScopedTimer timer(stage_latency_[kExpire]);
    for (auto& deployment : resolved.deployments) {
      (void)manager_.Expire(&deployment);
    }
  }
  witos::Status completed = dispatcher_->Complete(ticket.admin);
  ++processed_;
  if (replay_err != witos::Err::kOk) {
    return replay_err;
  }
  WITOS_RETURN_IF_ERROR(completed);
  return resolved;
}

witos::Result<ResolvedTicket> TicketWorkflow::Process(
    const witload::GeneratedTicket& generated, const std::string& target_machine,
    const std::string& user_machine) {
  WITOS_ASSIGN_OR_RETURN(PreparedTicket prepared,
                         Prepare(generated, target_machine, user_machine));
  Ticket& ticket = prepared.resolved.ticket;

  std::vector<Deployment> deployments;
  {
    witobs::ScopedTimer timer(stage_latency_[kDeploy]);
    auto primary = manager_.Deploy(ticket);
    if (!primary.ok()) {
      // The assignment opened in Prepare() must close on the error path too,
      // or the specialist is stuck with a phantom open ticket.
      (void)dispatcher_->Complete(ticket.admin);
      return primary.error();
    }
    deployments.push_back(*primary);

    if (!prepared.user_machine.empty()) {
      Ticket user_ticket = ticket;
      user_ticket.target_machine = prepared.user_machine;
      auto user_deployment = manager_.Deploy(user_ticket);
      if (user_deployment.ok()) {
        deployments.push_back(*user_deployment);
      }
    }
  }

  return Finish(std::move(prepared), std::move(deployments));
}

}  // namespace watchit
