#include "src/core/report.h"

#include <algorithm>

namespace watchit {

witos::Result<SessionForensics> ForensicReporter::Collect(
    witcontain::SessionId session_id) const {
  const witcontain::Session* session = machine_->containit().FindSession(session_id);
  if (session == nullptr) {
    return witos::Err::kSrch;
  }
  SessionForensics forensics;
  forensics.ticket_id = session->ticket_id;
  forensics.admin = session->admin;
  forensics.container_class = session->spec.name;
  forensics.still_active = session->active;
  forensics.termination_reason = session->termination_reason;

  if (session->itfs != nullptr) {
    // Totals come from the metrics registry: they count every gated
    // operation and survive the OpLog retention cap. The log itself still
    // supplies the denied-path detail lines (a bounded, most-recent window).
    const witobs::MetricsRegistry& metrics = machine_->metrics();
    uint64_t fs_allowed = metrics.CounterValue(
        "watchit_itfs_ticket_ops_total",
        {{"ticket", session->ticket_id}, {"outcome", "allow"}});
    forensics.fs_denied = static_cast<size_t>(metrics.CounterValue(
        "watchit_itfs_ticket_ops_total",
        {{"ticket", session->ticket_id}, {"outcome", "deny"}}));
    forensics.fs_ops = static_cast<size_t>(fs_allowed) + forensics.fs_denied;
    const witfs::OpLog& oplog = session->itfs->oplog();
    if (forensics.fs_ops == 0 && oplog.size() > 0) {
      // Unwired ITFS (tests constructing sessions outside Machine::Boot):
      // fall back to counting the raw log.
      forensics.fs_ops = oplog.size();
      forensics.fs_denied = oplog.denied_count();
    }
    for (const auto& rec : oplog.Denied()) {
      forensics.denied_paths.push_back(witfs::ItfsOpKindName(rec.op) + " " + rec.path + " [" +
                                       rec.rule + "]");
    }
  }
  if (session->sniffer != nullptr) {
    forensics.packets_inspected = session->sniffer->packets_inspected();
    forensics.packets_blocked = session->sniffer->blocked_count();
    for (const auto& alert : session->sniffer->alerts()) {
      forensics.sniffer_hits.push_back(
          (alert.blocked ? std::string("BLOCK ") : std::string("ALERT ")) + alert.rule +
          " -> " + alert.dst.ToString() + ":" + std::to_string(alert.port) + " (" +
          std::to_string(alert.payload_bytes) + "B)");
    }
  }

  // Broker activity for this ticket, with anomaly scoring against the
  // machine's whole history. Counts come from the registry (exact even
  // after event-buffer eviction); the detail lines come from the retained
  // event window.
  forensics.broker_requests = static_cast<size_t>(machine_->metrics().CounterValue(
      "watchit_broker_ticket_requests_total",
      {{"ticket", session->ticket_id}, {"outcome", "grant"}}));
  forensics.broker_denied = static_cast<size_t>(machine_->metrics().CounterValue(
      "watchit_broker_ticket_requests_total",
      {{"ticket", session->ticket_id}, {"outcome", "deny"}}));
  forensics.broker_requests += forensics.broker_denied;
  // Snapshot once: the detail lines, the fallback counts and the anomaly
  // baseline must all describe the same instant even while serving workers
  // keep appending broker events.
  const std::vector<witbroker::BrokerEvent> all_events = machine_->broker().EventsSnapshot();
  std::vector<witbroker::BrokerEvent> session_events;
  for (const auto& event : all_events) {
    if (event.ticket_id != session->ticket_id) {
      continue;
    }
    std::string line = (event.granted ? "GRANT " : "DENY ") + event.verb;
    for (const auto& arg : event.args) {
      line += " " + arg;
    }
    forensics.broker_lines.push_back(std::move(line));
    session_events.push_back(event);
  }
  if (forensics.broker_requests == 0) {
    // Unwired broker (tests outside Machine::Boot): count the raw window.
    forensics.broker_requests = session_events.size();
    for (const auto& event : session_events) {
      forensics.broker_denied += event.granted ? 0 : 1;
    }
  }
  if (!session_events.empty()) {
    witbroker::AnomalyDetector detector;
    detector.Fit(all_events);
    auto scores = detector.Analyze(session_events);
    for (const auto& score : scores) {
      if (score.flagged) {
        forensics.flagged_anomalies.push_back(
            forensics.broker_lines[score.event_index] + " — " + score.reason);
      }
    }
  }

  // Machine-level events attributable to the session's processes.
  for (const auto& rec : machine_->kernel().audit().records()) {
    bool session_pid = rec.pid == session->shell || rec.pid == session->container_init;
    if (!session_pid) {
      continue;
    }
    switch (rec.event) {
      case witos::AuditEvent::kCapabilityDenied:
        ++forensics.capability_denials;
        break;
      case witos::AuditEvent::kXclDenied:
        ++forensics.xcl_denials;
        break;
      case witos::AuditEvent::kTcbViolation:
        ++forensics.tcb_violations;
        break;
      default:
        break;
    }
  }
  forensics.severity = Score(forensics);
  return forensics;
}

int ForensicReporter::Score(const SessionForensics& forensics) {
  // Heuristic triage weights: TCB and capability probing are the strongest
  // signals; denied content access and blocked exfiltration follow.
  double score = 0.0;
  score += 40.0 * static_cast<double>(forensics.tcb_violations);
  score += 12.0 * static_cast<double>(forensics.capability_denials);
  score += 10.0 * static_cast<double>(forensics.packets_blocked);
  score += 8.0 * static_cast<double>(forensics.fs_denied);
  score += 8.0 * static_cast<double>(forensics.xcl_denials);
  score += 6.0 * static_cast<double>(forensics.broker_denied);
  score += 15.0 * static_cast<double>(forensics.flagged_anomalies.size());
  return static_cast<int>(std::min(score, 100.0));
}

std::string ForensicReporter::Render(const SessionForensics& forensics) {
  std::string out;
  out += "=== incident report: " + forensics.ticket_id + " ===\n";
  out += "admin: " + forensics.admin + "   container: " + forensics.container_class + "\n";
  out += "status: " + std::string(forensics.still_active ? "active" : "terminated");
  if (!forensics.termination_reason.empty()) {
    out += " (" + forensics.termination_reason + ")";
  }
  out += "\nseverity: " + std::to_string(forensics.severity) + "/100\n";
  out += "filesystem: " + std::to_string(forensics.fs_ops) + " ops, " +
         std::to_string(forensics.fs_denied) + " denied\n";
  for (const auto& path : forensics.denied_paths) {
    out += "  denied: " + path + "\n";
  }
  out += "network: " + std::to_string(forensics.packets_inspected) + " packets inspected, " +
         std::to_string(forensics.packets_blocked) + " blocked\n";
  for (const auto& hit : forensics.sniffer_hits) {
    out += "  " + hit + "\n";
  }
  out += "broker: " + std::to_string(forensics.broker_requests) + " requests, " +
         std::to_string(forensics.broker_denied) + " denied\n";
  for (const auto& line : forensics.broker_lines) {
    out += "  " + line + "\n";
  }
  for (const auto& anomaly : forensics.flagged_anomalies) {
    out += "  ANOMALY: " + anomaly + "\n";
  }
  out += "probing: " + std::to_string(forensics.capability_denials) +
         " capability denials, " + std::to_string(forensics.xcl_denials) + " XCL denials, " +
         std::to_string(forensics.tcb_violations) + " TCB violations\n";
  return out;
}

std::vector<SessionForensics> ForensicReporter::TriageQueue() const {
  const witcontain::ContainIt& containit = machine_->containit();
  std::vector<witcontain::SessionId> ids;
  for (const auto* map : {&containit.live_sessions(), &containit.retired_sessions()}) {
    for (const auto& [id, session] : *map) {
      ids.push_back(id);
    }
  }
  std::sort(ids.begin(), ids.end());  // deploy order
  std::vector<SessionForensics> queue;
  for (witcontain::SessionId id : ids) {
    auto forensics = Collect(id);
    if (forensics.ok()) {
      queue.push_back(std::move(*forensics));
    }
  }
  std::sort(queue.begin(), queue.end(),
            [](const SessionForensics& a, const SessionForensics& b) {
              return a.severity > b.severity;
            });
  return queue;
}

}  // namespace watchit
