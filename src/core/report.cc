#include "src/core/report.h"

#include <algorithm>
#include <string_view>
#include <unordered_map>

#include "src/net/socket.h"

namespace watchit {

namespace {

// What the evidence chain attributes to one pid: probing and network
// activity by a session's shell or init, denied file accesses by its host
// worker (every ITFS record of a session carries it).
struct PidEvidence {
  size_t capability_denials = 0;
  size_t xcl_denials = 0;
  size_t tcb_violations = 0;
  size_t connections = 0;                 // kNetworkFlow records, IDS alerts aside
  size_t network_blocked = 0;             // kNetworkBlocked records
  size_t ids_drops = 0;                   // of which IDS verdicts
  std::vector<std::string> denied_paths;  // kFileDenied details, in chain order
  // kNetworkBlocked details and IDS alerts, in chain order.
  std::vector<std::string> network_lines;
};

}  // namespace

witos::Result<SessionForensics> ForensicReporter::Collect(
    witcontain::SessionId session_id) const {
  const witcontain::ContainIt& containit = machine_->containit();
  witcontain::SessionRecord live_record;
  Subject subject{containit.FindRetired(session_id), false};
  if (const witcontain::Session* session = containit.FindSession(session_id)) {
    live_record = containit.RecordOf(*session);
    subject = {&live_record, true};
  }
  if (subject.record == nullptr) {
    return witos::Err::kSrch;
  }
  return std::move(Assemble({subject}).front());
}

std::vector<SessionForensics> ForensicReporter::Assemble(
    const std::vector<Subject>& subjects) const {
  // One verified snapshot of the machine's evidence chain: every session's
  // detail lines (broker, network and denied paths), network and probe
  // counts and the anomaly baseline describe the same instant even while
  // serving workers keep appending, and a chain that fails verification
  // contributes none of them.
  const auto evidence = machine_->kernel().audit().VerifiedSnapshot();
  static const std::vector<witos::AuditRecord> kNoRecords;
  const std::vector<witos::AuditRecord>& records = evidence.ok() ? *evidence : kNoRecords;
  const std::vector<witbroker::BrokerEvent> events = witbroker::BrokerEventsOf(records);
  // Each subject's ticket events and per-pid evidence, filled in one pass
  // over the broker events and one over the records.
  std::unordered_map<std::string_view, std::vector<witbroker::BrokerEvent>> ticket_events;
  std::unordered_map<witos::Pid, PidEvidence> by_pid;
  for (const Subject& subject : subjects) {
    ticket_events.try_emplace(subject.record->ticket_id);
    by_pid.try_emplace(subject.record->host_worker);
    by_pid.try_emplace(subject.record->shell);
    by_pid.try_emplace(subject.record->container_init);
  }
  for (const witbroker::BrokerEvent& event : events) {
    auto it = ticket_events.find(event.ticket_id);
    if (it != ticket_events.end()) {
      it->second.push_back(event);
    }
  }
  for (const witos::AuditRecord& rec : records) {
    auto it = by_pid.find(rec.pid);
    if (it == by_pid.end()) {
      continue;
    }
    switch (rec.event) {
      case witos::AuditEvent::kFileDenied:
        it->second.denied_paths.push_back(rec.detail);
        break;
      case witos::AuditEvent::kCapabilityDenied:
        ++it->second.capability_denials;
        break;
      case witos::AuditEvent::kXclDenied:
        ++it->second.xcl_denials;
        break;
      case witos::AuditEvent::kTcbViolation:
        ++it->second.tcb_violations;
        break;
      case witos::AuditEvent::kNetworkFlow:
        if (witnet::IsIdsVerdict(rec)) {
          it->second.network_lines.push_back(rec.detail);
        } else {
          ++it->second.connections;
        }
        break;
      case witos::AuditEvent::kNetworkBlocked:
        ++it->second.network_blocked;
        if (witnet::IsIdsVerdict(rec)) {
          ++it->second.ids_drops;
        }
        it->second.network_lines.push_back(rec.detail);
        break;
      default:
        break;
    }
  }

  // Anomaly scoring against the machine's whole retained history, fitted
  // once and only if some session has broker events to score.
  witbroker::AnomalyDetector detector;
  bool fitted = false;
  std::vector<SessionForensics> out;
  out.reserve(subjects.size());
  for (const Subject& subject : subjects) {
    const witcontain::SessionRecord& record = *subject.record;
    SessionForensics forensics;
    forensics.ticket_id = record.ticket_id;
    forensics.admin = record.admin;
    forensics.container_class = record.container_class;
    forensics.still_active = subject.live;
    forensics.termination_reason = record.termination_reason;
    forensics.evidence_verified = evidence.ok();
    forensics.fs_ops = static_cast<size_t>(record.fs_ops.allowed + record.fs_ops.denied);
    forensics.fs_denied = static_cast<size_t>(record.fs_ops.denied);
    forensics.denied_paths = by_pid.find(record.host_worker)->second.denied_paths;
    // Counts and lines both come from the chain's broker records naming
    // the ticket.
    const std::vector<witbroker::BrokerEvent>& session_events =
        ticket_events.find(record.ticket_id)->second;
    forensics.broker_requests = session_events.size();
    for (const witbroker::BrokerEvent& event : session_events) {
      forensics.broker_denied += event.granted ? 0 : 1;
      std::string line = (event.granted ? "GRANT " : "DENY ") + event.verb;
      for (const auto& arg : event.args) {
        line += " " + arg;
      }
      forensics.broker_lines.push_back(std::move(line));
    }
    if (!session_events.empty()) {
      if (!fitted) {
        detector.Fit(events);
        fitted = true;
      }
      for (const auto& score : detector.Analyze(session_events)) {
        if (score.flagged) {
          forensics.flagged_anomalies.push_back(forensics.broker_lines[score.event_index] +
                                                " — " + score.reason);
        }
      }
    }
    // Machine-level and network events attributable to the session's
    // processes.
    for (witos::Pid pid : {record.shell, record.container_init}) {
      const PidEvidence& counts = by_pid.find(pid)->second;
      forensics.capability_denials += counts.capability_denials;
      forensics.xcl_denials += counts.xcl_denials;
      forensics.tcb_violations += counts.tcb_violations;
      forensics.connections += counts.connections;
      forensics.network_blocked += counts.network_blocked;
      forensics.packets_blocked += counts.ids_drops;
      forensics.network_lines.insert(forensics.network_lines.end(),
                                     counts.network_lines.begin(), counts.network_lines.end());
    }
    forensics.severity = Score(forensics);
    out.push_back(std::move(forensics));
  }
  return out;
}

int ForensicReporter::Score(const SessionForensics& forensics) {
  // Heuristic triage weights: TCB and capability probing are the strongest
  // signals; denied content access and blocked exfiltration follow. Only
  // the IDS's drops count as network evidence: a route or firewall refusal
  // is the in-view attempt a legitimate ticket makes before it asks the
  // broker.
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
  if (!forensics.evidence_verified) {
    out += "evidence: chain FAILED verification; denied paths, network lines and counts, "
           "broker lines and counts, anomalies and probe counts withheld\n";
  }
  out += "filesystem: " + std::to_string(forensics.fs_ops) + " ops, " +
         std::to_string(forensics.fs_denied) + " denied\n";
  for (const auto& path : forensics.denied_paths) {
    out += "  denied: " + path + "\n";
  }
  out += "network: " + std::to_string(forensics.connections) + " connections, " +
         std::to_string(forensics.network_blocked) + " blocked (" +
         std::to_string(forensics.packets_blocked) + " by the IDS)\n";
  for (const auto& line : forensics.network_lines) {
    out += "  " + line + "\n";
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
  std::vector<witcontain::SessionRecord> live_records;
  live_records.reserve(containit.live_sessions().size());
  for (const auto& [id, session] : containit.live_sessions()) {
    live_records.push_back(containit.RecordOf(*session));
  }
  std::vector<Subject> subjects;
  subjects.reserve(live_records.size() + containit.retired_sessions().size());
  for (const witcontain::SessionRecord& record : live_records) {
    subjects.push_back({&record, true});
  }
  for (const auto& [id, record] : containit.retired_sessions()) {
    subjects.push_back({&record, false});
  }
  std::sort(subjects.begin(), subjects.end(), [](const Subject& a, const Subject& b) {
    return a.record->id < b.record->id;  // deploy order
  });
  std::vector<SessionForensics> queue = Assemble(subjects);
  std::sort(queue.begin(), queue.end(),
            [](const SessionForensics& a, const SessionForensics& b) {
              return a.severity > b.severity;
            });
  return queue;
}

}  // namespace watchit
