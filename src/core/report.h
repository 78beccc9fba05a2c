// Forensic reporting: assembles the per-session evidence WatchIT collects —
// the session's own record (ITFS totals) and the machine's evidence chain
// (denied paths, network activity, broker requests, anomaly scores,
// probing) — into one structured incident report. This is the
// "later analysis and anomaly detection" and "improved investigation
// capabilities in case of security breach" the paper promises (§1, §4).

#ifndef SRC_CORE_REPORT_H_
#define SRC_CORE_REPORT_H_

#include <string>
#include <vector>

#include "src/broker/anomaly.h"
#include "src/core/machine.h"

namespace watchit {

struct SessionForensics {
  std::string ticket_id;
  std::string admin;
  std::string container_class;
  bool still_active = false;
  std::string termination_reason;
  // False when the machine's evidence chain failed verification: the
  // denied paths, network lines and counts, broker lines and counts,
  // anomalies and probe counts below are then withheld, not read from a
  // chain that may have been rewritten.
  bool evidence_verified = true;

  // Filesystem activity: the session tally's exact totals, and the chain's
  // denial records ("<op> <path> [<rule>]") over every ITFS mount of the
  // session.
  size_t fs_ops = 0;
  size_t fs_denied = 0;
  std::vector<std::string> denied_paths;

  // Network activity: the chain's network records under the session's
  // shell and init. Connections opened; attempts refused by the route, the
  // firewall, the fabric or the IDS, and of those the IDS's drops; and
  // network_lines, every refusal and IDS alert verbatim, each process's in
  // chain order (the shell's first).
  size_t connections = 0;
  size_t network_blocked = 0;
  size_t packets_blocked = 0;
  std::vector<std::string> network_lines;

  // Broker escalations: the chain's broker records naming the ticket (every
  // session of the ticket id on this machine), granted or denied, and each
  // as a line.
  size_t broker_requests = 0;
  size_t broker_denied = 0;
  std::vector<std::string> broker_lines;
  std::vector<std::string> flagged_anomalies;

  // Machine-level security events during the session window.
  size_t capability_denials = 0;
  size_t xcl_denials = 0;
  size_t tcb_violations = 0;

  // A simple 0-100 severity score for triage ordering.
  int severity = 0;
};

class ForensicReporter {
 public:
  explicit ForensicReporter(Machine* machine) : machine_(machine) {}

  // Collects everything known about a session: a live one's evidence so
  // far, or the record a terminated one left.
  witos::Result<SessionForensics> Collect(witcontain::SessionId session_id) const;

  // Renders a human-readable incident report.
  static std::string Render(const SessionForensics& forensics);

  // Sessions ordered by severity, most suspicious first — the triage queue.
  std::vector<SessionForensics> TriageQueue() const;

 private:
  // A session to report on: its record, and whether it is still live.
  struct Subject {
    const witcontain::SessionRecord* record;
    bool live;
  };
  // The forensics of each subject, in order. The machine-wide evidence is
  // read once per call however many sessions it covers: one verified
  // snapshot of the chain, one anomaly fit and one pass over the records.
  std::vector<SessionForensics> Assemble(const std::vector<Subject>& subjects) const;
  static int Score(const SessionForensics& forensics);

  Machine* machine_;
};

}  // namespace watchit

#endif  // SRC_CORE_REPORT_H_
