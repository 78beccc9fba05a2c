// witmine trace recording: per-ticket-class operation traces that feed the
// policy miner (ROADMAP "mined least-privilege policies"; BEACON-style
// auto-perforation). Two sources fold into the same per-class view:
//
//   * the workload generator's required-ops — what the ticket's admin had
//     to do, the ground-truth need surface;
//   * live broker events (witbroker::BrokerEventsOf over a machine's
//     evidence chain) — the escalations that actually crossed the
//     container boundary.
//
// Traces are kept per ticket so exclusion is retroactive: when the anomaly
// detector flags a ticket, ExcludeTicket() drops its whole contribution
// from every later Merged() view and the next mined generation shrinks
// (the tighten hook of the trace -> mine -> shadow -> tighten loop).

#ifndef SRC_MINE_TRACE_H_
#define SRC_MINE_TRACE_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/broker/broker.h"
#include "src/workload/ticket_gen.h"

namespace witmine {

// Everything observed for one ticket class, with exclusions applied.
// All containers are ordered so downstream mining is deterministic.
struct ClassTrace {
  struct PathStats {
    uint64_t reads = 0;
    uint64_t writes = 0;
  };
  std::map<std::string, PathStats> paths;     // normalized fs paths touched
  std::map<std::string, uint64_t> verbs;      // broker verbs -> uses
  std::map<std::string, uint64_t> endpoints;  // endpoint names -> uses
  bool process_mgmt = false;  // host process/service ops observed in view
  uint64_t tickets = 0;
  uint64_t ops = 0;
};

class TraceRecorder {
 public:
  // Records one generated ticket's required-ops trace under its true class.
  void RecordTicket(const witload::GeneratedTicket& ticket) {
    RecordOps(ticket.true_class, ticket.id, ticket.ops);
  }
  void RecordOps(const std::string& ticket_class, const std::string& ticket_id,
                 const std::vector<witload::RequiredOp>& ops);

  // Folds a live broker stream into the per-ticket traces: each event adds
  // a verb observation (and, for read_file, a path observation) to the
  // event's own ticket under its ticket class. Denied events still count —
  // the need was expressed either way.
  void RecordBrokerEvents(const std::vector<witbroker::BrokerEvent>& events);

  // Marks a ticket's trace as poisoned (anomaly-flagged); Merged() drops
  // its entire contribution from then on. Idempotent.
  void ExcludeTicket(const std::string& ticket_id);
  bool IsExcluded(const std::string& ticket_id) const {
    return excluded_.count(ticket_id) > 0;
  }

  // The merged per-class view with exclusions applied. Deterministic:
  // identical recorded content (in any order) yields an identical result.
  std::map<std::string, ClassTrace> Merged() const;

  size_t excluded_count() const { return excluded_.size(); }

 private:
  struct TicketTrace {
    std::string cls;
    std::map<std::string, ClassTrace::PathStats> paths;
    std::map<std::string, uint64_t> verbs;
    std::map<std::string, uint64_t> endpoints;
    bool process_mgmt = false;
    uint64_t ops = 0;
  };

  TicketTrace& TraceFor(const std::string& ticket_id, const std::string& cls);

  std::map<std::string, TicketTrace> tickets_;  // keyed by ticket id
  std::set<std::string> excluded_;
};

}  // namespace witmine

#endif  // SRC_MINE_TRACE_H_
