// The end-to-end IT workflow of §3.1/§5.1: the end user files a ticket, the
// framework classifies it (with supervisor review), a dispatcher assigns it
// to a qualified IT specialist, the cluster manager deploys the class's
// perforated container on the target machine(s), the specialist resolves the
// ticket inside it, and the deployment expires with the certificate.
//
// Dispatch encodes two of the paper's organizational defences:
//  * tickets go only to specialists whose expertise covers the class
//    ("dispatches it to an appropriate IT specialist");
//  * optional single-class hardening — "in large organizations, WatchIT can
//    be protected from [ticket stringing] by assigning to each IT person
//    only tickets of the same class" (Attack 10).
//
// T-9 (SSH/VNC/LSF) deploys on *both* the user and the target machine:
// "this container is deployed both on the user and the target machines,
// since configurations might need to be fixed in both of them" (§7.1.2).

#ifndef SRC_CORE_WORKFLOW_H_
#define SRC_CORE_WORKFLOW_H_

#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "src/core/cluster.h"
#include "src/core/framework.h"
#include "src/core/session.h"
#include "src/obs/metrics.h"
#include "src/obs/profile.h"
#include "src/workload/ticket_gen.h"

namespace watchit {

struct ItSpecialist {
  std::string name;
  std::set<std::string> expertise;  // ticket classes this person may handle
  size_t open_tickets = 0;
  size_t total_assigned = 0;
};

// Shared across every witserve worker: Assign/Complete are internally
// synchronized, so the roster is safe to drive from concurrent ticket
// pipelines. AddSpecialist is setup-time only (before serving starts).
class Dispatcher {
 public:
  struct Options {
    // Attack-10 hardening: once a specialist handles a class, they only
    // ever get that class again.
    bool single_class_per_admin = false;
  };

  Dispatcher() : Dispatcher(Options()) {}
  explicit Dispatcher(Options options) : options_(options) {}

  void AddSpecialist(const std::string& name, std::set<std::string> expertise);

  // Picks the least-loaded qualified specialist for the class, or ESRCH.
  // Load ties break by a rotating scan start (and, under single-class
  // hardening, prefer the admin already pinned to the class), so equally
  // loaded specialists share work fairly instead of the roster head
  // absorbing every burst.
  witos::Result<std::string> Assign(const std::string& ticket_class);
  // Closes an assignment made by Assign(). ESRCH for an admin not on the
  // roster, EINVAL for one with no open tickets — both indicate an
  // accounting bug upstream and must not vanish as silent no-ops.
  witos::Status Complete(const std::string& admin);

  const ItSpecialist* Find(const std::string& name) const;
  size_t size() const;
  // The class each admin is pinned to under single-class hardening.
  std::map<std::string, std::string> pinned_classes() const;

  // Attaches the roster lock to the contention profile
  // (watchit_lock_{wait,hold}_ns{lock="dispatcher"}).
  void EnableLockMetrics(witobs::MetricsRegistry* registry) { mu_.EnableMetrics(registry); }

 private:
  Options options_;
  mutable witobs::ProfiledMutex mu_{"dispatcher"};
  std::vector<ItSpecialist> roster_;
  std::map<std::string, std::string> pinned_;
  uint64_t rotation_ = 0;  // tie-break scan start, advances per Assign
};

struct ResolvedTicket {
  Ticket ticket;
  std::string predicted_class;  // before review
  std::vector<Deployment> deployments;  // one, or two for T-9
  std::vector<OpReplayResult> replays;
  bool classified_correctly = false;
  bool satisfied_in_view = false;  // no broker escalation needed
};

// The front half of a ticket's workflow — classified, reviewed and
// dispatched, but not yet deployed. Produced by Prepare() so witserve can
// run the deploy through DeployPipeline::Deploy and resume with Finish()
// once the container(s) are up.
struct PreparedTicket {
  ResolvedTicket resolved;
  // Validated T-9 secondary machine, or empty when only the target deploys.
  std::string user_machine;
};

class TicketWorkflow {
 public:
  // All dependencies must outlive the workflow.
  TicketWorkflow(Cluster* cluster, ItFramework* framework, Dispatcher* dispatcher)
      : cluster_(cluster), framework_(framework), dispatcher_(dispatcher), manager_(cluster) {}

  // Runs one generated ticket end to end against `target_machine` (and
  // `user_machine` for the dual-deployment classes, defaulting to the
  // target). Sessions are expired before returning.
  witos::Result<ResolvedTicket> Process(const witload::GeneratedTicket& generated,
                                        const std::string& target_machine,
                                        const std::string& user_machine = "");

  // Split entry points for a caller that deploys itself. Prepare() runs
  // classify + review + dispatch (no machine state is touched); the caller
  // then deploys — via ClusterManager or DeployPipeline::Deploy — and hands
  // the results to Finish(), which replays the ticket in the primary
  // session, expires every deployment and closes the dispatcher assignment.
  // A Prepare() whose deploy never happens must close the assignment itself
  // (dispatcher()->Complete(admin)) or the specialist leaks an open ticket.
  witos::Result<PreparedTicket> Prepare(const witload::GeneratedTicket& generated,
                                        const std::string& target_machine,
                                        const std::string& user_machine = "");
  witos::Result<ResolvedTicket> Finish(PreparedTicket prepared,
                                       std::vector<Deployment> deployments);

  Dispatcher* dispatcher() { return dispatcher_; }

  uint64_t processed() const { return processed_; }

  // Wires the workflow into the observability layer: per-stage wall-clock
  // latency histograms (classify/dispatch/deploy/replay/expire) and ticket
  // outcome counters. Every handle is resolved here, so a ticket takes no
  // registry lock.
  void EnableMetrics(witobs::MetricsRegistry* registry);

 private:
  enum Stage { kClassify, kDispatch, kDeploy, kReplay, kExpire, kNumStages };

  Cluster* cluster_;
  ItFramework* framework_;
  Dispatcher* dispatcher_;
  ClusterManager manager_;
  uint64_t processed_ = 0;

  // Observability wiring (all null when metrics are disabled).
  witobs::Histogram* stage_latency_[kNumStages] = {};
  witobs::Counter* tickets_[2] = {};  // classified correctly, corrected by review
};

}  // namespace watchit

#endif  // SRC_CORE_WORKFLOW_H_
