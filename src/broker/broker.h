// The permission broker (paper §5.4): a host-side service with unlimited
// access to the host's namespaces. Contained administrators ask it to
// execute commands on their behalf ("PB ps -a") or to widen their container
// view. Every request — granted or denied — is one record in the host
// machine's evidence chain (witos::AuditLog), written by the codec below.

#ifndef SRC_BROKER_BROKER_H_
#define SRC_BROKER_BROKER_H_

#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/broker/policy.h"
#include "src/broker/rpc.h"
#include "src/obs/metrics.h"
#include "src/obs/profile.h"
#include "src/os/kernel.h"

namespace witbroker {

// One broker request as its evidence record states it, consumed by the
// anomaly detector, forensic reports, the case-study accounting and
// witmine.
struct BrokerEvent {
  uint64_t time_ns = 0;
  std::string admin;
  std::string ticket_id;
  std::string ticket_class;
  std::string verb;
  std::vector<std::string> args;
  bool granted = false;
};

// The broker record codec: the detail of each kBrokerRequest (granted) or
// kBrokerDenied record in the chain. EncodeBrokerDetail renders
// `GRANT alice TKT-1 [T-6] install netcat`. The sender chooses only verb
// and args; admin, ticket and class come from the caller's binding. Each
// byte that would blur the line's structure (space, '[', ']', '%', control
// bytes) is written as %XX, and an empty admin, ticket, verb or arg as a
// lone '%': any bytes round-trip, and ordinary names print as they are.
std::string EncodeBrokerDetail(const RpcRequest& request, const std::string& ticket_class,
                               bool granted);
// The event a broker record states; nullopt for any record that is not a
// broker record the encoder produced (a decode must re-encode to the same
// detail, and GRANT must sit on a kBrokerRequest record).
std::optional<BrokerEvent> DecodeBrokerRecord(const witos::AuditRecord& record);
// Every broker record of `records`, decoded, in chain order.
std::vector<BrokerEvent> BrokerEventsOf(const std::vector<witos::AuditRecord>& records);

class PermissionBroker {
 public:
  // `kernel` is the host machine; `host_pid` is the broker's own process on
  // it (root, full capabilities, host namespaces). The broker binds itself
  // to `channel`.
  PermissionBroker(witos::Kernel* kernel, witos::Pid host_pid, PolicyManager* policy,
                   RpcChannel* channel);

  witos::Pid host_pid() const { return host_pid_; }
  // The evidence chain the broker writes: its host kernel's audit log.
  witos::AuditLog& log() { return kernel_->audit(); }
  const witos::AuditLog& log() const { return kernel_->audit(); }

  // Binds a deployed session: every process in `cgroup` asks as `admin` on
  // `ticket_id` under `ticket_class`'s policy, denied every op from
  // `expires_ns` on (its certificate's deadline). EEXIST when the ticket or
  // the cgroup is already bound — a duplicate deploy must not silently
  // reclassify a live ticket; EINVAL for the root cgroup (host processes).
  witos::Status BindTicket(const std::string& ticket_id, const std::string& ticket_class,
                           const std::string& admin, witos::CgroupId cgroup,
                           uint64_t expires_ns);
  // Removes a binding made by BindTicket when its session ends; ESRCH when
  // the ticket is not bound.
  witos::Status UnbindTicket(const std::string& ticket_id);
  bool IsTicketBound(const std::string& ticket_id) const;
  // Live bindings right now; the deploy fault sweeps assert this returns to
  // zero once every ticket has expired or rolled back.
  size_t bound_ticket_count() const;

  // Extension point: ContainIT registers "mount_volume"; the cluster layer
  // registers "net_allow". The handler runs with the broker's host
  // privileges after the policy check passed. Set-up time only, before
  // traffic starts.
  using VerbHandler = std::function<RpcResponse(const RpcRequest&)>;
  void RegisterVerb(const std::string& verb, VerbHandler handler);

  // The broker's one entry point; the channel binds it, and tests may call
  // it directly with the calling process's host pid. An op is granted only
  // when that process is running and root in its own user namespace, its
  // cgroup is bound and before the binding's deadline, and the class policy
  // and rate budget admit the op.
  // Every op is one chained record under the caller's pid and uid, naming
  // the binding's admin, ticket and class (Table 1 threat semantics), in
  // one evidence-chain critical section. Responses are positional.
  RpcBatchResponse HandleBatch(witos::Pid caller, const RpcBatchRequest& batch);

  // Wires the broker into the observability layer: request and shadow
  // counters by verb and outcome, and a histogram of simulated nanoseconds
  // per granted dispatch.
  //
  // The verb series are resolved here for the built-in verbs and every
  // registered one (RegisterVerb resolves later ones), so a request takes
  // no registry lock. A method outside that vocabulary counts under
  // verb="unknown": a contained admin cannot mint series by sending
  // made-up verbs. The evidence record keeps the exact method. Per-ticket
  // totals are counted from the ticket's broker records in the evidence
  // chain (ForensicReporter), not kept in the registry, so no ticket id
  // names a series. Also attaches the evidence chain's "securelog" lock to
  // the profile.
  void EnableMetrics(witobs::MetricsRegistry* registry);

  // Shadow-policy accounting (witmine, DESIGN.md §17): how often the mined
  // shadow verb policy agreed with the enforcing one per request. The
  // comparison is against the pure policy verdict — rate-limit denials are
  // not divergences, and shadow evaluation never consumes rate budget.
  witobs::ShadowCounts shadow_stats() const { return shadow_tally_.Read(); }

 private:
  // One verb's pre-resolved series.
  struct VerbCounters {
    witobs::Counter* requests[2] = {};  // grant, deny
    witobs::Counter* shadow[3] = {};    // agree, would_block, would_allow
  };

  struct Binding {
    std::string ticket_class;
    std::string admin;
    witos::CgroupId cgroup = witos::kRootCgroup;
    uint64_t expires_ns = 0;
  };
  using BindingMap = std::map<std::string, Binding>;  // by ticket id
  // Who is asking: the caller's uid and its cgroup's binding (empty when
  // unbound); eligible when it is also running, root and before the deadline.
  struct Caller {
    witos::Uid uid = witos::kOverflowUid;
    bool eligible = false;
    std::string ticket_id;
    Binding binding;
  };

  RpcResponse Dispatch(const RpcRequest& request);
  RpcResponse Ok(std::string payload) const;
  RpcResponse Fail(witos::Err err) const;

  // Per-op accountability pieces of HandleBatch. BindingOf scans the live
  // bindings (bounded by live sessions) under tickets_mu_.
  Caller ResolveCaller(witos::Pid pid, uint64_t now_ns) const;
  BindingMap::const_iterator BindingOf(witos::CgroupId cgroup) const;
  void CountRequest(const RpcRequest& request, bool allowed);
  // Consults the shadow policy (if one covers the class) and accounts the
  // divergence from the enforcing verdict; never changes the outcome.
  void ShadowCheck(const RpcRequest& request, const std::string& ticket_class,
                   bool policy_allowed);
  // Resolves `verb`'s series in the wired registry.
  VerbCounters ResolveVerb(const std::string& verb) const;
  // The series a request for `verb` counts under: its own when known, else
  // the shared "unknown" ones. Only valid while metrics are on.
  const VerbCounters& CountersFor(const std::string& verb) const;

  RpcResponse HandlePs(const RpcRequest& request);
  RpcResponse HandleKill(const RpcRequest& request);
  RpcResponse HandleReadFile(const RpcRequest& request);
  RpcResponse HandleInstall(const RpcRequest& request);
  RpcResponse HandleRestartService(const RpcRequest& request);
  RpcResponse HandleReboot(const RpcRequest& request);
  RpcResponse HandleDriverUpdate(const RpcRequest& request);

  witos::Kernel* kernel_;
  witos::Pid host_pid_;
  PolicyManager* policy_;
  // Ticket id -> binding, live for the ticket's session only: deploy
  // workers bind and expiring ones unbind while request paths resolve.
  // Nothing persists it; a recovered broker starts with no bindings.
  mutable witobs::ProfiledMutex tickets_mu_{"broker.tickets"};
  BindingMap bindings_;
  std::map<std::string, VerbHandler> custom_verbs_;
  // Written only by EnableMetrics/RegisterVerb (set-up); read lock-free by
  // request paths.
  std::map<std::string, VerbCounters, std::less<>> verb_counters_;
  VerbCounters unknown_verb_;

  witobs::ShadowTally shadow_tally_;

  // Observability wiring (all null when metrics are disabled).
  witobs::MetricsRegistry* metrics_ = nullptr;
  witobs::Histogram* dispatch_latency_ = nullptr;
};

// The in-container client stub, sending as process `caller` (its session's
// shell): the broker takes identity from that process, not from the frame.
//
// Two calling styles, one wire format:
//  * Request(): one verb, sent at once as a batch of one.
//  * Begin()/Queue()/Flush(): pipelining — queued verbs ride a single
//    RpcBatchRequest frame, so a whole ticket's escalations pay one
//    serialization + one seal/MAC. Flush() yields positional per-op
//    Results; a transport failure fails every queued op (atomic batch).
class BrokerClient {
 public:
  BrokerClient(RpcChannel* channel, witos::Pid caller) : channel_(channel), caller_(caller) {}

  // Issues `PB <verb> <args...>`. On a broker denial or dispatch failure
  // the typed error code round-trips from the broker (EPERM for denials,
  // ENOSYS for unknown verbs, ...). Leaves an open Begin()/Queue()
  // pipeline untouched.
  witos::Result<std::string> Request(const std::string& verb,
                                     const std::vector<std::string>& args);

  // Opens a pipeline, discarding any ops an abandoned one left queued.
  void Begin();
  // Queues `PB <verb> <args...>`; returns the op's position — Flush()'s
  // result vector answers positionally.
  size_t Queue(const std::string& verb, const std::vector<std::string>& args);
  // Sends every queued op in one batch frame. Entry i answers Queue() i.
  // A transport error fails every entry alike. An empty pipeline flushes
  // to an empty vector with no crossing.
  std::vector<witos::Result<std::string>> Flush();

  size_t pending() const { return pending_.size(); }

 private:
  // The one send path: one batch frame, atomic transport failure,
  // positional results.
  std::vector<witos::Result<std::string>> Send(std::vector<RpcOp> ops);

  RpcChannel* channel_;
  witos::Pid caller_;
  std::vector<RpcOp> pending_;
};

}  // namespace witbroker

#endif  // SRC_BROKER_BROKER_H_
