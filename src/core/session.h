// AdminSession: the IT specialist's shell inside a deployed perforated
// container. Commands run as the container's root through the simulated
// kernel; "PB"-prefixed commands go to the permission broker (Figure 6).
//
// ReplayTicket() is the case-study and serving workhorse: it attempts each
// RequiredOp inside the container view first and falls back to the
// permission broker when the view is too narrow, recording which Table 4
// column the fallback lands in.

#ifndef SRC_CORE_SESSION_H_
#define SRC_CORE_SESSION_H_

#include <string>
#include <vector>

#include "src/broker/broker.h"
#include "src/core/certificate.h"
#include "src/core/machine.h"
#include "src/workload/ops.h"

namespace watchit {

struct OpReplayResult {
  witload::RequiredOp op;
  bool in_view = false;      // succeeded inside the container
  bool used_broker = false;  // required a PB request
  bool broker_ok = false;
  witload::BrokerCategory category = witload::BrokerCategory::kNone;
};

class AdminSession {
 public:
  // `ca` may be null to skip Login's validation (claims no CA issued).
  AdminSession(Machine* machine, witcontain::SessionId session_id, Certificate certificate,
               CertificateAuthority* ca);

  // The session's one CA call: the CA must hold the certificate, unexpired,
  // for this machine and ticket. Later ops check only its deadline against
  // the machine clock and that the container is live.
  witos::Status Login();

  witos::Pid shell() const { return shell_; }
  // The container while it is live; null once it has been terminated.
  const witcontain::Session* container() const;

  // --- In-container commands -------------------------------------------------
  witos::Result<std::string> Hostname() const;
  witos::Result<std::vector<witos::ProcessInfo>> Ps() const;
  witos::Result<std::vector<witos::DirEntry>> ListDir(const std::string& path) const;
  witos::Result<std::string> ReadFile(const std::string& path) const;
  witos::Status WriteFile(const std::string& path, const std::string& data) const;
  witos::Status Kill(witos::Pid local_pid) const;
  witos::Status RestartService(const std::string& name) const;
  witos::Status Reboot() const;
  // Connects to a symbolic endpoint ("license-server") or dotted address.
  witos::Result<std::string> Connect(const std::string& endpoint, uint16_t port) const;
  witos::Status Chdir(const std::string& path) const;
  witos::Result<std::string> Cwd() const;
  witos::Result<std::vector<witos::MountEntry>> Mounts() const;

  // --- Permission broker ("PB <verb> ...") -----------------------------------
  witos::Result<std::string> Pb(const std::string& verb,
                                const std::vector<std::string>& args) const;

  // --- Case-study replay ------------------------------------------------------
  // Attempts every op in view first, queues every broker escalation on the
  // client pipeline, and flushes the whole ticket's escalations as ONE wire
  // crossing; ops that re-enter the view after a grant (writes behind
  // mount_volume, connects behind net_allow) retry after the flush. Results
  // are positional with `ops`.
  std::vector<OpReplayResult> ReplayTicket(const std::vector<witload::RequiredOp>& ops);
  // One op: ReplayTicket({op}).front(), for per-op callers (case study,
  // script runner).
  OpReplayResult Replay(const witload::RequiredOp& op);

  // Session monitoring (principle 3 of §1: "optionally monitoring the
  // allowed operations executed inside the perforated container"): records
  // a command the admin typed into the kernel audit trail.
  void AuditCommand(const std::string& command_line) const;

 private:
  witos::Status CheckCert() const;
  witos::NsId ShellNetNs() const;
  witos::Result<std::string> TryConnectInView(const std::string& endpoint, uint16_t port) const;

  // One op's pre-broker attempt: true if it succeeded inside the container
  // view; otherwise *verb/*args name the broker escalation (verb stays
  // empty when no escalation applies, e.g. a failed victim spawn).
  bool TryInView(const witload::RequiredOp& op, std::string* verb,
                 std::vector<std::string>* args);
  // Post-grant completion for ops that re-enter the widened view; returns
  // the op's final broker_ok given whether the broker granted it.
  bool CompleteAfterBroker(const witload::RequiredOp& op, bool granted);
  // Kills any kill-op victim still running once its op is decided, and
  // reaps every one.
  void ReapVictims();

  Machine* machine_;
  witcontain::SessionId session_id_;
  Certificate certificate_;
  CertificateAuthority* ca_;
  witos::Pid shell_;  // kNoPid when the session is not live
  mutable witbroker::BrokerClient broker_client_;  // a stub: sending changes no session state
  bool logged_in_ = false;
  // The runaway processes TryInView spawned for the op(s) in progress.
  std::vector<witos::Pid> victims_;
};

}  // namespace watchit

#endif  // SRC_CORE_SESSION_H_
