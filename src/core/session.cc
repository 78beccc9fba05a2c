#include "src/core/session.h"

#include "src/os/path.h"
#include "src/workload/topology.h"

namespace watchit {

namespace {

witload::BrokerCategory InferCategory(const witload::RequiredOp& op) {
  if (op.broker_category != witload::BrokerCategory::kNone) {
    return op.broker_category;
  }
  switch (op.kind) {
    case witload::OpKind::kListProcesses:
    case witload::OpKind::kKillProcess:
    case witload::OpKind::kRestartService:
    case witload::OpKind::kReboot:
      return witload::BrokerCategory::kProcessManagement;
    case witload::OpKind::kConnect:
    case witload::OpKind::kInstallPackage:
      return witload::BrokerCategory::kNetwork;
    default:
      return witload::BrokerCategory::kFilesystem;
  }
}

}  // namespace

AdminSession::AdminSession(Machine* machine, witcontain::SessionId session_id,
                           Certificate certificate, CertificateAuthority* ca)
    : machine_(machine),
      session_id_(session_id),
      certificate_(std::move(certificate)),
      ca_(ca),
      shell_(container() != nullptr ? container()->shell : witos::kNoPid),
      broker_client_(&machine->broker_channel(), shell_) {}

const witcontain::Session* AdminSession::container() const {
  return machine_->containit().FindSession(session_id_);
}

witos::Status AdminSession::Login() {
  const witcontain::Session* session = container();
  if (ca_ != nullptr) {
    // A valid certificate opens only the session it was issued for: this
    // machine, this ticket.
    CertStatus status = ca_->Validate(certificate_, machine_->kernel().clock().now_ns());
    std::string reason;
    if (status != CertStatus::kValid) {
      reason = CertStatusName(status);
    } else if (certificate_.machine != machine_->name()) {
      reason = "certificate issued for machine " + certificate_.machine;
    } else if (session != nullptr && certificate_.ticket_id != session->ticket_id) {
      reason = "certificate issued for ticket " + certificate_.ticket_id;
    }
    if (!reason.empty()) {
      machine_->kernel().audit().Append(witos::AuditEvent::kSessionEvent, shell_, 0,
                                        "login rejected: " + reason,
                                        machine_->kernel().clock().now_ns());
      return witos::Err::kPerm;
    }
  }
  if (session == nullptr) {
    return witos::Err::kSrch;
  }
  logged_in_ = true;
  return witos::Status::Ok();
}

witos::Status AdminSession::CheckCert() const {
  if (!logged_in_ || machine_->kernel().clock().now_ns() >= certificate_.expires_ns) {
    return witos::Err::kPerm;
  }
  if (container() == nullptr) {
    return witos::Err::kSrch;
  }
  return witos::Status::Ok();
}

witos::Result<std::string> AdminSession::Hostname() const {
  WITOS_RETURN_IF_ERROR(CheckCert());
  return machine_->kernel().GetHostname(shell_);
}

witos::Result<std::vector<witos::ProcessInfo>> AdminSession::Ps() const {
  WITOS_RETURN_IF_ERROR(CheckCert());
  return machine_->kernel().ListProcesses(shell_);
}

witos::Result<std::vector<witos::DirEntry>> AdminSession::ListDir(
    const std::string& path) const {
  WITOS_RETURN_IF_ERROR(CheckCert());
  return machine_->kernel().ReadDir(shell_, path);
}

witos::Result<std::string> AdminSession::ReadFile(const std::string& path) const {
  WITOS_RETURN_IF_ERROR(CheckCert());
  return machine_->kernel().ReadFile(shell_, path);
}

witos::Status AdminSession::WriteFile(const std::string& path, const std::string& data) const {
  WITOS_RETURN_IF_ERROR(CheckCert());
  return machine_->kernel().WriteFile(shell_, path, data);
}

witos::Status AdminSession::Kill(witos::Pid local_pid) const {
  WITOS_RETURN_IF_ERROR(CheckCert());
  return machine_->kernel().Kill(shell_, local_pid);
}

witos::Status AdminSession::RestartService(const std::string& name) const {
  WITOS_RETURN_IF_ERROR(CheckCert());
  const witcontain::Session* session = container();
  if (session == nullptr || !session->spec.process_mgmt) {
    // No control over host services without the process-management set.
    return witos::Err::kPerm;
  }
  machine_->kernel().audit().Append(witos::AuditEvent::kSessionEvent, shell_, 0,
                                    "restart_service " + name,
                                    machine_->kernel().clock().now_ns());
  return witos::Status::Ok();
}

witos::Status AdminSession::Reboot() const {
  WITOS_RETURN_IF_ERROR(CheckCert());
  return machine_->kernel().Reboot(shell_);
}

witos::NsId AdminSession::ShellNetNs() const {
  const witos::Process* proc = machine_->kernel().FindProcess(shell_);
  return proc == nullptr ? witos::kNoNs : proc->ns.Get(witos::NsType::kNet);
}

witos::Result<std::string> AdminSession::TryConnectInView(const std::string& endpoint,
                                                          uint16_t port) const {
  auto addr = witnet::Ipv4Addr::Parse(endpoint);
  if (!addr.has_value()) {
    const witload::OrgEndpoint* ep = witload::EndpointByName(endpoint);
    if (ep == nullptr) {
      return witos::Err::kHostUnreach;
    }
    addr = ep->addr;
    if (port == 0) {
      port = ep->port;
    }
  }
  return machine_->net().Request(ShellNetNs(), *addr, port, "hello", shell_, witos::kRootUid);
}

witos::Result<std::string> AdminSession::Connect(const std::string& endpoint,
                                                 uint16_t port) const {
  WITOS_RETURN_IF_ERROR(CheckCert());
  return TryConnectInView(endpoint, port);
}

witos::Status AdminSession::Chdir(const std::string& path) const {
  WITOS_RETURN_IF_ERROR(CheckCert());
  return machine_->kernel().Chdir(shell_, path);
}

witos::Result<std::string> AdminSession::Cwd() const {
  WITOS_RETURN_IF_ERROR(CheckCert());
  return machine_->kernel().GetCwd(shell_);
}

witos::Result<std::vector<witos::MountEntry>> AdminSession::Mounts() const {
  WITOS_RETURN_IF_ERROR(CheckCert());
  return machine_->kernel().MountTable(shell_);
}

witos::Result<std::string> AdminSession::Pb(const std::string& verb,
                                            const std::vector<std::string>& args) const {
  WITOS_RETURN_IF_ERROR(CheckCert());
  return broker_client_.Request(verb, args);
}

void AdminSession::AuditCommand(const std::string& command_line) const {
  machine_->kernel().audit().Append(witos::AuditEvent::kSessionEvent, shell_, 0,
                                    "cmd: " + command_line,
                                    machine_->kernel().clock().now_ns());
}

bool AdminSession::TryInView(const witload::RequiredOp& op, std::string* verb,
                             std::vector<std::string>* args) {
  witos::Kernel& kernel = machine_->kernel();

  switch (op.kind) {
    case witload::OpKind::kReadFile: {
      if (ReadFile(op.path).ok()) {
        return true;
      }
      *verb = witbroker::kVerbReadFile;
      *args = {op.path};
      return false;
    }
    case witload::OpKind::kWriteFile: {
      if (WriteFile(op.path, "watchit-fix\n").ok()) {
        return true;
      }
      // The paper's flow: ask the broker to map the directory into the
      // running container, then retry the write through the new mount.
      *verb = witbroker::kVerbMountVolume;
      *args = {witos::Dirname(op.path), witos::Dirname(op.path)};
      return false;
    }
    case witload::OpKind::kListDir: {
      if (ListDir(op.path).ok()) {
        return true;
      }
      *verb = witbroker::kVerbReadFile;
      *args = {op.path};
      return false;
    }
    case witload::OpKind::kConnect: {
      if (TryConnectInView(op.endpoint_name, op.port).ok()) {
        return true;
      }
      const witload::OrgEndpoint* ep = witload::EndpointByName(op.endpoint_name);
      std::string addr = ep != nullptr ? ep->addr.ToString() : op.endpoint_name;
      *verb = witbroker::kVerbNetAllow;
      *args = {addr, std::to_string(op.port)};
      return false;
    }
    case witload::OpKind::kListProcesses: {
      // The op needs the *host* process view: satisfied in view only when
      // the PID namespace is shared.
      const witos::Process* proc = kernel.FindProcess(shell_);
      bool host_view =
          proc != nullptr && proc->ns.Get(witos::NsType::kPid) ==
                                 kernel.namespaces().initial(witos::NsType::kPid);
      if (host_view && Ps().ok()) {
        return true;
      }
      *verb = witbroker::kVerbPs;
      args->clear();
      return false;
    }
    case witload::OpKind::kKillProcess: {
      // Spawn the runaway victim on the host, then try to kill it from
      // inside.
      auto victim = kernel.Clone(kernel.init_pid(), "runaway", 0);
      if (!victim.ok()) {
        // No victim, no escalation: verb stays empty.
        return false;
      }
      victims_.push_back(*victim);
      auto local = kernel.HostToLocalPid(shell_, *victim);
      if (local.ok() && Kill(*local).ok()) {
        return true;
      }
      *verb = witbroker::kVerbKill;
      *args = {std::to_string(*victim)};
      return false;
    }
    case witload::OpKind::kRestartService: {
      if (RestartService(op.service).ok()) {
        return true;
      }
      *verb = witbroker::kVerbRestartService;
      *args = {op.service};
      return false;
    }
    case witload::OpKind::kReboot: {
      if (Reboot().ok()) {
        return true;
      }
      *verb = witbroker::kVerbReboot;
      args->clear();
      return false;
    }
    case witload::OpKind::kInstallPackage: {
      bool net_ok = TryConnectInView(witload::kSoftwareRepo.name, 0).ok();
      bool fs_ok = net_ok && WriteFile("/usr/progs/" + op.service, "pkg\n").ok();
      if (net_ok && fs_ok) {
        return true;
      }
      *verb = witbroker::kVerbInstall;
      *args = {op.service};
      return false;
    }
    case witload::OpKind::kDriverUpdate: {
      // TCB change: never possible inside the container.
      *verb = witbroker::kVerbDriverUpdate;
      *args = {op.service};
      return false;
    }
  }
  return false;
}

bool AdminSession::CompleteAfterBroker(const witload::RequiredOp& op, bool granted) {
  if (!granted) {
    return false;
  }
  switch (op.kind) {
    case witload::OpKind::kWriteFile:
      // The grant widened the mount table; the write itself still happens
      // inside the container through the new volume.
      return WriteFile(op.path, "watchit-fix\n").ok();
    case witload::OpKind::kConnect:
      // net_allow punched the hole; retry the connect through it.
      return TryConnectInView(op.endpoint_name, op.port).ok();
    default:
      return true;
  }
}

void AdminSession::ReapVictims() {
  witos::Kernel& kernel = machine_->kernel();
  for (witos::Pid victim : victims_) {
    if (kernel.ProcessAlive(victim)) {
      (void)kernel.Exit(victim, -9);  // the op's kill was refused
    }
    (void)kernel.Reap(victim);
  }
  victims_.clear();
}

OpReplayResult AdminSession::Replay(const witload::RequiredOp& op) {
  return ReplayTicket({op}).front();
}

std::vector<OpReplayResult> AdminSession::ReplayTicket(
    const std::vector<witload::RequiredOp>& ops) {
  std::vector<OpReplayResult> results;
  results.reserve(ops.size());

  // Index pairs tying each queued escalation back to its result slot.
  struct PendingOp {
    size_t result_index;
    size_t queue_index;
  };
  std::vector<PendingOp> pending;

  const bool broker_usable = CheckCert().ok();
  if (broker_usable) {
    broker_client_.Begin();
  }

  // Phase 1: probe every op in view, queueing escalations on the pipeline.
  for (const witload::RequiredOp& op : ops) {
    OpReplayResult result;
    result.op = op;
    std::string verb;
    std::vector<std::string> args;
    if (TryInView(op, &verb, &args)) {
      result.in_view = true;
    } else if (!verb.empty()) {
      result.used_broker = true;
      result.category = InferCategory(op);
      if (broker_usable) {
        pending.push_back({results.size(), broker_client_.Queue(verb, args)});
      }
    }
    results.push_back(std::move(result));
  }

  // Phase 2: the ticket's single wire crossing, then post-grant retries.
  if (broker_usable) {
    std::vector<witos::Result<std::string>> grants = broker_client_.Flush();
    for (const PendingOp& p : pending) {
      bool granted = p.queue_index < grants.size() && grants[p.queue_index].ok();
      results[p.result_index].broker_ok =
          CompleteAfterBroker(results[p.result_index].op, granted);
    }
  }
  ReapVictims();
  return results;
}

}  // namespace watchit
