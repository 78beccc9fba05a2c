#include "src/broker/broker.h"

#include <algorithm>
#include <charconv>
#include <iterator>
#include <string_view>

namespace witbroker {

namespace {

witos::Pid ParsePidArg(const std::string& arg) {
  witos::Pid pid = witos::kNoPid;
  auto [ptr, ec] = std::from_chars(arg.data(), arg.data() + arg.size(), pid);
  if (ec != std::errc() || ptr != arg.data() + arg.size()) {
    return witos::kNoPid;
  }
  return pid;
}

// The endpoint a request names, for policy endpoint scoping: net_allow
// carries it (name or address) as its first argument. Other verbs have no
// endpoint and are never endpoint-scoped.
const std::string& EndpointOf(const RpcRequest& request) {
  static const std::string kNone;
  if (request.method == kVerbNetAllow && !request.args.empty()) {
    return request.args[0];
  }
  return kNone;
}

// A byte the broker record codec writes as %XX: the line's separators, the
// escape itself, and control bytes.
bool NeedsEscape(unsigned char c) {
  return c == ' ' || c == '[' || c == ']' || c == '%' || c < 0x20 || c == 0x7f;
}

// Appends `field` escaped. An empty field is a lone '%' where it stands as
// its own token (`mark_empty`); the bracketed class needs no mark.
void AppendField(std::string* out, std::string_view field, bool mark_empty) {
  static constexpr char kHex[] = "0123456789ABCDEF";
  if (field.empty() && mark_empty) {
    *out += '%';
    return;
  }
  for (char ch : field) {
    const auto c = static_cast<unsigned char>(ch);
    if (NeedsEscape(c)) {
      *out += '%';
      *out += kHex[c >> 4];
      *out += kHex[c & 0xf];
    } else {
      *out += ch;
    }
  }
}

// Inverse of AppendField, lenient: a lone '%' is empty, and a '%' not
// followed by two hex digits fails. DecodeBrokerRecord's re-encode check
// rejects every other spelling the encoder does not produce.
std::optional<std::string> UnescapeField(std::string_view token) {
  std::string out;
  if (token == "%") {
    return out;
  }
  for (size_t i = 0; i < token.size(); ++i) {
    unsigned value = static_cast<unsigned char>(token[i]);
    if (token[i] == '%') {
      const char* hex = token.data() + i + 1;
      auto [end, ec] = std::from_chars(hex, hex + std::min<size_t>(2, token.size() - i - 1), value,
                                       16);
      if (ec != std::errc() || end != hex + 2) {
        return std::nullopt;
      }
      i += 2;
    }
    out += static_cast<char>(value);
  }
  return out;
}

}  // namespace

std::string EncodeBrokerDetail(const RpcRequest& request, const std::string& ticket_class,
                               bool granted) {
  std::string detail = granted ? "GRANT " : "DENY ";
  AppendField(&detail, request.admin, /*mark_empty=*/true);
  detail += ' ';
  AppendField(&detail, request.ticket_id, /*mark_empty=*/true);
  detail += " [";
  AppendField(&detail, ticket_class, /*mark_empty=*/false);
  detail += "] ";
  AppendField(&detail, request.method, /*mark_empty=*/true);
  for (const std::string& arg : request.args) {
    detail += ' ';
    AppendField(&detail, arg, /*mark_empty=*/true);
  }
  return detail;
}

std::optional<BrokerEvent> DecodeBrokerRecord(const witos::AuditRecord& record) {
  const bool granted = record.event == witos::AuditEvent::kBrokerRequest;
  if (!granted && record.event != witos::AuditEvent::kBrokerDenied) {
    return std::nullopt;
  }
  // GRANT|DENY admin ticket [class] verb args..., one field per token; the
  // class sheds its brackets before it is unescaped.
  std::vector<std::string> fields;
  std::string_view rest = record.detail;
  while (true) {
    const size_t space = rest.find(' ');
    std::string_view token = rest.substr(0, space);
    if (fields.size() == 3) {
      if (token.size() < 2 || token.front() != '[' || token.back() != ']') {
        return std::nullopt;
      }
      token = token.substr(1, token.size() - 2);
    }
    std::optional<std::string> field = UnescapeField(token);
    if (!field) {
      return std::nullopt;
    }
    fields.push_back(std::move(*field));
    if (space == std::string_view::npos) {
      break;
    }
    rest.remove_prefix(space + 1);
  }
  if (fields.size() < 5 || fields[0] != (granted ? "GRANT" : "DENY")) {
    return std::nullopt;
  }
  RpcRequest request;
  request.admin = std::move(fields[1]);
  request.ticket_id = std::move(fields[2]);
  request.method = std::move(fields[4]);
  request.args.assign(std::make_move_iterator(fields.begin() + 5),
                      std::make_move_iterator(fields.end()));
  if (EncodeBrokerDetail(request, fields[3], granted) != record.detail) {
    return std::nullopt;  // not a spelling the encoder produces
  }
  BrokerEvent event;
  event.time_ns = record.time_ns;
  event.admin = std::move(request.admin);
  event.ticket_id = std::move(request.ticket_id);
  event.ticket_class = std::move(fields[3]);
  event.verb = std::move(request.method);
  event.args = std::move(request.args);
  event.granted = granted;
  return event;
}

std::vector<BrokerEvent> BrokerEventsOf(const std::vector<witos::AuditRecord>& records) {
  std::vector<BrokerEvent> events;
  for (const witos::AuditRecord& record : records) {
    if (std::optional<BrokerEvent> event = DecodeBrokerRecord(record)) {
      events.push_back(std::move(*event));
    }
  }
  return events;
}

PermissionBroker::PermissionBroker(witos::Kernel* kernel, witos::Pid host_pid,
                                   PolicyManager* policy, RpcChannel* channel)
    : kernel_(kernel), host_pid_(host_pid), policy_(policy) {
  channel->BindBatch([this](witos::Pid caller, const RpcBatchRequest& batch) {
    return HandleBatch(caller, batch);
  });
}

witos::Status PermissionBroker::BindTicket(const std::string& ticket_id,
                                           const std::string& ticket_class,
                                           const std::string& admin, witos::CgroupId cgroup,
                                           uint64_t expires_ns) {
  if (cgroup == witos::kRootCgroup) {
    return witos::Err::kInval;
  }
  std::lock_guard<witobs::ProfiledMutex> lock(tickets_mu_);
  if (BindingOf(cgroup) != bindings_.end() ||
      !bindings_.try_emplace(ticket_id, ticket_class, admin, cgroup, expires_ns).second) {
    return witos::Err::kExist;
  }
  return witos::Status::Ok();
}

witos::Status PermissionBroker::UnbindTicket(const std::string& ticket_id) {
  std::lock_guard<witobs::ProfiledMutex> lock(tickets_mu_);
  if (bindings_.erase(ticket_id) == 0) {
    return witos::Err::kSrch;
  }
  return witos::Status::Ok();
}

bool PermissionBroker::IsTicketBound(const std::string& ticket_id) const {
  std::lock_guard<witobs::ProfiledMutex> lock(tickets_mu_);
  return bindings_.count(ticket_id) > 0;
}

size_t PermissionBroker::bound_ticket_count() const {
  std::lock_guard<witobs::ProfiledMutex> lock(tickets_mu_);
  return bindings_.size();
}

void PermissionBroker::RegisterVerb(const std::string& verb, VerbHandler handler) {
  custom_verbs_[verb] = std::move(handler);
  if (metrics_ != nullptr) {
    verb_counters_[verb] = ResolveVerb(verb);
  }
}

PermissionBroker::VerbCounters PermissionBroker::ResolveVerb(const std::string& verb) const {
  VerbCounters counters;
  const char* requests[2] = {"grant", "deny"};
  const char* shadow[3] = {"agree", "would_block", "would_allow"};
  for (size_t i = 0; i < 2; ++i) {
    counters.requests[i] = metrics_->GetCounter("watchit_broker_requests_total",
                                                {{"verb", verb}, {"outcome", requests[i]}});
  }
  for (size_t i = 0; i < 3; ++i) {
    counters.shadow[i] = metrics_->GetCounter("watchit_broker_shadow_total",
                                              {{"verb", verb}, {"outcome", shadow[i]}});
  }
  return counters;
}

const PermissionBroker::VerbCounters& PermissionBroker::CountersFor(
    const std::string& verb) const {
  auto it = verb_counters_.find(verb);
  return it != verb_counters_.end() ? it->second : unknown_verb_;
}

void PermissionBroker::EnableMetrics(witobs::MetricsRegistry* registry) {
  metrics_ = registry;
  if (registry == nullptr) {
    return;
  }
  registry->SetHelp("watchit_broker_requests_total",
                    "Permission broker requests by verb and grant outcome");
  registry->SetHelp("watchit_broker_dispatch_latency_ns",
                    "Simulated latency of granted broker verb dispatch");
  registry->SetHelp("watchit_broker_shadow_total",
                    "Shadow verb-policy evaluations by verb and outcome vs the enforcing policy");
  dispatch_latency_ = registry->GetHistogram("watchit_broker_dispatch_latency_ns");
  for (const char* verb : {kVerbPs, kVerbKill, kVerbReadFile, kVerbInstall, kVerbRestartService,
                           kVerbReboot, kVerbMountVolume, kVerbNetAllow, kVerbDriverUpdate}) {
    verb_counters_[verb] = ResolveVerb(verb);
  }
  for (const auto& [verb, handler] : custom_verbs_) {
    verb_counters_[verb] = ResolveVerb(verb);
  }
  unknown_verb_ = ResolveVerb("unknown");
  tickets_mu_.EnableMetrics(registry);
  kernel_->audit().EnableLockMetrics(registry);
}

RpcResponse PermissionBroker::Ok(std::string payload) const {
  RpcResponse resp;
  resp.ok = true;
  resp.payload = std::move(payload);
  return resp;
}

RpcResponse PermissionBroker::Fail(witos::Err err) const {
  RpcResponse resp;
  resp.ok = false;
  resp.err = err;
  return resp;
}

PermissionBroker::Caller PermissionBroker::ResolveCaller(witos::Pid pid, uint64_t now_ns) const {
  Caller caller;
  std::lock_guard<witobs::ProfiledMutex> lock(tickets_mu_);
  const witos::Process* proc = kernel_->FindProcess(pid);
  if (proc == nullptr) {
    return caller;
  }
  caller.uid = proc->cred.uid;
  auto it = BindingOf(proc->cgroup);
  if (it != bindings_.end()) {
    caller.eligible = proc->state == witos::ProcState::kRunning &&
                      proc->cred.uid == witos::kRootUid && now_ns < it->second.expires_ns;
    caller.ticket_id = it->first;
    caller.binding = it->second;
  }
  return caller;
}

PermissionBroker::BindingMap::const_iterator PermissionBroker::BindingOf(
    witos::CgroupId cgroup) const {
  return std::find_if(bindings_.begin(), bindings_.end(),
                      [cgroup](const auto& entry) { return entry.second.cgroup == cgroup; });
}

void PermissionBroker::CountRequest(const RpcRequest& request, bool allowed) {
  if (metrics_ != nullptr) {
    CountersFor(request.method).requests[allowed ? 0 : 1]->Increment();
  }
}

void PermissionBroker::ShadowCheck(const RpcRequest& request, const std::string& ticket_class,
                                   bool policy_allowed) {
  std::optional<bool> mirror =
      policy_->ShadowAllows(ticket_class, request.method, request.admin, EndpointOf(request));
  if (!mirror.has_value()) {
    return;
  }
  const size_t outcome = shadow_tally_.Count(policy_allowed, *mirror);
  if (metrics_ != nullptr) {
    CountersFor(request.method).shadow[outcome]->Increment();
  }
}

RpcBatchResponse PermissionBroker::HandleBatch(witos::Pid caller, const RpcBatchRequest& batch) {
  uint64_t now = kernel_->clock().now_ns();
  // Who is asking, once per batch, from the kernel's view of the caller.
  const Caller who = ResolveCaller(caller, now);
  const std::string& ticket_class = who.binding.ticket_class;

  RpcBatchResponse response;
  response.responses.resize(batch.ops.size());
  std::vector<RpcRequest> requests;
  requests.reserve(batch.ops.size());
  std::vector<bool> allowed(batch.ops.size(), false);
  std::vector<witos::AuditRecord> records(batch.ops.size());

  // Per-op accountability first (Table 1: every request, granted or denied,
  // leaves its own record): policy decisions and evidence records are
  // computed per op...
  for (size_t i = 0; i < batch.ops.size(); ++i) {
    const RpcRequest& request = requests.emplace_back(
        RpcRequest{batch.ops[i].method, batch.ops[i].args, who.ticket_id, who.binding.admin});
    bool policy_allowed = who.eligible && policy_->IsAllowed(ticket_class, request.method,
                                                             request.admin, EndpointOf(request));
    allowed[i] = policy_allowed && policy_->AdmitRate(ticket_class, request.admin, now);
    if (who.eligible) {
      ShadowCheck(request, ticket_class, policy_allowed);
    }
    CountRequest(request, allowed[i]);
    records[i].event =
        allowed[i] ? witos::AuditEvent::kBrokerRequest : witos::AuditEvent::kBrokerDenied;
    records[i].pid = caller;
    records[i].uid = who.uid;
    records[i].detail = EncodeBrokerDetail(request, ticket_class, allowed[i]);
  }
  // ...but the chain is entered once: a single critical section chains
  // every per-op record. ("Either way, these requests are logged in
  // real-time to a secure append-only storage device.")
  kernel_->audit().AppendBatch(std::move(records), now);

  // Dispatch the granted ops (denied ones answer EPERM positionally), one
  // latency sample per granted dispatch.
  for (size_t i = 0; i < batch.ops.size(); ++i) {
    if (!allowed[i]) {
      response.responses[i] = Fail(witos::Err::kPerm);
      continue;
    }
    uint64_t dispatch_start = kernel_->clock().now_ns();
    response.responses[i] = Dispatch(requests[i]);
    if (dispatch_latency_ != nullptr) {
      dispatch_latency_->Observe(kernel_->clock().now_ns() - dispatch_start);
    }
  }
  return response;
}

RpcResponse PermissionBroker::Dispatch(const RpcRequest& request) {
  auto custom = custom_verbs_.find(request.method);
  if (custom != custom_verbs_.end()) {
    return custom->second(request);
  }
  if (request.method == kVerbPs) {
    return HandlePs(request);
  }
  if (request.method == kVerbKill) {
    return HandleKill(request);
  }
  if (request.method == kVerbReadFile) {
    return HandleReadFile(request);
  }
  if (request.method == kVerbInstall) {
    return HandleInstall(request);
  }
  if (request.method == kVerbRestartService) {
    return HandleRestartService(request);
  }
  if (request.method == kVerbReboot) {
    return HandleReboot(request);
  }
  if (request.method == kVerbDriverUpdate) {
    return HandleDriverUpdate(request);
  }
  return Fail(witos::Err::kNoSys);
}

RpcResponse PermissionBroker::HandlePs(const RpcRequest& /*request*/) {
  auto procs = kernel_->ListProcesses(host_pid_);
  if (!procs.ok()) {
    return Fail(procs.error());
  }
  std::string out = "PID\tUID\tCMD\n";
  for (const auto& info : *procs) {
    out += std::to_string(info.pid) + "\t" + std::to_string(info.uid) + "\t" + info.name +
           (info.state == witos::ProcState::kZombie ? " <defunct>" : "") + "\n";
  }
  return Ok(out);
}

RpcResponse PermissionBroker::HandleKill(const RpcRequest& request) {
  if (request.args.empty()) {
    return Fail(witos::Err::kInval);
  }
  witos::Pid target = ParsePidArg(request.args[0]);
  if (target == witos::kNoPid) {
    return Fail(witos::Err::kInval);
  }
  witos::Status status = kernel_->Kill(host_pid_, target);
  if (!status.ok()) {
    return Fail(status.error());
  }
  return Ok("killed " + request.args[0]);
}

RpcResponse PermissionBroker::HandleReadFile(const RpcRequest& request) {
  if (request.args.empty()) {
    return Fail(witos::Err::kInval);
  }
  auto content = kernel_->ReadFile(host_pid_, request.args[0]);
  if (!content.ok()) {
    return Fail(content.error());
  }
  return Ok(*content);
}

RpcResponse PermissionBroker::HandleInstall(const RpcRequest& request) {
  // The package is one path component: no name leaves /usr/progs.
  const std::string package = request.args.empty() ? std::string() : request.args[0];
  if (package.empty() || package == "." || package == ".." ||
      package.find('/') != std::string::npos) {
    return Fail(witos::Err::kInval);
  }
  witos::Status status = kernel_->WriteFile(host_pid_, "/usr/progs/" + package,
                                            "installed " + package + "\n");
  if (!status.ok()) {
    return Fail(status.error());
  }
  return Ok("installed " + package);
}

RpcResponse PermissionBroker::HandleRestartService(const RpcRequest& request) {
  if (request.args.empty()) {
    return Fail(witos::Err::kInval);
  }
  kernel_->audit().Append(witos::AuditEvent::kSessionEvent, host_pid_, witos::kRootUid,
                          "restart_service " + request.args[0], kernel_->clock().now_ns());
  return Ok("restarted " + request.args[0]);
}

RpcResponse PermissionBroker::HandleReboot(const RpcRequest& /*request*/) {
  witos::Status status = kernel_->Reboot(host_pid_);
  if (!status.ok()) {
    return Fail(status.error());
  }
  return Ok("rebooting");
}

RpcResponse PermissionBroker::HandleDriverUpdate(const RpcRequest& request) {
  if (request.args.empty()) {
    return Fail(witos::Err::kInval);
  }
  // Driver updates change the TCB; the kernel routes the module write
  // through the TCB guard, which requires the organizational policy
  // system's signature (modelled by the guard's allow-list).
  witos::Status status = kernel_->LoadModule(host_pid_, request.args[0]);
  if (!status.ok()) {
    return Fail(status.error());
  }
  return Ok("driver " + request.args[0] + " loaded");
}

namespace {

// A failed response must carry a typed code; a peer claiming failure
// without one (a hand-rolled or corrupted frame) degrades to EPERM so
// !ok can never turn into a success at the caller.
witos::Err ResponseError(const RpcResponse& response) {
  return response.err == witos::Err::kOk ? witos::Err::kPerm : response.err;
}

}  // namespace

witos::Result<std::string> BrokerClient::Request(const std::string& verb,
                                                 const std::vector<std::string>& args) {
  return std::move(Send({{verb, args}}).front());
}

void BrokerClient::Begin() { pending_.clear(); }

size_t BrokerClient::Queue(const std::string& verb, const std::vector<std::string>& args) {
  RpcOp op;
  op.method = verb;
  op.args = args;
  pending_.push_back(std::move(op));
  return pending_.size() - 1;
}

std::vector<witos::Result<std::string>> BrokerClient::Flush() {
  std::vector<RpcOp> ops = std::move(pending_);
  pending_.clear();
  if (ops.empty()) {
    return {};
  }
  return Send(std::move(ops));
}

std::vector<witos::Result<std::string>> BrokerClient::Send(std::vector<RpcOp> ops) {
  RpcBatchRequest batch;
  batch.ops = std::move(ops);
  witos::Result<RpcBatchResponse> response = channel_->CallBatch(caller_, batch);
  if (!response.ok()) {
    // Atomic failure: the batch frame never produced sub-responses, so
    // every op reports the transport error and none executed.
    return std::vector<witos::Result<std::string>>(batch.ops.size(), response.error());
  }
  std::vector<witos::Result<std::string>> results;
  results.reserve(batch.ops.size());
  for (size_t i = 0; i < batch.ops.size(); ++i) {
    if (i >= response->responses.size()) {
      results.push_back(witos::Err::kIo);  // short positional answer: protocol bug
    } else if (!response->responses[i].ok) {
      results.push_back(ResponseError(response->responses[i]));
    } else {
      results.push_back(response->responses[i].payload);
    }
  }
  return results;
}

}  // namespace witbroker
