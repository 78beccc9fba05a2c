#include "src/net/socket.h"

#include <string_view>

namespace witnet {

namespace {

// Every IDS verdict's detail starts with this; nothing else NetStack writes
// does.
constexpr std::string_view kIdsVerdictPrefix = "sniffer ";

std::string HostPort(Ipv4Addr dst, uint16_t port) {
  return dst.ToString() + ":" + std::to_string(port);
}

}  // namespace

bool IsIdsVerdict(const witos::AuditRecord& record) {
  return (record.event == witos::AuditEvent::kNetworkBlocked ||
          record.event == witos::AuditEvent::kNetworkFlow) &&
         std::string_view(record.detail).substr(0, kIdsVerdictPrefix.size()) ==
             kIdsVerdictPrefix;
}

void NetStack::Audit(witos::AuditEvent event, witos::Pid pid, witos::Uid uid,
                     std::string detail) {
  if (audit_ != nullptr) {
    audit_->Append(event, pid, uid, std::move(detail),
                   clock_ != nullptr ? clock_->now_ns() : 0);
  }
}

witos::Result<ConnId> NetStack::Connect(witos::NsId ns, Ipv4Addr dst, uint16_t port,
                                        witos::Pid pid, witos::Uid uid) {
  NetNsPayload* payload = netns_.Find(ns);
  if (payload == nullptr) {
    return witos::Err::kNetUnreach;
  }
  if (!payload->HasRouteTo(dst)) {
    Audit(witos::AuditEvent::kNetworkBlocked, pid, uid, "no route to " + HostPort(dst, port));
    return witos::Err::kNetUnreach;
  }
  if (payload->firewall.Evaluate(FwDirection::kEgress, dst, port) == FwAction::kDrop) {
    Audit(witos::AuditEvent::kNetworkBlocked, pid, uid,
          "firewall drop " + HostPort(dst, port));
    return witos::Err::kHostUnreach;
  }
  const Endpoint* ep = fabric_->Find(dst);
  if (ep == nullptr) {
    Audit(witos::AuditEvent::kNetworkBlocked, pid, uid, "no such host " + HostPort(dst, port));
    return witos::Err::kHostUnreach;
  }
  if (ep->services.count(port) == 0) {
    Audit(witos::AuditEvent::kNetworkBlocked, pid, uid,
          "connection refused " + HostPort(dst, port));
    return witos::Err::kConnRefused;
  }
  Connection conn;
  conn.net_ns = ns;
  conn.src = payload->SourceAddrFor(dst).value_or(Ipv4Addr());
  conn.dst = dst;
  conn.port = port;
  conn.pid = pid;
  conn.uid = uid;
  ConnId id = next_conn_++;
  conns_.emplace(id, conn);
  Audit(witos::AuditEvent::kNetworkFlow, pid, uid, "connect " + HostPort(dst, port));
  return id;
}

witos::Result<std::string> NetStack::Send(ConnId conn_id, const std::string& payload) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) {
    return witos::Err::kNotConn;
  }
  const Connection& conn = it->second;
  Packet packet{conn.src, conn.dst, conn.port, payload};

  NetNsPayload* ns = netns_.Find(conn.net_ns);
  if (ns != nullptr && ns->sniffer != nullptr) {
    InspectionResult inspection = ns->sniffer->Inspect(packet);
    if (!inspection.fired_rules.empty()) {
      std::string rules;
      for (const auto& rule : inspection.fired_rules) {
        rules += rules.empty() ? rule : "," + rule;
      }
      const std::string verdict = std::string(kIdsVerdictPrefix) +
                                  (inspection.blocked ? "blocked " : "alert ") +
                                  std::to_string(payload.size()) + "B to ";
      if (inspection.blocked) {
        Audit(witos::AuditEvent::kNetworkBlocked, conn.pid, conn.uid,
              verdict + conn.dst.ToString() + " [" + rules + "]");
        return witos::Err::kTimedOut;
      }
      // Only alert rules fired: the packet goes through, on the record.
      Audit(witos::AuditEvent::kNetworkFlow, conn.pid, conn.uid,
            verdict + HostPort(conn.dst, conn.port) + " [" + rules + "]");
    }
  }
  const Endpoint* ep = fabric_->Find(conn.dst);
  if (ep == nullptr) {
    return witos::Err::kHostUnreach;
  }
  auto service = ep->services.find(conn.port);
  if (service == ep->services.end()) {
    return witos::Err::kConnRefused;
  }
  if (clock_ != nullptr) {
    // Model wire time: syscall + per-byte cost.
    clock_->Advance(clock_->costs().syscall_ns +
                    payload.size() * clock_->costs().fs_per_byte_tenth_ns / 10);
  }
  return service->second(packet);
}

witos::Status NetStack::Close(ConnId conn) {
  if (conns_.erase(conn) == 0) {
    return witos::Err::kNotConn;
  }
  return witos::Status::Ok();
}

witos::Result<std::string> NetStack::Request(witos::NsId ns, Ipv4Addr dst, uint16_t port,
                                             const std::string& payload, witos::Pid pid,
                                             witos::Uid uid) {
  WITOS_ASSIGN_OR_RETURN(ConnId conn, Connect(ns, dst, port, pid, uid));
  auto response = Send(conn, payload);
  (void)Close(conn);
  if (!response.ok()) {
    return response.error();
  }
  return *response;
}

}  // namespace witnet
