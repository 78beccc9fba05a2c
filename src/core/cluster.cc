#include "src/core/cluster.h"

#include "src/core/deploy.h"
#include "src/core/ticket_class.h"
#include "src/workload/topology.h"

namespace watchit {

Cluster::Cluster() {
  ProvisionServices();
  RegisterAllImages(&images_);
}

void Cluster::ProvisionServices() {
  using witnet::Packet;
  auto echo_service = [](std::string tag) {
    return [tag](const Packet& packet) {
      return tag + ": ok (" + std::to_string(packet.payload.size()) + "B)";
    };
  };
  const struct {
    const witload::OrgEndpoint* ep;
    const char* tag;
  } kServices[] = {
      {&witload::kLicenseServer, "FLEXLM"},   {&witload::kSoftwareRepo, "REPO"},
      {&witload::kSharedStorage, "STORAGE"},  {&witload::kBatchServer, "LSF"},
      {&witload::kCloudManager, "CLOUD"},     {&witload::kDirectoryServer, "LDAP"},
      {&witload::kTargetMachine, "SSHD"},     {&witload::kEclipseMirror, "HTTPS"},
      {&witload::kEvilHost, "EXFIL-SINK"},
  };
  for (const auto& svc : kServices) {
    fabric_.AddEndpoint(svc.ep->name, svc.ep->addr);
    fabric_.AddService(svc.ep->addr, svc.ep->port, echo_service(svc.tag));
    dns_.AddRecord(svc.ep->name, svc.ep->addr);
  }
  // The organizational DNS zone, served from the directory server — name
  // resolution is subject to each container's network view like any other
  // traffic.
  fabric_.AddService(witload::kDirectoryServer.addr, witnet::kDnsPort, dns_.Handler());
}

Machine& Cluster::AddMachine(const std::string& name, witnet::Ipv4Addr addr) {
  machines_.push_back(std::make_unique<Machine>(name, addr, &fabric_));
  fabric_.AddEndpoint(name, addr);
  return *machines_.back();
}

Machine* Cluster::FindMachine(const std::string& name) {
  for (auto& machine : machines_) {
    if (machine->name() == name) {
      return machine.get();
    }
  }
  return nullptr;
}

Machine* Cluster::ReplaceMachine(const std::string& name) {
  for (auto& slot : machines_) {
    if (slot->name() == name) {
      witnet::Ipv4Addr addr = slot->addr();
      // The fabric endpoint registered at AddMachine survives the reboot —
      // only the machine's volatile state is rebuilt.
      slot = std::make_unique<Machine>(name, addr, &fabric_);
      return slot.get();
    }
  }
  return nullptr;
}

Cluster::AuditReport Cluster::VerifyAuditTrail() const {
  AuditReport report;
  for (const auto& machine : machines_) {
    const witos::AuditLog& log = machine->kernel().audit();
    ++report.machines;
    report.log_entries += log.size();
    report.epoch_roots += log.epoch_count();
    if (!log.Verify()) {
      ++report.failures;
    }
  }
  return report;
}

witos::Result<Deployment> ClusterManager::Deploy(const Ticket& ticket, uint64_t lifetime_ns) {
  // A failed stage leaves no bound ticket, no live session and no valid
  // certificate behind.
  return RunDeployStages(cluster_, ticket, lifetime_ns, /*gate=*/nullptr);
}

witos::Status ClusterManager::Expire(Deployment* deployment) {
  if (deployment == nullptr || deployment->machine == nullptr) {
    return witos::Err::kInval;
  }
  // Idempotence: the certificate serial is the transaction marker. A second
  // Expire on the same deployment is a typed error, not a double revoke.
  if (cluster_->ca().IsRevoked(deployment->certificate.serial)) {
    return witos::Err::kSrch;
  }
  // Terminate first, then revoke + unbind unconditionally, so a session
  // that already died (watchdog, crash) still loses its certificate and
  // broker binding; the caller sees the Terminate error (ESRCH) either way.
  witos::Status terminated =
      deployment->machine->containit().Terminate(deployment->session, "ticket expired");
  cluster_->ca().Revoke(deployment->certificate.serial);
  (void)deployment->machine->broker().UnbindTicket(deployment->certificate.ticket_id);
  return terminated;
}

}  // namespace watchit
