// Cluster: the organizational fabric (shared Network with all the services
// of the topology) plus its machines, and the cluster manager that deploys
// perforated-container images onto target machines (paper Figure 3).

#ifndef SRC_CORE_CLUSTER_H_
#define SRC_CORE_CLUSTER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/container/image_repo.h"
#include "src/core/certificate.h"
#include "src/core/machine.h"
#include "src/core/ticket.h"
#include "src/net/dns.h"
#include "src/net/network.h"

namespace watchit {

class Cluster {
 public:
  // Builds the fabric with all organizational services responding.
  Cluster();

  Machine& AddMachine(const std::string& name, witnet::Ipv4Addr addr);
  Machine* FindMachine(const std::string& name);
  witnet::Network& fabric() { return fabric_; }
  witcontain::ImageRepository& images() { return images_; }
  CertificateAuthority& ca() { return ca_; }
  // The organizational DNS zone, served from the directory server.
  witnet::DnsService& dns() { return dns_; }
  size_t size() const { return machines_.size(); }
  Machine& machine(size_t index) { return *machines_[index]; }

  // Reboots `name` in place: the old Machine (kernel, broker, sessions,
  // evidence chain — the crashed shard's volatile state) is destroyed and a
  // fresh one takes its slot, same name and address. For quiesced recovery
  // only: any Machine* held elsewhere (server-pool shards, deployments)
  // dangles afterwards. Null for an unknown name.
  Machine* ReplaceMachine(const std::string& name);

  // Cluster-wide audit sweep (DESIGN.md §14): verifies every machine's
  // evidence chain — its hash links and each sealed epoch root. `failures`
  // counts machines whose chain did not verify. The serving bench and the
  // crash harness's post-recovery audit both land here.
  struct AuditReport {
    size_t machines = 0;
    size_t log_entries = 0;
    size_t epoch_roots = 0;
    size_t failures = 0;
  };
  AuditReport VerifyAuditTrail() const;

 private:
  void ProvisionServices();

  witnet::Network fabric_;
  witnet::DnsService dns_;
  std::vector<std::unique_ptr<Machine>> machines_;
  witcontain::ImageRepository images_;
  CertificateAuthority ca_;
};

// A deployed ticket: the container session plus the admin's certificate.
struct Deployment {
  witcontain::SessionId session = 0;
  Machine* machine = nullptr;
  Certificate certificate;
};

// The cluster manager: looks up the class image, deploys it on the target
// machine, issues the login certificate, and binds the session at the
// broker until the certificate's deadline.
class ClusterManager {
 public:
  explicit ClusterManager(Cluster* cluster) : cluster_(cluster) {}

  // Default certificate lifetime: 4 simulated hours.
  static constexpr uint64_t kDefaultLifetimeNs = 4ull * 3600 * 1000000000ull;

  // RunDeployStages with no gate. The transaction takes the target
  // machine's lock for each stage, so the caller must not hold it.
  witos::Result<Deployment> Deploy(const Ticket& ticket, uint64_t lifetime_ns = kDefaultLifetimeNs);

  // Tears the session down and revokes the certificate ("revoked once the
  // ticket time expires"). The caller holds the deployment's machine lock,
  // as the serving pool's Finish does, unless no other thread uses the
  // machine.
  witos::Status Expire(Deployment* deployment);

 private:
  Cluster* cluster_;
};

}  // namespace watchit

#endif  // SRC_CORE_CLUSTER_H_
