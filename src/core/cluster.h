// Cluster: the organizational fabric (shared Network with all the services
// of the topology) plus its machines, and the cluster manager that deploys
// perforated-container images onto target machines (paper Figure 3).

#ifndef SRC_CORE_CLUSTER_H_
#define SRC_CORE_CLUSTER_H_

#include <functional>
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

enum class DeployStage;  // src/core/deploy.h

// One deploy-transaction transition, reported by RunDeployStages through
// the cluster (witjournal, DESIGN.md §15): Begin when the target machine is
// resolved, Stage after each stage gate settles, then exactly one of Commit
// or Rollback. A durability layer journals these so a crash-time recovery
// can tell committed deployments from transactions that died mid-flight —
// without the deploy path depending on the journal.
struct DeployTxnEvent {
  enum class Kind { kBegin, kStage, kCommit, kRollback };
  Kind kind = Kind::kBegin;
  std::string ticket_id;
  std::string machine;
  std::string ticket_class;
  std::string admin;
  DeployStage stage{};  // kStage: the stage that settled; kRollback: the failed stage
  witos::Err err = witos::Err::kOk;
  uint64_t cert_serial = 0;  // kCommit only
  uint64_t session = 0;      // kCommit only
  uint64_t time_ns = 0;      // machine sim-clock; 0 where no clock is safe to read
};

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

  // Deploy-transaction observer; called from every RunDeployStages (any
  // deploying thread), so the listener must be thread-safe. Set while no
  // deploys are in flight.
  using DeployTxnListener = std::function<void(const DeployTxnEvent& event)>;
  void set_deploy_listener(DeployTxnListener listener) { deploy_listener_ = std::move(listener); }
  void NotifyDeployTxn(const DeployTxnEvent& event) const {
    if (deploy_listener_) {
      deploy_listener_(event);
    }
  }

  // Cluster-wide audit sweep (DESIGN.md §14): verifies every machine's
  // evidence chain — its hash links and each sealed epoch root. `failures`
  // counts machines whose chain did not verify. ServerPool::VerifyAuditTrail and the crash
  // harness's post-recovery audit both land here.
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
  DeployTxnListener deploy_listener_;
};

// A deployed ticket: the container session plus the admin's certificate.
struct Deployment {
  witcontain::SessionId session = 0;
  Machine* machine = nullptr;
  Certificate certificate;
  std::string ticket_class;
};

// The cluster manager: looks up the class image, deploys it on the target
// machine, binds the ticket at the broker, and issues the login certificate.
class ClusterManager {
 public:
  explicit ClusterManager(Cluster* cluster) : cluster_(cluster) {}

  // Default certificate lifetime: 4 simulated hours.
  static constexpr uint64_t kDefaultLifetimeNs = 4ull * 3600 * 1000000000ull;

  witos::Result<Deployment> Deploy(const Ticket& ticket, uint64_t lifetime_ns = kDefaultLifetimeNs);

  // Tears the session down and revokes the certificate ("revoked once the
  // ticket time expires").
  witos::Status Expire(Deployment* deployment);

 private:
  Cluster* cluster_;
};

}  // namespace watchit

#endif  // SRC_CORE_CLUSTER_H_
