// Machine: one organizational host — a simulated kernel plus its network
// stack, permission broker, ContainIT runtime and TCB, booted into the
// trusted initial state and provisioned with a realistic filesystem.

#ifndef SRC_CORE_MACHINE_H_
#define SRC_CORE_MACHINE_H_

#include <memory>
#include <string>

#include "src/broker/broker.h"
#include "src/container/containit.h"
#include "src/core/tcb.h"
#include "src/net/socket.h"
#include "src/obs/metrics.h"
#include "src/obs/profile.h"
#include "src/os/kernel.h"

namespace watchit {

class Machine {
 public:
  // `fabric` is the shared organizational network (owned by the Cluster).
  Machine(std::string name, witnet::Ipv4Addr addr, witnet::Network* fabric);

  const std::string& name() const { return name_; }
  witnet::Ipv4Addr addr() const { return addr_; }

  witos::Kernel& kernel() { return *kernel_; }
  const witos::Kernel& kernel() const { return *kernel_; }
  witnet::NetStack& net() { return *net_; }
  witcontain::ContainIt& containit() { return *containit_; }
  witbroker::PermissionBroker& broker() { return *broker_; }
  witbroker::RpcChannel& broker_channel() { return broker_channel_; }
  witbroker::PolicyManager& policy() { return policy_; }
  Tcb& tcb() { return *tcb_; }
  witos::Pid broker_pid() const { return broker_pid_; }

  // The machine-wide metrics registry. Boot wires the broker and the
  // container runtime (and through it every per-session ITFS instance) into
  // it; the benches read it back. No series is per ticket: a session's
  // counts live in its SessionRecord.
  witobs::MetricsRegistry& metrics() { return metrics_; }
  const witobs::MetricsRegistry& metrics() const { return metrics_; }

  // The NET namespace id of a process on this machine.
  witos::NsId NetNsOf(witos::Pid pid) const;

  // True after boot while the TCB measurement still matches.
  bool tcb_intact() const { return tcb_->ValidateBoot(); }

  // The machine lock: whoever holds it may drive this machine's kernel
  // (single-owner rule — see SimClock). Multi-machine jobs must acquire
  // machine locks in address order to stay deadlock-free. Profiled as
  // "machine" in metrics().
  witobs::ProfiledMutex& mu() { return mu_; }

 private:
  void ProvisionFilesystem();
  void SetupHostNetwork();
  void BootWatchIt();

  std::string name_;
  witnet::Ipv4Addr addr_;
  witobs::MetricsRegistry metrics_;  // declared first: outlives mu_
  witobs::ProfiledMutex mu_{"machine"};
  std::unique_ptr<witos::Kernel> kernel_;
  std::unique_ptr<witnet::NetStack> net_;
  std::unique_ptr<witcontain::ContainIt> containit_;
  witbroker::PolicyManager policy_;
  witbroker::RpcChannel broker_channel_;
  std::unique_ptr<witbroker::PermissionBroker> broker_;
  std::unique_ptr<Tcb> tcb_;
  witos::Pid broker_pid_ = witos::kNoPid;
};

}  // namespace watchit

#endif  // SRC_CORE_MACHINE_H_
