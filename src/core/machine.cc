#include "src/core/machine.h"

#include "src/core/ticket_class.h"
#include "src/workload/topology.h"

namespace watchit {

Machine::Machine(std::string name, witnet::Ipv4Addr addr, witnet::Network* fabric)
    : name_(std::move(name)), addr_(addr) {
  kernel_ = std::make_unique<witos::Kernel>(name_);
  net_ = std::make_unique<witnet::NetStack>(fabric, &kernel_->audit(), &kernel_->clock());
  ProvisionFilesystem();
  SetupHostNetwork();
  BootWatchIt();
}

void Machine::ProvisionFilesystem() {
  witos::MemFs& fs = kernel_->root_fs();
  // System configuration the ticket classes and scripts touch.
  fs.ProvisionFile("/etc/passwd", "root:x:0:0:root:/root:/bin/bash\nuser:x:1000:1000::/home/user:/bin/bash\n");
  fs.ProvisionFile("/etc/shadow", "root:*:17710::::::\nuser:$6$salt$hash:17710::::::\n", 0, 0, 0600);
  fs.ProvisionFile("/etc/group", "root:x:0:\nusers:x:100:user\n");
  fs.ProvisionFile("/etc/fstab", "/dev/sda / ext4 defaults 0 1\n");
  fs.ProvisionFile("/etc/hosts", "127.0.0.1 localhost\n");
  fs.ProvisionFile("/etc/resolv.conf", "nameserver 10.0.0.60\n");
  fs.ProvisionFile("/etc/ntp.conf", "server 10.0.0.60 iburst\n");
  fs.ProvisionFile("/etc/sudoers", "root ALL=(ALL) ALL\n", 0, 0, 0440);
  fs.ProvisionFile("/etc/motd", "welcome\n");
  fs.ProvisionFile("/etc/ldap.conf", "uri ldap://10.0.0.60\n");
  fs.ProvisionFile("/etc/crontab", "0 3 * * * root /usr/bin/maintenance\n");
  fs.ProvisionFile("/etc/rsyslog.conf", "*.* /var/log/syslog\n");
  fs.ProvisionFile("/etc/login.defs", "UMASK 022\n");
  fs.ProvisionFile("/etc/timezone", "Asia/Jerusalem\n");
  fs.ProvisionFile("/etc/security/limits.conf", "* soft nofile 4096\n");
  fs.ProvisionFile("/etc/ssh/sshd_config", "PermitRootLogin no\n");
  fs.ProvisionFile("/etc/iptables.rules", "-A INPUT -j ACCEPT\n");
  fs.ProvisionFile("/etc/network/interfaces", "auto eth0\n");
  fs.ProvisionFile("/etc/vm-ownership.conf", "owner=user\n");

  // The end user's home directory, including the confidential documents a
  // rogue admin would target. payroll.xlsx carries a real ZIP/OOXML magic.
  fs.ProvisionFile("/home/user/.matlab/license.lic", "SERVER 10.0.0.10 27000\nFEATURE matlab expired\n",
                   1000, 1000);
  fs.ProvisionFile("/home/user/.ssh/config", "Host target\n  HostName 10.0.1.100\n", 1000, 1000,
                   0600);
  fs.ProvisionFile("/home/user/.subversion/config", "[miscellany]\n", 1000, 1000);
  fs.ProvisionFile("/home/user/quota-request", "", 1000, 1000);
  fs.ProvisionFile("/home/user/project/.acl", "group:users:rwx\n", 1000, 1000);
  fs.ProvisionFile("/home/user/documents/payroll.xlsx",
                   std::string("PK\x03\x04") + "salary data: CONFIDENTIAL\n", 1000, 1000);
  fs.ProvisionFile("/home/user/documents/patients.pdf",
                   "%PDF-1.4 medical records: CONFIDENTIAL\n", 1000, 1000);
  fs.ProvisionFile("/home/user/photos/badge.jpg", std::string("\xFF\xD8\xFF\xE0") + "jfif",
                   1000, 1000);
  fs.ProvisionFile("/home/user/notes.txt", "remember to submit the report\n", 1000, 1000);

  // Logs and tools the cluster-management scripts read.
  fs.ProvisionFile("/var/log/syslog", "kernel: boot ok\ncron: job started\n");
  fs.ProvisionFile("/var/log/spark/executor.log", "INFO executor up\n");
  fs.ProvisionFile("/var/log/spark/driver.log", "INFO driver up\n");
  fs.ProvisionFile("/var/log/spark/gc.log", "pause 12ms\n");
  fs.ProvisionFile("/var/log/spark/scheduler.log", "queued 3 jobs\n");
  fs.ProvisionFile("/var/log/swift/proxy.log", "GET 200\n");
  fs.ProvisionFile("/var/log/swift/replicator.log", "cycle done\n");
  fs.ProvisionFile("/var/log/df.log", "/dev/sda 61% /\n");
  fs.ProvisionFile("/var/log/sar.dat", "cpu 12%\n");
  fs.ProvisionFile("/var/log/netstat.log", "0 errors\n");
  fs.ProvisionFile("/var/lib/groups.db", "users:user\n");
  fs.ProvisionFile("/usr/bin/mpstat", std::string("\x7f") + "ELF mpstat-binary", 0, 0, 0755);
  fs.ProvisionFile("/usr/bin/iostat", std::string("\x7f") + "ELF iostat-binary", 0, 0, 0755);
  fs.ProvisionDir("/usr/progs");

  // WatchIT's own software — the TCB.
  fs.ProvisionFile("/usr/watchit/containit", std::string("\x7f") + "ELF containit", 0, 0, 0755);
  fs.ProvisionFile("/usr/watchit/permission-broker", std::string("\x7f") + "ELF pb", 0, 0, 0755);
  fs.ProvisionFile("/usr/watchit/policy-manager", std::string("\x7f") + "ELF pm", 0, 0, 0755);
  fs.ProvisionFile("/etc/watchit/policy.conf", "default-deny\n", 0, 0, 0600);
  fs.ProvisionDir("/var/log/watchit");
  fs.ProvisionDir("/lib/modules");
}

void Machine::SetupHostNetwork() {
  witnet::NetNsPayload& host_ns =
      net_->namespaces().GetOrCreate(kernel_->namespaces().initial(witos::NsType::kNet));
  host_ns.AddDevice("eth0", addr_);
  host_ns.AddRoute(witnet::Cidr::Any(), "eth0", "default");
  host_ns.firewall.set_default_policy(witnet::FwAction::kAccept);
}

void Machine::BootWatchIt() {
  // The broker runs as a host root process, child of init.
  auto broker_pid = kernel_->Clone(kernel_->init_pid(), "PermissionBroker", 0);
  broker_pid_ = broker_pid.ok() ? *broker_pid : witos::kNoPid;
  ConfigureBrokerPolicies(&policy_);
  // One binding map per broker; the broker's records go to the kernel's
  // evidence chain (DESIGN.md §14). Every request-path call into the
  // broker already holds this machine's lock.
  broker_ = std::make_unique<witbroker::PermissionBroker>(kernel_.get(), broker_pid_, &policy_,
                                                          &broker_channel_);
  containit_ = std::make_unique<witcontain::ContainIt>(kernel_.get(), net_.get());
  containit_->AttachBroker(broker_.get());

  // Observability: one registry per machine; the broker and every
  // per-session ITFS instance feed it.
  mu_.EnableMetrics(&metrics_);
  broker_->EnableMetrics(&metrics_);
  broker_channel_.EnableMetrics(&metrics_);
  containit_->EnableMetrics(&metrics_);

  // Measure and lock the TCB. The log directory is guarded (no one may
  // write it through the kernel) but not measured.
  std::vector<std::string> guarded = WatchItProtectedPaths();
  std::vector<std::string> measured = {"/usr/watchit", "/etc/watchit"};
  tcb_ = std::make_unique<Tcb>(kernel_.get(), guarded, measured);
  tcb_->Enroll();
  tcb_->InstallGuard();
}

witos::NsId Machine::NetNsOf(witos::Pid pid) const {
  const witos::Process* proc = kernel_->FindProcess(pid);
  return proc == nullptr ? witos::kNoNs : proc->ns.Get(witos::NsType::kNet);
}

}  // namespace watchit
