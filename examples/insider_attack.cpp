// A rogue administrator walks the Table 1 attack list against a live
// WatchIT deployment. Every attempt should be stopped by the corresponding
// defence, leaving a forensic trail. Exits nonzero if any attack succeeds.

#include <cstdio>
#include <random>

#include "src/core/cluster.h"
#include "src/core/session.h"
#include "src/durability/durability.h"
#include "src/os/memfs.h"
#include "src/workload/topology.h"

namespace {

int g_attack = 0;
int g_succeeded = 0;

void Attack(const char* description, bool blocked) {
  std::printf("  attack %2d: %-52s %s\n", ++g_attack, description,
              blocked ? "BLOCKED" : "*** SUCCEEDED ***");
  g_succeeded += blocked ? 0 : 1;
}

}  // namespace

int main() {
  std::printf("=== Mallory vs. WatchIT: the Table 1 threat matrix ===\n\n");

  watchit::Cluster cluster;
  watchit::Machine& machine = cluster.AddMachine("userpc", witnet::Ipv4Addr(10, 0, 1, 50));
  watchit::ClusterManager manager(&cluster);
  witos::Kernel& kernel = machine.kernel();
  // The host-side journal: the persisted copy of every evidence record.
  witdur::DurabilityManager durability(std::make_shared<witos::MemFs>());
  durability.Attach(&cluster);

  // Mallory gets a legitimate software ticket — the most permissive class
  // (T-6: whole-root view, process management, whitelisted web).
  watchit::Ticket ticket;
  ticket.id = "TKT-666";
  ticket.target_machine = "userpc";
  ticket.assigned_class = "T-6";
  ticket.admin = "mallory";
  auto deployment = manager.Deploy(ticket);
  watchit::AdminSession session(&machine, deployment->session, deployment->certificate,
                                &cluster.ca());
  (void)session.Login();
  witos::Pid shell = session.shell();
  std::printf("mallory logged into a T-6 container (root, whole-root ITFS view)\n\n");

  // 1: chroot escape.
  (void)kernel.MkDir(shell, "/tmp/escape");
  Attack("double-chroot escape", !kernel.Chroot(shell, "/tmp/escape").ok());

  // 2: ptrace bind shell into a host process.
  Attack("ptrace host init into a bind shell", !kernel.Ptrace(shell, 1).ok());

  // 3: raw disk device + mount.
  bool mknod_blocked = !kernel.MkNod(shell, "/tmp/sda", witos::FileType::kBlockDevice, 8).ok();
  auto fake_fs = std::make_shared<witos::MemFs>("tmpfs");
  bool mount_blocked = !kernel.Mount(shell, fake_fs, "/tmp", "sda").ok();
  Attack("mknod raw disk + mount real filesystem", mknod_blocked && mount_blocked);

  // 4: kernel memory tap.
  Attack("open /dev/mem", !kernel.Open(shell, "/dev/mem", witos::kOpenRead).ok());
  Attack("open /dev/kmem", !kernel.Open(shell, "/dev/kmem", witos::kOpenRead).ok());

  // 5: tamper with WatchIT software.
  Attack("overwrite the permission broker binary",
         !session.WriteFile("/usr/watchit/permission-broker", "evil").ok());
  std::printf("             TCB still intact: %s\n", machine.tcb_intact() ? "yes" : "NO");

  // 6: tamper with the broker log (detected, not prevented in place). The
  // rewrite recomputes the chain after the last sealed root, so only the
  // journal's copy exposes it.
  (void)session.Pb(witbroker::kVerbPs, {});
  witos::AuditLog& chain = kernel.audit();
  chain.TamperForTest(chain.size() - 1, "GRANT mallory nothing-suspicious", /*rechain=*/true);
  Attack("rewrite a broker log entry (detection)",
         !chain.Verify() || !durability.ChainMatchesJournal(machine));

  // 8: steal the payroll file, encrypt, exfiltrate.
  bool read_blocked = !session.ReadFile("/home/user/documents/payroll.xlsx").ok();
  std::string encrypted;
  std::mt19937 rng(1337);
  for (int i = 0; i < 4096; ++i) {
    encrypted += static_cast<char>(rng() & 0xff);
  }
  const witos::Process* proc = kernel.FindProcess(shell);
  auto exfil = machine.net().Request(proc->ns.Get(witos::NsType::kNet),
                                     witload::kSoftwareRepo.addr, witload::kSoftwareRepo.port,
                                     encrypted, shell, 0);
  Attack("read payroll.xlsx through ITFS", read_blocked);
  Attack("exfiltrate encrypted blob past the sniffer", !exfil.ok());

  // 11: pull malware from a non-whitelisted site.
  Attack("download from evil-host (not whitelisted)", !session.Connect("evil-host", 0).ok());

  // 9: forge a certificate for a different class.
  watchit::Certificate forged = deployment->certificate;
  forged.ticket_class = "T-11";
  watchit::AdminSession forged_session(&machine, deployment->session, forged, &cluster.ca());
  Attack("login with a doctored certificate", !forged_session.Login().ok());

  // 5, through the broker: T-6 may install packages, but a package name
  // that climbs out of /usr/progs must not reach the host's files.
  const std::string passwd = kernel.ReadFile(kernel.init_pid(), "/etc/passwd").value_or("");
  const bool refused = !session.Pb(witbroker::kVerbInstall, {"../../etc/passwd"}).ok();
  Attack("overwrite a host file through PB install",
         refused && kernel.ReadFile(kernel.init_pid(), "/etc/passwd").value_or("") == passwd);

  // 9, after the ticket's time: the certificate's deadline has passed but
  // the session is not yet expired, and the shell asks the broker itself.
  kernel.clock().Advance(deployment->certificate.expires_ns - kernel.clock().now_ns() + 1);
  witbroker::BrokerClient own_client(&machine.broker_channel(), shell);
  Attack("ask the broker after the ticket's time",
         !own_client.Request(witbroker::kVerbInstall, {"netcat"}).ok());

  // 7: kill the monitoring and work unobserved. (Last: it ends the session.)
  (void)kernel.Exit(session.container()->itfs_daemon, -9);
  Attack("kill the ITFS daemon and continue",
         session.container() == nullptr && !kernel.ProcessAlive(shell));

  // The forensic trail.
  std::printf("\nforensic record:\n");
  std::printf("  kernel audit records:        %zu\n", kernel.audit().size());
  std::printf("  capability denials:          %zu\n",
              kernel.audit().CountEvent(witos::AuditEvent::kCapabilityDenied));
  std::printf("  ITFS denials:                %zu\n",
              kernel.audit().CountEvent(witos::AuditEvent::kFileDenied));
  std::printf("  network blocks:              %zu\n",
              kernel.audit().CountEvent(witos::AuditEvent::kNetworkBlocked));
  std::printf("  TCB violations:              %zu\n",
              kernel.audit().CountEvent(witos::AuditEvent::kTcbViolation));
  std::printf("  session terminations:        %zu\n",
              kernel.audit().CountEvent(witos::AuditEvent::kContainerTerminated));
  return g_succeeded == 0 ? 0 : 1;
}
