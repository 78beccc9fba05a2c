// Quickstart: deploy a perforated container for the paper's running example
// (Figure 2) — an expired Matlab license — and show what the contained
// administrator can and cannot do.

#include <cstdio>

#include "src/core/cluster.h"
#include "src/core/session.h"

namespace {

void Show(const char* what, bool ok) { std::printf("  %-58s %s\n", what, ok ? "OK" : "DENIED"); }

}  // namespace

int main() {
  std::printf("=== WatchIT quickstart: the Matlab-license ticket (Figure 2) ===\n\n");

  // The organization: one user workstation on the corporate fabric.
  watchit::Cluster cluster;
  watchit::Machine& machine = cluster.AddMachine("userpc", witnet::Ipv4Addr(10, 0, 1, 50));
  watchit::ClusterManager manager(&cluster);

  // The end user files a ticket; classification assigned it T-1.
  watchit::Ticket ticket;
  ticket.id = "TKT-1001";
  ticket.text = "Hello, my matlab license expired, simulink says checkout failed";
  ticket.target_machine = "userpc";
  ticket.assigned_class = "T-1";
  ticket.admin = "alice";

  auto deployment = manager.Deploy(ticket);
  if (!deployment.ok()) {
    std::printf("deploy failed\n");
    return 1;
  }
  std::printf("deployed %s container on %s in %llu simulated us\n",
              ticket.assigned_class.c_str(), machine.name().c_str(),
              static_cast<unsigned long long>(
                  machine.containit().FindSession(deployment->session)->deploy_duration_ns /
                  1000));
  std::printf("certificate #%llu for %s, class %s\n\n",
              static_cast<unsigned long long>(deployment->certificate.serial),
              deployment->certificate.admin.c_str(),
              deployment->certificate.ticket_class.c_str());

  watchit::AdminSession session(&machine, deployment->session, deployment->certificate,
                                &cluster.ca());
  if (!session.Login().ok()) {
    std::printf("login failed\n");
    return 1;
  }

  std::printf("inside the perforated container (hostname: %s):\n",
              session.Hostname()->c_str());
  Show("read  /home/user/.matlab/license.lic (the job)",
       session.ReadFile("/home/user/.matlab/license.lic").ok());
  Show("write /home/user/.matlab/license.lic (the fix)",
       session.WriteFile("/home/user/.matlab/license.lic", "FEATURE matlab 2026\n").ok());
  Show("connect license-server:27000", session.Connect("license-server", 0).ok());
  Show("read  /home/user/documents/payroll.xlsx (classified)",
       session.ReadFile("/home/user/documents/payroll.xlsx").ok());
  Show("read  /etc/shadow (outside the view)", session.ReadFile("/etc/shadow").ok());
  Show("connect shared-storage:445 (outside the view)",
       session.Connect("shared-storage", 0).ok());

  auto ps = session.Ps();
  std::printf("\n'ps' inside the container shows %zu processes (host runs %zu):\n",
              ps->size(), machine.kernel().process_count());
  for (const auto& info : *ps) {
    std::printf("  PID %-4d %s\n", info.pid, info.name.c_str());
  }

  auto pb = session.Pb(witbroker::kVerbPs, {});
  std::printf("\n'PB ps' through the permission broker (logged!):\n%s\n", pb->c_str());

  const witobs::OutcomeCounts fs_ops =
      machine.containit().FindSession(deployment->session)->itfs_tally->Read();
  std::printf("ITFS monitored %llu file operations (%llu denied)\n",
              static_cast<unsigned long long>(fs_ops.allowed + fs_ops.denied),
              static_cast<unsigned long long>(fs_ops.denied));
  std::printf("evidence chain holds %zu records, hash chain intact: %s\n",
              machine.kernel().audit().size(), machine.kernel().audit().Verify() ? "yes" : "no");

  (void)manager.Expire(&*deployment);
  std::printf("\nticket expired; session terminated, certificate revoked.\n");
  return 0;
}
