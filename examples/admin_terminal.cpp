// Figure 6, live: an admin attends to a slow-server ticket from inside a
// perforated container. "ps -a" shows the container's view; "PB ps -a" asks
// the permission broker and reveals the host's — with the request logged.

#include <cstdio>

#include "src/core/cluster.h"
#include "src/core/shell.h"

int main() {
  watchit::Cluster cluster;
  watchit::Machine& machine = cluster.AddMachine("userpc", witnet::Ipv4Addr(10, 0, 1, 50));
  watchit::ClusterManager manager(&cluster);

  // Reproduce the Figure 6 cast: a testscript is running on the host, and
  // the admin's session is a network-problem container that is
  // compartmentalized from the host's processes (T-4 shares PID in our
  // Table 3 encoding, so use a class without the process-management set to
  // match the figure's isolated view — e.g. T-1).
  (void)*machine.kernel().Clone(1, "testscript", 0);

  watchit::Ticket ticket;
  ticket.id = "TKT-FIG6";
  ticket.target_machine = "userpc";
  ticket.assigned_class = "T-1";
  ticket.admin = "itsupport";
  auto deployment = manager.Deploy(ticket);
  if (!deployment.ok()) {
    std::printf("deploy failed\n");
    return 1;
  }
  watchit::AdminSession session(&machine, deployment->session, deployment->certificate,
                                &cluster.ca());
  if (!session.Login().ok()) {
    std::printf("login failed\n");
    return 1;
  }
  // A contained testscript, like the figure's.
  (void)*machine.kernel().Clone(session.container()->container_init, "testscript", 0);

  watchit::AdminShell shell(&session);
  std::printf("%s", shell.Transcript("ps -a\n"
                                     "PB ps -a\n"
                                     "hostname\n"
                                     "cat /home/user/.matlab/license.lic\n"
                                     "echo FEATURE matlab permanent > /home/user/.matlab/license.lic\n"
                                     "connect license-server\n"
                                     "cat /home/user/documents/payroll.xlsx\n"
                                     "mount\n")
                      .c_str());

  std::printf("\n--- what the organization saw ---\n");
  size_t broker_records = 0;
  for (const witos::AuditRecord& record : machine.kernel().audit().Snapshot()) {
    if (witbroker::DecodeBrokerRecord(record).has_value()) {
      std::printf("broker log #%zu: %s\n", ++broker_records, record.detail.c_str());
    }
  }
  const witobs::OutcomeCounts fs_ops = session.container()->itfs_tally->Read();
  std::printf("ITFS recorded %llu file operations, %llu denied\n",
              static_cast<unsigned long long>(fs_ops.allowed + fs_ops.denied),
              static_cast<unsigned long long>(fs_ops.denied));
  return 0;
}
