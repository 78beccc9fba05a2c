// The security operator's view of a WatchIT deployment: live sessions, the
// forensic triage queue, log integrity checks, TCB validation and policy
// loading — the organizational side of the paper's monitoring story.

#include <cstdio>

#include "src/core/cluster.h"
#include "src/core/policy_loader.h"
#include "src/core/report.h"
#include "src/core/session.h"

int main() {
  std::printf("=== WatchIT operator console ===\n\n");
  watchit::Cluster cluster;
  watchit::Machine& machine = cluster.AddMachine("userpc", witnet::Ipv4Addr(10, 0, 1, 50));
  watchit::ClusterManager manager(&cluster);

  // Ship the corporate policy before anything runs.
  watchit::InstallPolicyFiles(&machine,
                              "deny ext:pem,key name=no-private-keys\n"
                              "deny ext:pdf,docx,xlsx,jpg name=no-documents\n",
                              "block entropy>7.2 name=no-encrypted-exfil\n");
  watchit::PolicyLoadReport load = watchit::LoadMachinePolicies(&machine, &cluster.images());
  std::printf("policy load: %zu ITFS rules, %zu IDS rules onto %zu images\n\n",
              load.itfs_rules_loaded, load.ids_rules_loaded, load.images_updated);

  // Two concurrent sessions: a benign admin and a probing one.
  auto deploy = [&](const char* id, const char* cls, const char* admin) {
    watchit::Ticket ticket;
    ticket.id = id;
    ticket.target_machine = "userpc";
    ticket.assigned_class = cls;
    ticket.admin = admin;
    return *manager.Deploy(ticket);
  };
  watchit::Deployment good = deploy("TKT-201", "T-1", "alice");
  watchit::Deployment bad = deploy("TKT-202", "T-6", "mallory");

  watchit::AdminSession alice(&machine, good.session, good.certificate, &cluster.ca());
  (void)alice.Login();
  (void)alice.WriteFile("/home/user/.matlab/license.lic", "FEATURE matlab 2026\n");
  (void)alice.Connect("license-server", 0);

  watchit::AdminSession mallory(&machine, bad.session, bad.certificate, &cluster.ca());
  (void)mallory.Login();
  (void)mallory.ReadFile("/home/user/documents/payroll.xlsx");
  (void)mallory.ReadFile("/home/user/photos/badge.jpg");
  (void)machine.kernel().Open(mallory.shell(), "/dev/mem", witos::kOpenRead);
  (void)machine.kernel().Chroot(mallory.shell(), "/tmp");
  for (int i = 0; i < 8; ++i) {
    (void)mallory.Pb(witbroker::kVerbReadFile, {"/etc/shadow"});
  }

  // --- The console ----------------------------------------------------------
  std::printf("live sessions: %zu\n", machine.containit().active_sessions());
  std::printf("TCB intact:    %s\n", machine.tcb_intact() ? "yes" : "NO — refuse to boot");
  std::printf("evidence:      %zu records, chain %s\n\n", machine.kernel().audit().size(),
              machine.kernel().audit().Verify() ? "intact" : "BROKEN");

  watchit::ForensicReporter reporter(&machine);
  std::printf("--- triage queue (most suspicious first) ---\n");
  for (const auto& forensics : reporter.TriageQueue()) {
    std::printf("%s\n", watchit::ForensicReporter::Render(forensics).c_str());
  }

  (void)manager.Expire(&good);
  (void)manager.Expire(&bad);
  std::printf("end of shift: all sessions expired, %zu still active.\n",
              machine.containit().active_sessions());
  return 0;
}
