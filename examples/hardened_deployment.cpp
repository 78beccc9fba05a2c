// A hardened WatchIT deployment exercising the optional features the paper
// sketches beyond its proof of concept:
//  * filtering rules shipped as configuration (ITFS policy DSL + Snort-style
//    IDS rules);
//  * encrypted broker channel ("one can employ SSL", §5.4);
//  * pass-through read/write for ITFS data operations (§7.3);
//  * single-class dispatching — each admin only ever gets one ticket class
//    (the Attack 10 hardening for large organizations).

#include <cstdio>

#include "src/core/ticket_class.h"
#include "src/core/workflow.h"
#include "src/fs/ruledsl.h"
#include "src/net/snort_rules.h"

int main() {
  std::printf("=== WatchIT hardened deployment ===\n\n");

  // --- 1. Organization-specific filtering rules, as configuration ---------
  const char* itfs_rules = R"(
# corporate filtering policy, reviewed by security
mode signature
deny ext:pdf,doc,docx,xls,xlsx,ppt,pptx,jpg,jpeg,png name=no-documents
deny signature:pdf,jpeg,png,zip-office,ole-office
deny path:/usr/watchit,/etc/watchit,/var/log/watchit name=protect-watchit
deny ext:pem,key name=no-private-keys
log  path:/etc name=watch-config
)";
  std::string error;
  auto policy = witfs::ParseItfsPolicy(itfs_rules, &error);
  if (!policy.ok()) {
    std::printf("policy parse error: %s\n", error.c_str());
    return 1;
  }
  std::printf("ITFS policy loaded: %zu rules, signature mode\n", policy->rule_count);

  const char* ids_rules = R"(
block signature:pdf,jpeg,png,zip-office,ole-office name=no-doc-exfil
block entropy>7.2 name=no-encrypted-exfil
block dst-not-in:10.0.0.0/8 name=org-traffic-only
alert content:"CONFIDENTIAL" name=keyword-alert
)";
  auto sniffer_rules = witnet::ParseSnifferRules(ids_rules, &error);
  if (!sniffer_rules.ok()) {
    std::printf("IDS rule parse error: %s\n", error.c_str());
    return 1;
  }
  std::printf("IDS rules loaded: %zu rules\n\n", sniffer_rules->size());

  // --- 2. The machine, with an encrypted broker channel -------------------
  watchit::Cluster cluster;
  watchit::Machine& machine = cluster.AddMachine("userpc", witnet::Ipv4Addr(10, 0, 1, 50));
  machine.broker_channel().EnableEncryption(0x57a7c417);
  std::printf("broker channel: encrypted (authenticated frames)\n");

  // --- 3. A hardened T-6 image: custom policy + passthrough ---------------
  witcontain::PerforatedContainerSpec spec = watchit::SpecForTicketClass(6);
  spec.fs.policy = policy->policy;
  spec.fs.inspection = witfs::InspectionMode::kSignature;
  spec.fs.passthrough = true;
  cluster.images().Register("T-6", spec);
  std::printf("T-6 image: DSL policy, signature inspection, passthrough data path\n\n");

  // --- 4. Single-class dispatching -----------------------------------------
  watchit::Dispatcher::Options dispatch_options;
  dispatch_options.single_class_per_admin = true;
  watchit::Dispatcher dispatcher(dispatch_options);
  dispatcher.AddSpecialist("alice", {"T-1", "T-6"});
  dispatcher.AddSpecialist("bob", {"T-6", "T-9"});
  dispatcher.AddSpecialist("carol", {"T-1", "T-9"});

  // Three tickets: alice takes the first T-6 and is pinned; the T-1 and the
  // next T-6 must go elsewhere.
  for (const char* cls : {"T-6", "T-1", "T-6"}) {
    auto admin = dispatcher.Assign(cls);
    std::printf("ticket class %-4s -> %s\n", cls, admin.ok() ? admin->c_str() : "(nobody)");
  }
  std::printf("pinned: ");
  for (const auto& [admin, cls] : dispatcher.pinned_classes()) {
    std::printf("%s=%s  ", admin.c_str(), cls.c_str());
  }
  std::printf("\n\n");

  // --- 5. Drive a session through the hardened image -----------------------
  watchit::Ticket ticket;
  ticket.id = "TKT-H1";
  ticket.target_machine = "userpc";
  ticket.assigned_class = "T-6";
  ticket.admin = "alice";
  watchit::ClusterManager manager(&cluster);
  auto deployment = manager.Deploy(ticket);
  if (!deployment.ok()) {
    std::printf("deploy failed\n");
    return 1;
  }
  watchit::AdminSession session(&machine, deployment->session, deployment->certificate,
                                &cluster.ca());
  (void)session.Login();

  auto show = [](const char* what, bool ok) {
    std::printf("  %-52s %s\n", what, ok ? "OK" : "DENIED");
  };
  show("read /etc/hosts (config work)", session.ReadFile("/etc/hosts").ok());
  show("read /home/user/documents/payroll.xlsx",
       session.ReadFile("/home/user/documents/payroll.xlsx").ok());
  show("read /home/user/notes.txt", session.ReadFile("/home/user/notes.txt").ok());
  show("PB ps (over the encrypted channel)", session.Pb(witbroker::kVerbPs, {}).ok());

  const witobs::OutcomeCounts fs_ops = session.container()->itfs_tally->Read();
  std::printf("\nITFS gated %llu operations (%llu denied); passthrough kept data ops off the\n"
              "daemon path while the open-time gate still fired.\n",
              static_cast<unsigned long long>(fs_ops.allowed + fs_ops.denied),
              static_cast<unsigned long long>(fs_ops.denied));
  std::printf("broker wire traffic: %llu bytes over %llu encrypted calls\n",
              static_cast<unsigned long long>(machine.broker_channel().bytes_on_wire()),
              static_cast<unsigned long long>(machine.broker_channel().calls()));
  (void)manager.Expire(&*deployment);
  return 0;
}
