#include "src/core/ticket_class.h"

#include <cassert>

#include "src/workload/ticket_gen.h"
#include "src/workload/topology.h"

namespace watchit {

namespace {

using witcontain::AllowedEndpoint;
using witcontain::FsView;
using witcontain::PerforatedContainerSpec;
using witload::OrgEndpoint;

AllowedEndpoint Ep(const OrgEndpoint& ep) { return {ep.addr, ep.port, ep.name}; }

// The blanket hard constraints every container carries (§6.2).
void ApplyHardConstraints(PerforatedContainerSpec* spec) {
  spec->fs.policy.AddRule(witfs::ItfsPolicy::ProtectPathsRule(WatchItProtectedPaths()));
  spec->fs.policy.AddRule(witfs::ItfsPolicy::DenyDocumentsRule());
  spec->net.sniff = true;
  // Compile-check at image-build time: every registered spec must produce a
  // clean policy (no duplicate rule names, no rules shadowed by an earlier
  // first-match deny). A diagnostic here is an authoring bug in the canned
  // specs, not a runtime condition.
  std::vector<witfs::CompileDiagnostic> diags;
  (void)spec->fs.Compile(&diags);
  assert(diags.empty());
  (void)diags;
}

PerforatedContainerSpec Base(int index) {
  PerforatedContainerSpec spec;
  spec.name = witload::TicketClassName(index) + ": " + witload::TicketClassDescription(index);
  spec.hostname = "ITContainer";
  return spec;
}

}  // namespace

const std::vector<std::string>& WatchItProtectedPaths() {
  static const std::vector<std::string> kPaths = {
      "/usr/watchit",            // ContainIT, broker, policy manager binaries
      "/var/log/watchit",        // WatchIT's log directory
      "/etc/watchit",            // policies
  };
  return kPaths;
}

witcontain::PerforatedContainerSpec SpecForTicketClass(int index) {
  assert(index >= 1 && index <= witload::kNumTicketClasses);
  PerforatedContainerSpec spec = Base(index);
  switch (index) {
    case 1:  // License related: home directory + license server.
      spec.fs.kind = FsView::Kind::kDirs;
      spec.fs.visible_dirs = {"/home/user"};
      spec.net.allowed = {Ep(witload::kLicenseServer)};
      break;
    case 2:  // User/password: /etc/ only, no network.
      spec.fs.kind = FsView::Kind::kDirs;
      spec.fs.visible_dirs = {"/etc"};
      break;
    case 3:  // Shared storage accessibility: home + /etc/ + storage.
      spec.fs.kind = FsView::Kind::kDirs;
      spec.fs.visible_dirs = {"/home/user", "/etc"};
      spec.net.allowed = {Ep(witload::kSharedStorage)};
      break;
    case 4:  // Network related: shares the host NET namespace (Figure 1b).
      spec.process_mgmt = true;
      spec.isolate.erase(witos::NsType::kPid);
      spec.isolate.erase(witos::NsType::kNet);
      spec.net.share_host = true;
      // The tap on the shared namespace confines traffic to the
      // organizational network — connectivity repair never needs the wider
      // internet, and exfiltration attempts are dropped on the wire.
      spec.net.sniffer_whitelist = {{witnet::Ipv4Addr(10, 0, 0, 0), 8}};
      spec.fs.kind = FsView::Kind::kDirs;
      spec.fs.visible_dirs = {"/etc"};
      break;
    case 5:  // Slow server: process management + root fs view.
      spec.process_mgmt = true;
      spec.isolate.erase(witos::NsType::kPid);
      spec.fs.kind = FsView::Kind::kWholeRoot;
      break;
    case 6:  // Software related: root fs + repo + whitelisted websites.
      spec.process_mgmt = true;
      spec.isolate.erase(witos::NsType::kPid);
      spec.fs.kind = FsView::Kind::kWholeRoot;
      spec.net.allowed = {Ep(witload::kSoftwareRepo), Ep(witload::kEclipseMirror)};
      spec.net.sniffer_whitelist = {witload::kWhitelistedWeb};
      break;
    case 7:  // Internal VM cloud: ownership config in /etc/ only.
      spec.fs.kind = FsView::Kind::kDirs;
      spec.fs.visible_dirs = {"/etc"};
      break;
    case 8:  // Permissions: root filesystem view, no network.
      spec.fs.kind = FsView::Kind::kWholeRoot;
      break;
    case 9:  // SSH/VNC/LSF: config files + target machine + batch server.
      spec.process_mgmt = true;
      spec.isolate.erase(witos::NsType::kPid);
      spec.fs.kind = FsView::Kind::kDirs;
      spec.fs.visible_dirs = {"/home/user", "/etc"};
      spec.net.allowed = {Ep(witload::kTargetMachine), Ep(witload::kBatchServer)};
      break;
    case 10:  // Storage quota: home + shared storage.
      spec.fs.kind = FsView::Kind::kDirs;
      spec.fs.visible_dirs = {"/home/user"};
      spec.net.allowed = {Ep(witload::kSharedStorage)};
      break;
    case 11:  // Other: fully isolated, everything tracked and logged.
      spec.fs.kind = FsView::Kind::kPrivate;
      break;
    default:
      break;
  }
  ApplyHardConstraints(&spec);
  return spec;
}

witcontain::PerforatedContainerSpec SpecForScriptClass(const std::string& name) {
  PerforatedContainerSpec spec;
  spec.name = name + " script container";
  spec.hostname = "ScriptContainer";
  if (name == "S-1") {  // config files only
    spec.fs.kind = FsView::Kind::kDirs;
    spec.fs.visible_dirs = {"/etc"};
  } else if (name == "S-2") {  // config + process management
    spec.fs.kind = FsView::Kind::kDirs;
    spec.fs.visible_dirs = {"/etc"};
    spec.process_mgmt = true;
    spec.isolate.erase(witos::NsType::kPid);
  } else if (name == "S-3") {  // process management only
    spec.fs.kind = FsView::Kind::kPrivate;
    spec.process_mgmt = true;
    spec.isolate.erase(witos::NsType::kPid);
  } else if (name == "S-4") {  // network namespace (iptables work)
    spec.fs.kind = FsView::Kind::kDirs;
    spec.fs.visible_dirs = {"/etc"};
    spec.isolate.erase(witos::NsType::kNet);
    spec.net.share_host = true;
    spec.net.sniffer_whitelist = {{witnet::Ipv4Addr(10, 0, 0, 0), 8}};
  } else if (name == "S-5") {  // logs + statistics tools, no network
    spec.fs.kind = FsView::Kind::kDirs;
    spec.fs.visible_dirs = {"/var/log", "/usr/bin"};
  } else if (name == "S-6") {  // service restarts and reboots
    spec.fs.kind = FsView::Kind::kPrivate;
    spec.process_mgmt = true;
    spec.isolate.erase(witos::NsType::kPid);
  }
  ApplyHardConstraints(&spec);
  return spec;
}

void RegisterAllImages(witcontain::ImageRepository* repo) {
  for (int i = 1; i <= witload::kNumTicketClasses; ++i) {
    repo->Register(witload::TicketClassName(i), SpecForTicketClass(i));
  }
  for (const char* name : {"S-1", "S-2", "S-3", "S-4", "S-5", "S-6"}) {
    repo->Register(name, SpecForScriptClass(name));
  }
}

void ConfigureBrokerPolicies(witbroker::PolicyManager* policy) {
  // Per-class least-privilege verb sets. The original configuration granted
  // every ticket class one identical seven-verb "standard" set; the witmine
  // differential (mined-vs-hand-written, tests/policy_mine_test.cc) showed
  // most of those grants were never exercised by any ticket in the class —
  // e.g. T-2 (forgotten password) could kill host processes and install
  // packages. Each class now gets exactly the verbs its workload expresses
  // beyond its container view (Table 4's broker columns), plus documented
  // safety margins:
  //   * T-3/T-10 keep mount_volume: storage-quota and repository tickets
  //     legitimately attach volumes outside the provisioned tree;
  //   * T-9 keeps restart_service: remote sshd restarts ride the broker
  //     when the target machine is outside the container's view;
  //   * T-5 keeps its full process-management set — pinned by the threat
  //     matrix and longitudinal suites as the class's genuine need.
  auto set = [policy](const std::string& cls, std::set<std::string> verbs) {
    witbroker::ClassPolicy p;
    p.allowed_verbs = std::move(verbs);
    policy->SetPolicy(cls, std::move(p));
  };
  set("T-1", {witbroker::kVerbPs, witbroker::kVerbNetAllow});
  set("T-2", {witbroker::kVerbNetAllow});
  set("T-3", {witbroker::kVerbNetAllow, witbroker::kVerbMountVolume});
  set("T-4", {});  // NET + PID shared with the host: never crosses the broker
  set("T-5", {witbroker::kVerbPs, witbroker::kVerbKill, witbroker::kVerbReadFile,
              witbroker::kVerbRestartService, witbroker::kVerbNetAllow});
  set("T-6", {witbroker::kVerbInstall, witbroker::kVerbReadFile, witbroker::kVerbNetAllow});
  set("T-7", {witbroker::kVerbPs});
  set("T-8", {witbroker::kVerbPs, witbroker::kVerbNetAllow});
  set("T-9", {witbroker::kVerbRestartService});
  set("T-10", {witbroker::kVerbNetAllow, witbroker::kVerbMountVolume});
  // T-11 is where the rare TCB-touching requests land: driver updates go
  // through the broker so they can be audited and signature-checked.
  set("T-11", {witbroker::kVerbDriverUpdate, witbroker::kVerbReboot});
  // Script containers never talk to the broker.
  witbroker::ClassPolicy deny_all;
  for (const char* name : {"S-1", "S-2", "S-3", "S-4", "S-5", "S-6"}) {
    policy->SetPolicy(name, deny_all);
  }
  policy->SetDefaultPolicy(deny_all);
}

SpecMatrixRow MatrixRowFor(int index) {
  witcontain::PerforatedContainerSpec spec = SpecForTicketClass(index);
  SpecMatrixRow row;
  row.cls = witload::TicketClassName(index);
  row.description = witload::TicketClassDescription(index);
  row.process_mgmt = spec.process_mgmt;
  row.net_namespace_shared = spec.net.share_host;
  if (spec.fs.kind == FsView::Kind::kWholeRoot) {
    row.fs_root = true;
    row.fs_home = true;  // implied
    row.fs_etc = true;   // implied
  } else {
    for (const auto& dir : spec.fs.visible_dirs) {
      if (dir == "/home/user") {
        row.fs_home = true;
      }
      if (dir == "/etc") {
        row.fs_etc = true;
      }
    }
  }
  for (const auto& ep : spec.net.allowed) {
    row.net_endpoints.push_back(ep.name);
  }
  return row;
}

}  // namespace watchit
