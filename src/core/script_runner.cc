#include "src/core/script_runner.h"

#include "src/core/cluster.h"
#include "src/core/session.h"
#include "src/core/ticket_class.h"

namespace watchit {

ScriptRunReport ScriptRunner::Run(const witload::ItScript& script) {
  ScriptRunReport report;
  report.script = script.name;
  report.container_class = script.container_class;
  report.ops_total = script.ops.size();
  report.tampered_total = script.tampered_ops.size();

  witcontain::PerforatedContainerSpec spec = SpecForScriptClass(script.container_class);
  // Certificate-shaped claims no CA issued: the binding and the session's
  // deadline check read them as they read an issued certificate.
  const Certificate claims{
      .admin = "automation",
      .machine = machine_->name(),
      .ticket_id = "SCRIPT-" + std::to_string(next_run_++),
      .ticket_class = script.container_class,
      .expires_ns = machine_->kernel().clock().now_ns() + ClusterManager::kDefaultLifetimeNs};
  auto session_id = machine_->containit().Deploy(spec, claims.ticket_id, claims.admin);
  if (!session_id.ok()) {
    return report;
  }
  (void)machine_->broker().BindTicket(claims.ticket_id, claims.ticket_class, claims.admin,
                                      machine_->containit().FindSession(*session_id)->cgroup,
                                      claims.expires_ns);
  AdminSession session(machine_, *session_id, claims, /*ca=*/nullptr);
  if (!session.Login().ok()) {
    return report;
  }
  for (const auto& op : script.ops) {
    OpReplayResult result = session.Replay(op);
    if (result.in_view) {
      ++report.ops_succeeded;
    }
  }
  for (const auto& op : script.tampered_ops) {
    OpReplayResult result = session.Replay(op);
    // Blocked = neither the sandbox nor the broker let it through.
    if (!result.in_view && !result.broker_ok) {
      ++report.tampered_blocked;
    }
  }
  (void)machine_->containit().Terminate(*session_id, "script finished");
  (void)machine_->broker().UnbindTicket(claims.ticket_id);
  return report;
}

std::vector<ScriptRunReport> ScriptRunner::RunAll(
    const std::vector<witload::ItScript>& scripts) {
  std::vector<ScriptRunReport> reports;
  reports.reserve(scripts.size());
  for (const auto& script : scripts) {
    reports.push_back(Run(script));
  }
  return reports;
}

FleetScriptReport FleetScriptRunner::Run(const witload::ItScript& script) {
  FleetScriptReport report;
  report.script = script.name;
  report.container_class = script.container_class;
  report.nodes = fleet_.size();
  for (Machine* node : fleet_) {
    ScriptRunner runner(node);
    ScriptRunReport node_report = runner.Run(script);
    report.nodes_satisfied += node_report.fully_satisfied() ? 1u : 0u;
    report.nodes_contained += node_report.fully_contained() ? 1u : 0u;
  }
  return report;
}

std::vector<FleetScriptReport> FleetScriptRunner::RunAll(
    const std::vector<witload::ItScript>& scripts) {
  std::vector<FleetScriptReport> reports;
  reports.reserve(scripts.size());
  for (const auto& script : scripts) {
    reports.push_back(Run(script));
  }
  return reports;
}

}  // namespace watchit
