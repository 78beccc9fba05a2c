// §7.2: automatic management tools (Chef/Puppet, cluster management) run
// inside Figure 8 perforated containers instead of as naked root crons.
// Legitimate scripts complete; tampered variants can neither read
// classified data nor exfiltrate it. Exits nonzero if a tampered variant is
// not contained.

#include <cstdio>
#include <map>

#include "src/core/cluster.h"
#include "src/core/script_runner.h"

namespace {

// Prints one family's reports; true if every tampered variant was contained.
bool Report(const char* family, const std::vector<watchit::ScriptRunReport>& reports) {
  std::printf("%s (%zu scripts):\n", family, reports.size());
  std::map<std::string, std::pair<size_t, size_t>> per_class;  // class -> (count, contained)
  size_t satisfied = 0;
  bool all_contained = true;
  for (const auto& report : reports) {
    auto& [count, contained] = per_class[report.container_class];
    ++count;
    contained += report.fully_contained() ? 1u : 0u;
    all_contained = all_contained && report.fully_contained();
    satisfied += report.fully_satisfied() ? 1u : 0u;
    std::printf("  %-26s %-4s ops %zu/%zu  tampered blocked %zu/%zu\n", report.script.c_str(),
                report.container_class.c_str(), report.ops_succeeded, report.ops_total,
                report.tampered_blocked, report.tampered_total);
  }
  std::printf("  => %zu/%zu scripts fully satisfied under maximal isolation\n", satisfied,
              reports.size());
  for (const auto& [cls, stats] : per_class) {
    std::printf("  => %s: %zu scripts (%.0f%%), tampered variants contained in %zu\n",
                cls.c_str(), stats.first,
                100.0 * static_cast<double>(stats.first) / static_cast<double>(reports.size()),
                stats.second);
  }
  std::printf("\n");
  return all_contained;
}

}  // namespace

int main() {
  std::printf("=== WatchIT script sandbox (Figure 8) ===\n\n");
  watchit::Cluster cluster;
  watchit::Machine& node = cluster.AddMachine("node1", witnet::Ipv4Addr(10, 0, 2, 1));
  watchit::ScriptRunner runner(&node);

  bool contained =
      Report("Chef/Puppet maintenance scripts", runner.RunAll(witload::ChefPuppetScripts()));
  contained = Report("Spark/Swift cluster-management scripts",
                     runner.RunAll(witload::ClusterManagementScripts())) &&
              contained;

  std::printf("network blocks recorded while containing tampered scripts: %zu\n",
              node.kernel().audit().CountEvent(witos::AuditEvent::kNetworkBlocked));
  std::printf("ITFS denials recorded: %zu\n",
              node.kernel().audit().CountEvent(witos::AuditEvent::kFileDenied));
  return contained ? 0 : 1;
}
