// The reference ITFS evaluator: the linear first-match rule scan that
// `witfs::CompiledPolicy` replaced on the gate path, kept as the
// differential oracle for compiled_policy_test and ruledsl_test. It walks
// every rule and every selector per access, which makes it slow but easy to
// read against the rule semantics. `CompiledPolicy::Evaluate` must agree
// with it on the verdict, the rule name, and the sequence of custom
// detector calls.

#ifndef TESTS_ITFS_POLICY_REFERENCE_H_
#define TESTS_ITFS_POLICY_REFERENCE_H_

#include <algorithm>
#include <string>
#include <string_view>

#include "src/fs/itfs_policy.h"
#include "src/fs/signature.h"
#include "src/os/path.h"

namespace witfs::reference {

// Evaluates `policy`'s rules for an access of kind `op` to `path` whose
// head bytes are `head` (empty unless signature mode fetched them). First
// matching deny or allow rule wins.
inline PolicyDecision Evaluate(const ItfsPolicy& policy, ItfsOpKind op,
                               const std::string& path, std::string_view head) {
  bool is_write = op == ItfsOpKind::kWrite || op == ItfsOpKind::kUnlink ||
                  op == ItfsOpKind::kRename;
  std::string ext = witos::Extension(path);
  FileClass cls = FileClass::kUnknown;
  bool cls_computed = false;
  // A matching log-only rule records its name but does NOT shield the access
  // from later deny rules — logging never grants immunity.
  std::string log_rule;
  for (const auto& rule : policy.rules()) {
    if (rule.write_only && !is_write) {
      continue;
    }
    bool matched = false;
    if (!rule.extensions.empty() &&
        std::find(rule.extensions.begin(), rule.extensions.end(), ext) != rule.extensions.end()) {
      matched = true;
    }
    if (!matched && !rule.path_prefixes.empty()) {
      for (const auto& prefix : rule.path_prefixes) {
        if (witos::PathIsUnder(path, prefix)) {
          matched = true;
          break;
        }
      }
    }
    if (!matched && policy.inspection_mode() == InspectionMode::kSignature &&
        !rule.signatures.empty() && !head.empty()) {
      if (!cls_computed) {
        cls = DetectSignature(head);
        cls_computed = true;
      }
      matched = std::find(rule.signatures.begin(), rule.signatures.end(), cls) !=
                rule.signatures.end();
    }
    if (!matched && rule.custom != nullptr) {
      matched = rule.custom(path, head);
    }
    if (matched) {
      if (rule.action == RuleAction::kDeny) {
        return {true, rule.name};
      }
      if (rule.action == RuleAction::kAllow) {
        return {false, rule.name};  // terminal: later rules never run
      }
      if (log_rule.empty()) {
        log_rule = rule.name;
      }
    }
  }
  return {false, log_rule};
}

}  // namespace witfs::reference

#endif  // TESTS_ITFS_POLICY_REFERENCE_H_
