// ITFS policy engine: configurable rules that deny or log file accesses by
// extension, content signature, path prefix, or a user-supplied detector
// (paper §5.3: "ITFS exposes an API for integrating user-supplied detection
// rules ... so that each organization can create customized file filtering").

#ifndef SRC_FS_ITFS_POLICY_H_
#define SRC_FS_ITFS_POLICY_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/fs/signature.h"

namespace witfs {

class CompiledPolicy;
struct CompileDiagnostic;

enum class RuleAction {
  kDeny,     // block the access (EACCES) and log it
  kLogOnly,  // allow but log with the rule's name; later rules still apply
  // Terminal allow: the first matching allow rule decides the access and
  // stops the scan, exactly like a deny with the opposite verdict. This is
  // what makes allow-list policies expressible (witmine emits mined
  // prefixes as allow rules above a final deny-everything): a kLogOnly
  // rule deliberately never shields an access from later denies.
  kAllow,
};

enum class ItfsOpKind {
  kOpen,
  kRead,
  kWrite,
  kReaddir,
  kUnlink,
  kRename,
  kAttr,
};

std::string ItfsOpKindName(ItfsOpKind op);

// How the policy inspects content. Extension checking is name-only and
// cheap; signature checking reads the head of the file on every open (the
// ITFS+signature configuration of Figure 9).
enum class InspectionMode {
  kExtensionOnly,
  kSignature,
};

struct ItfsRule {
  std::string name;
  RuleAction action = RuleAction::kDeny;
  // Any matching selector triggers the rule; empty selectors do not match.
  std::vector<std::string> extensions;        // lower-case, no dot
  std::vector<FileClass> signatures;          // content classes
  std::vector<std::string> path_prefixes;     // fs-local; normalized by AddRule
  bool write_only = false;                    // rule applies only to mutations
  // Optional custom detector: (fs path, head bytes) -> match?
  std::function<bool(const std::string&, std::string_view)> custom;
};

struct PolicyDecision {
  bool deny = false;
  std::string rule;  // name of the matching rule, empty if none
};

class ItfsPolicy {
 public:
  ItfsPolicy() = default;
  // A copy keeps the source's revision: same rules, same compiled form. A
  // moved-from builder takes a fresh revision, since its rules are gone.
  ItfsPolicy(const ItfsPolicy&) = default;
  ItfsPolicy& operator=(const ItfsPolicy&) = default;
  ItfsPolicy(ItfsPolicy&& other) noexcept;
  ItfsPolicy& operator=(ItfsPolicy&& other) noexcept;

  void AddRule(ItfsRule rule);
  // Appends all of `other`'s rules; adopts signature inspection if either
  // side uses it (merging never weakens a policy).
  void Merge(const ItfsPolicy& other);
  void set_inspection_mode(InspectionMode mode) {
    mode_ = mode;
    Touch();
  }
  InspectionMode inspection_mode() const { return mode_; }
  // When true every access is chained (kFileAccess) even without a matching
  // rule (the paper's blanket "all filesystem operations were monitored").
  // Off by default: denials and rule hits are chained either way, and the
  // session's tally counts every operation.
  void set_log_all(bool log_all) {
    log_all_ = log_all;
    Touch();
  }
  bool log_all() const { return log_all_; }

  // In signature mode, how many leading bytes ITFS reads from the lower
  // filesystem per inspected open. Magic-byte detection needs only
  // kSignatureHeadBytes; deeper scans support content classification
  // (embedded media, custom detectors) at proportional cost — this is the
  // dominant cost of the ITFS+signature configuration in Figure 9.
  void set_content_scan_limit(size_t bytes) {
    content_scan_limit_ = bytes;
    Touch();
  }
  size_t content_scan_limit() const { return content_scan_limit_; }

  // Names this builder's exact contents: every mutator takes a fresh,
  // process-unique revision and copies keep it, so two builders with the
  // same revision compile to the same policy. A policy compiled earlier is
  // current only while the revision it was built from still matches.
  uint64_t revision() const { return revision_; }

  // Compiles the current rule set into the immutable, shareable evaluator
  // the gate path runs (see compiled_policy.h). Compilation always
  // succeeds; rules that cannot behave as written (duplicate names, rules
  // shadowed by an earlier first-match deny) are reported through
  // `diagnostics` when non-null. Further builder mutations do not affect
  // already-compiled policies.
  std::shared_ptr<const CompiledPolicy> Compile(
      std::vector<CompileDiagnostic>* diagnostics = nullptr) const;

  // True if any rule needs content (signature or custom selectors) — tells
  // ITFS whether Open must fetch head bytes in signature mode.
  bool NeedsContent() const;

  size_t rule_count() const { return rules_.size(); }
  // The rules in evaluation order (first match wins).
  const std::vector<ItfsRule>& rules() const { return rules_; }

  // --- Convenience constructors for the policies the paper uses -------------

  // Denies documents and pictures by extension and (in signature mode) by
  // content class. The paper's blanket hard constraint against data theft.
  static ItfsRule DenyDocumentsRule();
  // Denies a set of protected path prefixes (WatchIT software, log files).
  static ItfsRule ProtectPathsRule(std::vector<std::string> prefixes);
  // Denies writes under a prefix (read-only exposure).
  static ItfsRule ReadOnlyRule(std::vector<std::string> prefixes);

 private:
  void Touch();  // takes a fresh revision after a mutation

  std::vector<ItfsRule> rules_;
  InspectionMode mode_ = InspectionMode::kExtensionOnly;
  bool log_all_ = false;
  size_t content_scan_limit_ = 64 * 1024;
  uint64_t revision_ = 0;  // 0: default-constructed, never mutated
};

// Extensions the paper's document filter covers.
const std::vector<std::string>& DocumentExtensions();

}  // namespace witfs

#endif  // SRC_FS_ITFS_POLICY_H_
