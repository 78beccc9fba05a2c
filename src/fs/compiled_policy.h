// CompiledPolicy: the immutable, shareable fast path ItfsPolicy::Compile()
// produces.
//
// A linear evaluator walks every rule and every selector per gated
// operation — O(rules x selectors) with a string compare at each step, paid
// on every single filesystem call the ITFS daemon mediates. Compile() folds
// the same rule set into index structures evaluated in (amortized) constant
// time per operation:
//
//   * path prefixes   -> a component trie; one walk down the gated path
//                        collects the mask of every rule whose prefix covers
//                        it (the trie *is* the prefix automaton: each
//                        component consumed is one DFA transition);
//   * extensions      -> a flat open-addressed hash set keyed on the
//                        lower-cased suffix, one probe per gate;
//   * content classes -> a per-FileClass rule mask, indexed by the detected
//                        signature;
//   * op kind         -> precomputed eligibility masks (write_only rules
//                        drop out of non-mutating ops without being visited).
//
// First-match-wins semantics are preserved bit-for-bit: the masks only
// answer "which rules match", and the winner is the lowest set rule index,
// exactly the order a linear first-match scan visits. Custom detectors
// cannot be indexed; they are invoked in rule order, but only up to the
// first already-matched deny — the same invocation pattern as the linear
// scan, so stateful detectors observe identical call sequences. The
// reference linear evaluator lives in tests/itfs_policy_reference.h.
//
// A CompiledPolicy is deeply immutable after Compile() and safe to share
// across threads; Itfs installs one behind an atomic pointer (SwapPolicy)
// so policy updates never block the gate path. The image repository relies
// on this: it compiles each image once and every session and file-sharing
// mount of that image, on any machine, runs the same object (FsView::
// Compile). Custom detectors are invoked from all of them, so they must be
// safe to call concurrently.

#ifndef SRC_FS_COMPILED_POLICY_H_
#define SRC_FS_COMPILED_POLICY_H_

#include <array>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/fs/itfs_policy.h"

namespace witfs {

// A warning produced while compiling a policy. Compilation never fails —
// every legal rule set compiles — but rules that cannot behave as written
// are reported so authors hear about them at compile time, not after an
// incident review of the evaluation log.
struct CompileDiagnostic {
  enum class Kind {
    kDuplicateName,  // two rules share a name: log/audit lines are ambiguous
    kShadowedRule,   // an earlier first-match deny covers every access this
                     // rule could match; it can never fire
  };

  Kind kind;
  size_t rule_index = 0;     // the offending rule (position in the builder)
  size_t earlier_index = 0;  // the rule that owns the name / casts the shadow
  std::string message;       // human-readable, names both rules
};

class CompiledPolicy {
 public:
  // Built only by ItfsPolicy::Compile().
  CompiledPolicy(const CompiledPolicy&) = delete;
  CompiledPolicy& operator=(const CompiledPolicy&) = delete;

  // Decision- and rule-name-identical to the reference linear evaluator
  // (tests/itfs_policy_reference.h) on the same inputs; the differential
  // property test in compiled_policy_test.cc pins this over randomized rule
  // sets.
  PolicyDecision Evaluate(ItfsOpKind op, const std::string& path,
                          std::string_view head) const;

  // The verdict-cache fast path: evaluates with an already-classified
  // content class instead of raw head bytes. Only meaningful when the
  // policy has no custom detectors (detectors need the bytes themselves);
  // `has_content` distinguishes "classified as kUnknown" from "file had no
  // content to classify" — signature selectors never match the latter,
  // matching how the reference evaluator treats an empty head.
  PolicyDecision EvaluateClassified(ItfsOpKind op, const std::string& path, FileClass cls,
                                    bool has_content) const;

  InspectionMode inspection_mode() const { return mode_; }
  bool log_all() const { return log_all_; }
  size_t content_scan_limit() const { return content_scan_limit_; }
  size_t rule_count() const { return rules_.size(); }
  bool has_custom_rules() const { return !custom_rules_.empty(); }

  // True if Itfs::Gate must fetch head bytes in signature mode.
  bool NeedsContent() const { return needs_content_; }

  // True when content-signature verdicts for this policy are pure functions
  // of the file head — i.e. cacheable per (path, generation). Custom
  // detectors may be stateful, so their presence disables verdict caching.
  bool CacheableVerdicts() const { return needs_content_ && custom_rules_.empty(); }

  // How many leading file bytes a gate actually has to read. Signature
  // classification uses at most kSignatureHeadBytes; only a custom detector
  // can justify the full content_scan_limit deep scan. Knowing this at
  // compile time is a large share of the Figure 9 fast-path win: the
  // common no-detector policy reads 64 bytes where the legacy gate
  // streamed up to 64KB per open.
  size_t required_head_bytes() const { return required_head_bytes_; }

  // Wall nanoseconds Compile() spent building this policy (exported as the
  // watchit_policy_compile_ns histogram by the deploy that compiled it, or
  // by Itfs::SwapPolicy).
  uint64_t compile_ns() const { return compile_ns_; }

  // Index sizes, for tests and diagnostics.
  size_t trie_node_count() const { return trie_.size(); }
  size_t extension_slot_count() const { return ext_table_.size(); }

 private:
  friend class ItfsPolicy;

  // Bitset over rule indices; word 0 holds rules 0..63.
  using Mask = std::vector<uint64_t>;

  struct TrieNode {
    std::map<std::string, uint32_t, std::less<>> children;  // component -> node index
    Mask terminal;  // rules whose prefix ends exactly here
  };

  struct ExtSlot {
    std::string ext;  // empty = unused slot
    Mask mask;
  };

  CompiledPolicy() = default;

  explicit CompiledPolicy(const std::vector<ItfsRule>& rules, InspectionMode mode,
                          bool log_all, size_t content_scan_limit);

  // The rules one evaluation matched: on the stack for policies of up to
  // 64 * kInlineMaskWords rules, so a gate decision allocates nothing; a
  // wider policy's bitset is on the heap.
  static constexpr size_t kInlineMaskWords = 4;
  struct ScratchMask {
    std::array<uint64_t, kInlineMaskWords> inline_words{};
    Mask heap;
  };

  Mask NewMask() const { return Mask(words_, 0); }
  // A zeroed bitset of words_ words in `scratch`.
  std::span<uint64_t> NewScratch(ScratchMask* scratch) const;
  static void SetBit(std::span<uint64_t> mask, size_t i) {
    mask[i / 64] |= uint64_t{1} << (i % 64);
  }

  // OR of every terminal mask on the trie walk of `path`, into `out`.
  void CollectPrefixMatches(const std::string& path, std::span<uint64_t> out) const;
  // OR of the extension slot for `path`'s suffix (if any), into `out`.
  void CollectExtensionMatch(const std::string& path, std::span<uint64_t> out) const;
  // Shared tail of both Evaluate flavors: custom detectors + winner pick.
  PolicyDecision Finish(ItfsOpKind op, const std::string& path, std::string_view head,
                        std::span<uint64_t> matched) const;

  struct RuleMeta {
    std::string name;
    RuleAction action = RuleAction::kDeny;
    bool write_only = false;
    std::function<bool(const std::string&, std::string_view)> custom;
  };

  std::vector<RuleMeta> rules_;
  size_t words_ = 0;

  InspectionMode mode_ = InspectionMode::kExtensionOnly;
  bool log_all_ = false;
  size_t content_scan_limit_ = 0;
  bool needs_content_ = false;
  size_t required_head_bytes_ = 0;
  uint64_t compile_ns_ = 0;

  Mask non_write_eligible_;  // rules applicable to non-mutating ops
  Mask deny_mask_;           // rules with action kDeny
  Mask terminal_mask_;       // rules that stop the scan (kDeny or kAllow)
  Mask any_signature_;       // rules with signature selectors (any class)

  std::vector<TrieNode> trie_;       // node 0 is "/"
  std::vector<ExtSlot> ext_table_;   // power-of-two open addressing
  std::vector<Mask> class_masks_;    // indexed by FileClass
  std::vector<uint32_t> custom_rules_;  // ascending rule indices
};

}  // namespace witfs

#endif  // SRC_FS_COMPILED_POLICY_H_
