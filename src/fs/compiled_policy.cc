#include "src/fs/compiled_policy.h"

#include <algorithm>
#include <chrono>

#include "src/os/path.h"

namespace witfs {

namespace {

uint64_t Fnv1a(std::string_view text) {
  uint64_t hash = 1469598103934665603ull;
  for (char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

uint64_t WallNowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

bool AnySet(const std::vector<uint64_t>& mask) {
  for (uint64_t word : mask) {
    if (word != 0) {
      return true;
    }
  }
  return false;
}

void OrInto(std::span<uint64_t> out, const std::vector<uint64_t>& other) {
  for (size_t w = 0; w < out.size(); ++w) {
    out[w] |= other[w];
  }
}

}  // namespace

CompiledPolicy::CompiledPolicy(const std::vector<ItfsRule>& rules, InspectionMode mode,
                               bool log_all, size_t content_scan_limit)
    : mode_(mode), log_all_(log_all), content_scan_limit_(content_scan_limit) {
  const size_t n = rules.size();
  words_ = (n + 63) / 64;
  non_write_eligible_ = NewMask();
  deny_mask_ = NewMask();
  terminal_mask_ = NewMask();
  any_signature_ = NewMask();
  class_masks_.assign(static_cast<size_t>(FileClass::kEncrypted) + 1, NewMask());
  trie_.emplace_back();  // node 0 = "/"

  // Distinct extensions first, so the flat table can be sized once.
  std::map<std::string, Mask> ext_masks;

  rules_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const ItfsRule& rule = rules[i];
    RuleMeta meta;
    meta.name = rule.name;
    meta.action = rule.action;
    meta.write_only = rule.write_only;
    meta.custom = rule.custom;
    rules_.push_back(std::move(meta));

    if (!rule.write_only) {
      SetBit(non_write_eligible_, i);
    }
    if (rule.action == RuleAction::kDeny) {
      SetBit(deny_mask_, i);
    }
    if (rule.action != RuleAction::kLogOnly) {
      SetBit(terminal_mask_, i);  // deny and allow both end the reference scan
    }
    for (const std::string& ext : rule.extensions) {
      auto [it, inserted] = ext_masks.try_emplace(ext, NewMask());
      SetBit(it->second, i);
    }
    for (const std::string& prefix : rule.path_prefixes) {
      // Prefixes are normalized at AddRule; "/" compiles to the root node.
      uint32_t node = 0;
      for (const auto& comp : witos::SplitPath(prefix)) {
        auto it = trie_[node].children.find(comp);
        if (it == trie_[node].children.end()) {
          trie_.emplace_back();
          it = trie_[node].children.emplace(comp, static_cast<uint32_t>(trie_.size() - 1))
                   .first;
        }
        node = it->second;
      }
      if (trie_[node].terminal.empty()) {
        trie_[node].terminal = NewMask();
      }
      SetBit(trie_[node].terminal, i);
    }
    for (FileClass cls : rule.signatures) {
      SetBit(class_masks_[static_cast<size_t>(cls)], i);
      SetBit(any_signature_, i);
    }
    if (rule.custom != nullptr) {
      custom_rules_.push_back(static_cast<uint32_t>(i));
    }
  }

  // Open-addressed extension table, 2x oversized so probes stay short.
  if (!ext_masks.empty()) {
    size_t slots = 2;
    while (slots < ext_masks.size() * 2) {
      slots *= 2;
    }
    ext_table_.resize(slots);
    for (auto& [ext, mask] : ext_masks) {
      size_t slot = Fnv1a(ext) & (slots - 1);
      while (!ext_table_[slot].ext.empty()) {
        slot = (slot + 1) & (slots - 1);
      }
      ext_table_[slot].ext = ext;
      ext_table_[slot].mask = std::move(mask);
    }
  }

  needs_content_ = mode_ == InspectionMode::kSignature &&
                   (AnySet(any_signature_) || !custom_rules_.empty());
  if (!needs_content_) {
    required_head_bytes_ = 0;
  } else if (!custom_rules_.empty()) {
    // A detector may scan deep content; honor the configured limit.
    required_head_bytes_ = content_scan_limit_;
  } else {
    // Signature classification is a pure function of the magic-byte head:
    // reading past kSignatureHeadBytes cannot change any verdict.
    required_head_bytes_ = std::min(content_scan_limit_, kSignatureHeadBytes);
  }
}

std::span<uint64_t> CompiledPolicy::NewScratch(ScratchMask* scratch) const {
  if (words_ <= kInlineMaskWords) {
    return {scratch->inline_words.data(), words_};
  }
  scratch->heap = NewMask();
  return scratch->heap;
}

void CompiledPolicy::CollectPrefixMatches(const std::string& path,
                                          std::span<uint64_t> out) const {
  // Mirrors witos::PathIsUnder's *literal* semantics: the gated path must
  // start with the (normalized) rule prefix at a '/' boundary. The walk
  // therefore consumes literal '/'-separated segments — an empty or "."
  // segment ends the descent exactly where the literal string compare would
  // diverge — and ORs every terminal reached along the way.
  if (path.empty() || path[0] != '/') {
    return;  // PathIsUnder never matches a relative path
  }
  uint32_t node = 0;
  if (!trie_[node].terminal.empty()) {
    OrInto(out, trie_[node].terminal);  // a "/" prefix covers every absolute path
  }
  size_t i = 1;
  while (i < path.size()) {
    size_t start = i;
    while (i < path.size() && path[i] != '/') {
      ++i;
    }
    std::string_view comp(path.data() + start, i - start);
    auto it = trie_[node].children.find(comp);
    if (it == trie_[node].children.end()) {
      return;
    }
    node = it->second;
    if (!trie_[node].terminal.empty()) {
      OrInto(out, trie_[node].terminal);
    }
    ++i;  // skip the '/'
  }
}

void CompiledPolicy::CollectExtensionMatch(const std::string& path,
                                           std::span<uint64_t> out) const {
  if (ext_table_.empty()) {
    return;
  }
  std::string ext = witos::Extension(path);
  if (ext.empty()) {
    return;
  }
  const size_t slots = ext_table_.size();
  size_t slot = Fnv1a(ext) & (slots - 1);
  while (!ext_table_[slot].ext.empty()) {
    if (ext_table_[slot].ext == ext) {
      OrInto(out, ext_table_[slot].mask);
      return;
    }
    slot = (slot + 1) & (slots - 1);
  }
}

PolicyDecision CompiledPolicy::Finish(ItfsOpKind op, const std::string& path,
                                      std::string_view head,
                                      std::span<uint64_t> matched) const {
  const bool is_write = op == ItfsOpKind::kWrite || op == ItfsOpKind::kUnlink ||
                        op == ItfsOpKind::kRename;
  if (!is_write) {
    for (size_t w = 0; w < matched.size(); ++w) {
      matched[w] &= non_write_eligible_[w];
    }
  }

  // First selector-matched terminal (deny OR allow) bounds how far the
  // reference scan would get; custom detectors past it were never invoked
  // there either.
  size_t limit = rules_.size();
  for (size_t w = 0; w < matched.size(); ++w) {
    uint64_t terminals = matched[w] & terminal_mask_[w];
    if (terminals != 0) {
      limit = w * 64 + static_cast<size_t>(__builtin_ctzll(terminals));
      break;
    }
  }
  for (uint32_t c : custom_rules_) {
    if (c >= limit) {
      break;
    }
    const RuleMeta& rule = rules_[c];
    if (rule.write_only && !is_write) {
      continue;
    }
    if ((matched[c / 64] >> (c % 64)) & 1) {
      continue;  // a selector already matched; the reference scan skips custom
    }
    if (rule.custom(path, head)) {
      SetBit(matched, c);
      if (rule.action != RuleAction::kLogOnly) {
        limit = c;
      }
    }
  }

  // The first matched terminal rule decides; log-only matches only name the
  // decision when no terminal matched at all.
  size_t first_terminal = rules_.size();
  size_t first_log = rules_.size();
  for (size_t w = 0; w < matched.size() && first_terminal == rules_.size(); ++w) {
    uint64_t terminals = matched[w] & terminal_mask_[w];
    if (terminals != 0) {
      first_terminal = w * 64 + static_cast<size_t>(__builtin_ctzll(terminals));
    }
  }
  for (size_t w = 0; w < matched.size() && first_log == rules_.size(); ++w) {
    uint64_t logs = matched[w] & ~terminal_mask_[w];
    if (logs != 0) {
      first_log = w * 64 + static_cast<size_t>(__builtin_ctzll(logs));
    }
  }
  if (first_terminal < rules_.size()) {
    const bool deny = ((deny_mask_[first_terminal / 64] >> (first_terminal % 64)) & 1) != 0;
    return {deny, rules_[first_terminal].name};
  }
  if (first_log < rules_.size()) {
    return {false, rules_[first_log].name};
  }
  return {false, ""};
}

PolicyDecision CompiledPolicy::Evaluate(ItfsOpKind op, const std::string& path,
                                        std::string_view head) const {
  if (rules_.empty()) {
    return {false, ""};
  }
  ScratchMask scratch;
  const std::span<uint64_t> matched = NewScratch(&scratch);
  CollectExtensionMatch(path, matched);
  CollectPrefixMatches(path, matched);
  if (mode_ == InspectionMode::kSignature && !head.empty() && AnySet(any_signature_)) {
    // The reference evaluator classifies lazily, but DetectSignature is pure,
    // so classifying eagerly here cannot change any decision.
    FileClass cls = DetectSignature(head);
    OrInto(matched, class_masks_[static_cast<size_t>(cls)]);
  }
  return Finish(op, path, head, matched);
}

PolicyDecision CompiledPolicy::EvaluateClassified(ItfsOpKind op, const std::string& path,
                                                  FileClass cls, bool has_content) const {
  if (rules_.empty()) {
    return {false, ""};
  }
  ScratchMask scratch;
  const std::span<uint64_t> matched = NewScratch(&scratch);
  CollectExtensionMatch(path, matched);
  CollectPrefixMatches(path, matched);
  if (mode_ == InspectionMode::kSignature && has_content) {
    OrInto(matched, class_masks_[static_cast<size_t>(cls)]);
  }
  // CacheableVerdicts() implies no custom rules, so Finish's detector loop
  // is a no-op and the empty head is never inspected.
  return Finish(op, path, {}, matched);
}

namespace {

bool PrefixesCovered(const std::vector<std::string>& inner,
                     const std::vector<std::string>& outer) {
  for (const std::string& p : inner) {
    bool covered = false;
    for (const std::string& q : outer) {
      if (witos::PathIsUnder(p, q)) {
        covered = true;
        break;
      }
    }
    if (!covered) {
      return false;
    }
  }
  return true;
}

template <typename T>
bool SubsetOf(const std::vector<T>& inner, const std::vector<T>& outer) {
  for (const T& v : inner) {
    if (std::find(outer.begin(), outer.end(), v) == outer.end()) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::shared_ptr<const CompiledPolicy> ItfsPolicy::Compile(
    std::vector<CompileDiagnostic>* diagnostics) const {
  const uint64_t start_ns = WallNowNs();
  auto compiled = std::shared_ptr<CompiledPolicy>(
      new CompiledPolicy(rules_, mode_, log_all_, content_scan_limit_));

  if (diagnostics != nullptr) {
    std::map<std::string, size_t> first_by_name;
    for (size_t i = 0; i < rules_.size(); ++i) {
      auto [it, inserted] = first_by_name.try_emplace(rules_[i].name, i);
      if (!inserted) {
        CompileDiagnostic diag;
        diag.kind = CompileDiagnostic::Kind::kDuplicateName;
        diag.rule_index = i;
        diag.earlier_index = it->second;
        diag.message = "rule #" + std::to_string(i) + " reuses name '" + rules_[i].name +
                       "' of rule #" + std::to_string(it->second) +
                       ": log and audit lines cannot be told apart";
        diagnostics->push_back(std::move(diag));
      }
    }
    for (size_t j = 0; j < rules_.size(); ++j) {
      const ItfsRule& later = rules_[j];
      if (later.custom != nullptr) {
        continue;  // a detector may match content no selector describes
      }
      const bool sig_active = mode_ == InspectionMode::kSignature;
      const bool has_active_selector = !later.extensions.empty() ||
                                       !later.path_prefixes.empty() ||
                                       (sig_active && !later.signatures.empty());
      if (!has_active_selector) {
        continue;
      }
      for (size_t i = 0; i < j; ++i) {
        const ItfsRule& earlier = rules_[i];
        if (earlier.action == RuleAction::kLogOnly) {
          continue;  // log-only rules never stop the scan; deny/allow do
        }
        if (earlier.write_only && !later.write_only) {
          continue;  // the earlier rule skips ops the later one still sees
        }
        if (!SubsetOf(later.extensions, earlier.extensions) ||
            !PrefixesCovered(later.path_prefixes, earlier.path_prefixes)) {
          continue;
        }
        if (sig_active && !SubsetOf(later.signatures, earlier.signatures)) {
          continue;
        }
        CompileDiagnostic diag;
        diag.kind = CompileDiagnostic::Kind::kShadowedRule;
        diag.rule_index = j;
        diag.earlier_index = i;
        diag.message = "rule '" + later.name + "' (#" + std::to_string(j) +
                       ") can never fire: every access it matches is already decided by '" +
                       earlier.name + "' (#" + std::to_string(i) + ")";
        diagnostics->push_back(std::move(diag));
        break;  // one shadow report per rule is enough
      }
    }
  }

  compiled->compile_ns_ = WallNowNs() - start_ns;
  return compiled;
}

}  // namespace witfs
