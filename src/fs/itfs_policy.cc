#include "src/fs/itfs_policy.h"

#include <algorithm>
#include <atomic>

#include "src/os/path.h"

namespace witfs {

std::string ItfsOpKindName(ItfsOpKind op) {
  switch (op) {
    case ItfsOpKind::kOpen:
      return "open";
    case ItfsOpKind::kRead:
      return "read";
    case ItfsOpKind::kWrite:
      return "write";
    case ItfsOpKind::kReaddir:
      return "readdir";
    case ItfsOpKind::kUnlink:
      return "unlink";
    case ItfsOpKind::kRename:
      return "rename";
    case ItfsOpKind::kAttr:
      return "attr";
  }
  return "?";
}

const std::vector<std::string>& DocumentExtensions() {
  static const std::vector<std::string> kExts = {
      "doc", "docx", "xls", "xlsx", "ppt", "pptx", "pdf", "odt",  "ods",
      "jpg", "jpeg", "png", "gif",  "bmp", "tif",  "csv", "eml",  "msg",
  };
  return kExts;
}

ItfsPolicy::ItfsPolicy(ItfsPolicy&& other) noexcept { *this = std::move(other); }

ItfsPolicy& ItfsPolicy::operator=(ItfsPolicy&& other) noexcept {
  if (this != &other) {
    rules_ = std::move(other.rules_);
    mode_ = other.mode_;
    log_all_ = other.log_all_;
    content_scan_limit_ = other.content_scan_limit_;
    revision_ = other.revision_;
    other.rules_.clear();
    other.Touch();
  }
  return *this;
}

void ItfsPolicy::Touch() {
  static std::atomic<uint64_t> next_revision{1};
  revision_ = next_revision.fetch_add(1, std::memory_order_relaxed);
}

void ItfsPolicy::AddRule(ItfsRule rule) {
  // PathIsUnder requires normalized prefixes: a trailing slash or a "."/".."
  // component in a rule ("/etc/", "/etc/../etc") would otherwise never match
  // any gated path and the rule would be silently inert — a containment hole,
  // not a cosmetic mismatch. Normalize once at ingestion.
  for (auto& prefix : rule.path_prefixes) {
    prefix = witos::NormalizePath(prefix);
  }
  rules_.push_back(std::move(rule));
  Touch();
}

void ItfsPolicy::Merge(const ItfsPolicy& other) {
  for (const auto& rule : other.rules_) {
    rules_.push_back(rule);
  }
  if (other.mode_ == InspectionMode::kSignature) {
    mode_ = InspectionMode::kSignature;
  }
  Touch();
}

bool ItfsPolicy::NeedsContent() const {
  if (mode_ != InspectionMode::kSignature) {
    return false;
  }
  return std::any_of(rules_.begin(), rules_.end(), [](const ItfsRule& r) {
    return !r.signatures.empty() || r.custom != nullptr;
  });
}

ItfsRule ItfsPolicy::DenyDocumentsRule() {
  ItfsRule rule;
  rule.name = "deny-documents";
  rule.action = RuleAction::kDeny;
  rule.extensions = DocumentExtensions();
  rule.signatures = {FileClass::kJpeg, FileClass::kPng,       FileClass::kGif,
                     FileClass::kPdf,  FileClass::kZipOffice, FileClass::kOleOffice};
  return rule;
}

ItfsRule ItfsPolicy::ProtectPathsRule(std::vector<std::string> prefixes) {
  ItfsRule rule;
  rule.name = "protect-watchit";
  rule.action = RuleAction::kDeny;
  rule.path_prefixes = std::move(prefixes);
  return rule;
}

ItfsRule ItfsPolicy::ReadOnlyRule(std::vector<std::string> prefixes) {
  ItfsRule rule;
  rule.name = "read-only";
  rule.action = RuleAction::kDeny;
  rule.path_prefixes = std::move(prefixes);
  rule.write_only = true;
  return rule;
}

}  // namespace witfs
