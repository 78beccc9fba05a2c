// CompiledPolicy: the differential property suite pinning the compiled
// evaluator decision- and rule-name-identical to the reference linear scan
// (tests/itfs_policy_reference.h), plus compile-time diagnostics
// (duplicate names, shadowed rules) and the head-size/cacheability contract
// the verdict cache builds on.

#include "src/fs/compiled_policy.h"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "src/fs/itfs_policy.h"
#include "src/fs/signature.h"
#include "tests/itfs_policy_reference.h"

namespace witfs {
namespace {

// When non-null, the property-test custom detectors append their rule tag
// here on every invocation, so the test can assert the compiled evaluator
// reproduces the reference detector call sequence exactly (stateful
// detectors must observe identical invocations, not just identical final
// decisions).
std::vector<int>* g_detector_log = nullptr;

// One differential case: the compiled evaluator must match the reference
// on the verdict, the rule name and the custom-detector call sequence.
::testing::AssertionResult AgreesWithReference(const ItfsPolicy& policy,
                                               const CompiledPolicy& compiled, ItfsOpKind op,
                                               const std::string& path,
                                               const std::string& head) {
  std::vector<int> reference_calls;
  std::vector<int> compiled_calls;
  g_detector_log = &reference_calls;
  PolicyDecision expected = reference::Evaluate(policy, op, path, head);
  g_detector_log = &compiled_calls;
  PolicyDecision fast = compiled.Evaluate(op, path, head);
  g_detector_log = nullptr;
  if (fast.deny != expected.deny || fast.rule != expected.rule) {
    return ::testing::AssertionFailure()
           << "path=" << path << " op=" << ItfsOpKindName(op) << " head_len=" << head.size()
           << ": compiled (" << fast.deny << ", " << fast.rule << ") vs reference ("
           << expected.deny << ", " << expected.rule << ")";
  }
  if (compiled_calls != reference_calls) {
    return ::testing::AssertionFailure()
           << "detector invocation sequences diverged, path=" << path;
  }
  return ::testing::AssertionSuccess();
}

ItfsRule RandomRule(std::mt19937* rng, int index) {
  static const std::vector<std::string> kExts = {"pdf", "xlsx", "log", "txt",
                                                 "jpg", "KEY",  "tar", "csv"};
  static const std::vector<std::string> kPrefixes = {
      "/",         "/home",           "/home/user", "/etc",
      "/usr/watchit", "/home/user/docs", "/var/log",   "/a/b"};
  static const std::vector<FileClass> kClasses = {
      FileClass::kText, FileClass::kJpeg, FileClass::kPdf,
      FileClass::kZipOffice, FileClass::kElf, FileClass::kEncrypted};

  std::uniform_int_distribution<int> coin(0, 1);
  std::uniform_int_distribution<int> d4(0, 3);
  std::uniform_int_distribution<size_t> ext_pick(0, kExts.size() - 1);
  std::uniform_int_distribution<size_t> prefix_pick(0, kPrefixes.size() - 1);
  std::uniform_int_distribution<size_t> class_pick(0, kClasses.size() - 1);

  ItfsRule rule;
  rule.name = "r" + std::to_string(index);
  int action = d4(*rng);
  rule.action = action == 0   ? RuleAction::kLogOnly
                : action == 1 ? RuleAction::kAllow
                              : RuleAction::kDeny;
  rule.write_only = d4(*rng) == 0;
  int num_ext = d4(*rng);
  for (int i = 0; i < num_ext; ++i) {
    rule.extensions.push_back(kExts[ext_pick(*rng)]);
  }
  int num_prefix = d4(*rng) - 1;
  for (int i = 0; i < num_prefix; ++i) {
    rule.path_prefixes.push_back(kPrefixes[prefix_pick(*rng)]);
  }
  int num_sig = d4(*rng) - 1;
  for (int i = 0; i < num_sig; ++i) {
    rule.signatures.push_back(kClasses[class_pick(*rng)]);
  }
  if (d4(*rng) == 0) {
    // Pure (deterministic) detector; logs its invocation for the
    // call-sequence assertion.
    int tag = index;
    int flavor = d4(*rng);
    rule.custom = [tag, flavor](const std::string& path, std::string_view head) {
      if (g_detector_log != nullptr) {
        g_detector_log->push_back(tag);
      }
      switch (flavor) {
        case 0:
          return path.find("secret") != std::string::npos;
        case 1:
          return !head.empty() && head[0] == '%';
        case 2:
          return head.size() > 8;
        default:
          return false;
      }
    };
  }
  return rule;
}

TEST(CompiledPolicyTest, DifferentialPropertyTenThousandCases) {
  // 500 random policies x 24 (path, op, head) probes = 12000 comparisons.
  // Probes deliberately include non-normalized, relative, dotted, and
  // extension-edge-case paths: the compiled trie must reproduce
  // PathIsUnder's *literal* string semantics, not a smarter one.
  static const std::vector<std::string> kPaths = {
      "/home/user/report.pdf", "/home/user/docs/x.xlsx", "/etc/passwd",
      "/usr/watchit/broker",   "/home/user",             "/a/b/c.tar",
      "/a//b/c.log",           "/a/./b/c.log",           "relative/path.pdf",
      "/",                     "/home/user/.bashrc",     "/home/user/file.",
      "/home/user/FILE.PDF",   "/var/log/secret.txt",    "/x",
      "/home/userx/evil.pdf"};
  static const std::vector<std::string> kHeads = {
      "",
      "%PDF-1.4 secret report",
      std::string("PK\x03\x04") + "zip",
      "\xFF\xD8\xFF\xE0jfif",
      "plain text content here",
      std::string(64, '\xA7'),
      "\x7f"
      "ELF",
      "x"};
  static const std::vector<ItfsOpKind> kOps = {
      ItfsOpKind::kOpen,   ItfsOpKind::kRead,   ItfsOpKind::kWrite,
      ItfsOpKind::kUnlink, ItfsOpKind::kRename, ItfsOpKind::kAttr,
      ItfsOpKind::kReaddir};

  std::mt19937 rng(20260808);
  std::uniform_int_distribution<int> rule_count(0, 9);
  std::uniform_int_distribution<int> coin(0, 1);
  std::uniform_int_distribution<size_t> path_pick(0, kPaths.size() - 1);
  std::uniform_int_distribution<size_t> head_pick(0, kHeads.size() - 1);
  std::uniform_int_distribution<size_t> op_pick(0, kOps.size() - 1);
  std::uniform_int_distribution<size_t> limit_pick(0, 3);
  static const size_t kLimits[] = {16, 64, 4096, 64 * 1024};

  size_t comparisons = 0;
  for (int trial = 0; trial < 500; ++trial) {
    ItfsPolicy policy;
    int n = rule_count(rng);
    for (int i = 0; i < n; ++i) {
      policy.AddRule(RandomRule(&rng, i));
    }
    policy.set_inspection_mode(coin(rng) != 0 ? InspectionMode::kSignature
                                              : InspectionMode::kExtensionOnly);
    policy.set_log_all(coin(rng) != 0);
    policy.set_content_scan_limit(kLimits[limit_pick(rng)]);
    auto compiled = policy.Compile();
    ASSERT_NE(compiled, nullptr);
    EXPECT_EQ(compiled->rule_count(), static_cast<size_t>(n));
    EXPECT_EQ(compiled->NeedsContent(), policy.NeedsContent());

    for (int probe = 0; probe < 24; ++probe) {
      const std::string& path = kPaths[path_pick(rng)];
      const std::string& head = kHeads[head_pick(rng)];
      ItfsOpKind op = kOps[op_pick(rng)];

      ASSERT_TRUE(AgreesWithReference(policy, *compiled, op, path, head)) << "trial " << trial;
      ++comparisons;
    }
  }
  EXPECT_GE(comparisons, 10000u);
}

TEST(CompiledPolicyTest, DifferentialWidePolicies) {
  // Bitsets of one to seven words: the widths an evaluation keeps on its
  // stack (up to 256 rules) and past them, on both sides of each word edge.
  static const std::vector<std::string> kPaths = {
      "/home/user/report.pdf", "/etc/passwd", "/a/b/c.tar", "/var/log/secret.txt",
      "/home/user/docs/x.xlsx", "/usr/watchit/broker", "relative/path.pdf", "/"};
  static const std::vector<std::string> kHeads = {"", "%PDF-1.4 secret report",
                                                  "plain text content here"};
  static const std::vector<ItfsOpKind> kOps = {ItfsOpKind::kOpen, ItfsOpKind::kRead,
                                               ItfsOpKind::kWrite, ItfsOpKind::kRename};
  std::mt19937 rng(20261019);
  for (int n : {63, 64, 65, 200, 256, 257, 400}) {
    for (int trial = 0; trial < 4; ++trial) {
      ItfsPolicy policy;
      for (int i = 0; i < n; ++i) {
        policy.AddRule(RandomRule(&rng, i));
      }
      policy.set_inspection_mode(trial % 2 == 0 ? InspectionMode::kSignature
                                                : InspectionMode::kExtensionOnly);
      auto compiled = policy.Compile();
      for (const std::string& path : kPaths) {
        for (const std::string& head : kHeads) {
          for (ItfsOpKind op : kOps) {
            ASSERT_TRUE(AgreesWithReference(policy, *compiled, op, path, head))
                << n << " rules, trial " << trial;
          }
        }
      }
    }
  }
}

TEST(CompiledPolicyTest, DifferentialSeedNineEveryProbe) {
  // A second seeded input: 100 policies of deny and log-only rules over a
  // narrower vocabulary, each checked on every (path, head, op) of an
  // 8 x 5 x 5 grid — 20000 comparisons.
  static const std::vector<std::string> kExts = {"pdf", "xlsx", "log", "txt", "jpg", "key"};
  static const std::vector<std::string> kPrefixes = {"/", "/home", "/home/user", "/etc",
                                                     "/usr/watchit", "/var/log"};
  static const std::vector<FileClass> kClasses = {FileClass::kText, FileClass::kJpeg,
                                                  FileClass::kPdf, FileClass::kZipOffice,
                                                  FileClass::kElf};
  static const std::vector<std::string> kPaths = {
      "/home/user/report.pdf", "/etc/passwd",      "/usr/watchit/broker",
      "/a/./b/c.log",          "relative/path.pdf", "/home/user/.bashrc",
      "/home/user/FILE.PDF",   "/var/log/x.txt"};
  static const std::vector<std::string> kHeads = {
      "", "%PDF-1.4 smoke", std::string("PK\x03\x04") + "zip", "\xFF\xD8\xFF\xE0jfif",
      "plain text"};
  static const std::vector<ItfsOpKind> kOps = {ItfsOpKind::kOpen, ItfsOpKind::kWrite,
                                               ItfsOpKind::kUnlink, ItfsOpKind::kRename,
                                               ItfsOpKind::kAttr};

  std::mt19937 rng(9);
  std::uniform_int_distribution<int> rule_count(0, 7);
  std::uniform_int_distribution<int> coin(0, 1);
  std::uniform_int_distribution<int> d4(0, 3);
  size_t comparisons = 0;
  for (int trial = 0; trial < 100; ++trial) {
    ItfsPolicy policy;
    int n = rule_count(rng);
    for (int i = 0; i < n; ++i) {
      ItfsRule rule;
      rule.name = "r";  // appended: GCC 12 at -O3 flags `"r" + std::string` (-Wrestrict)
      rule.name += std::to_string(i);
      rule.action = coin(rng) != 0 ? RuleAction::kDeny : RuleAction::kLogOnly;
      rule.write_only = d4(rng) == 0;
      for (int k = d4(rng); k > 0; --k) {
        rule.extensions.push_back(kExts[static_cast<size_t>(rng()) % kExts.size()]);
      }
      for (int k = d4(rng) - 1; k > 0; --k) {
        rule.path_prefixes.push_back(
            kPrefixes[static_cast<size_t>(rng()) % kPrefixes.size()]);
      }
      for (int k = d4(rng) - 1; k > 0; --k) {
        rule.signatures.push_back(kClasses[static_cast<size_t>(rng()) % kClasses.size()]);
      }
      policy.AddRule(std::move(rule));
    }
    policy.set_inspection_mode(coin(rng) != 0 ? InspectionMode::kSignature
                                              : InspectionMode::kExtensionOnly);
    policy.set_log_all(coin(rng) != 0);
    auto compiled = policy.Compile();
    ASSERT_NE(compiled, nullptr);
    for (const auto& path : kPaths) {
      for (const auto& head : kHeads) {
        for (ItfsOpKind op : kOps) {
          ASSERT_TRUE(AgreesWithReference(policy, *compiled, op, path, head))
              << "trial " << trial;
          ++comparisons;
        }
      }
    }
  }
  EXPECT_EQ(comparisons, 20000u);
}

TEST(CompiledPolicyTest, ClassifiedEvaluationMatchesRawForCacheablePolicies) {
  // The verdict-cache path evaluates with (class, has_content) instead of
  // raw bytes. For policies without custom detectors the two forms must be
  // indistinguishable — this is what makes caching the class sound.
  std::mt19937 rng(77);
  std::uniform_int_distribution<int> rule_count(1, 8);
  for (int trial = 0; trial < 200; ++trial) {
    ItfsPolicy policy;
    int n = rule_count(rng);
    for (int i = 0; i < n; ++i) {
      ItfsRule rule = RandomRule(&rng, i);
      rule.custom = nullptr;  // cacheable policies have no detectors
      policy.AddRule(std::move(rule));
    }
    policy.set_inspection_mode(InspectionMode::kSignature);
    auto compiled = policy.Compile();
    ASSERT_TRUE(compiled->CacheableVerdicts() || !compiled->NeedsContent());

    for (const std::string& path :
         {std::string("/home/user/report.pdf"), std::string("/etc/passwd"),
          std::string("/a/b/c.tar")}) {
      for (const std::string& head :
           {std::string(""), std::string("%PDF-1.4"), std::string("plain")}) {
        for (ItfsOpKind op : {ItfsOpKind::kOpen, ItfsOpKind::kWrite}) {
          PolicyDecision raw = compiled->Evaluate(op, path, head);
          PolicyDecision classified = compiled->EvaluateClassified(
              op, path, DetectSignature(head), !head.empty());
          EXPECT_EQ(raw.deny, classified.deny) << path << " " << head;
          EXPECT_EQ(raw.rule, classified.rule) << path << " " << head;
        }
      }
    }
  }
}

TEST(CompiledPolicyTest, RootPrefixMatchesAbsolutePathsOnly) {
  ItfsPolicy policy;
  policy.AddRule(ItfsPolicy::ProtectPathsRule({"/"}));
  auto compiled = policy.Compile();
  EXPECT_TRUE(compiled->Evaluate(ItfsOpKind::kOpen, "/anything", {}).deny);
  EXPECT_TRUE(compiled->Evaluate(ItfsOpKind::kOpen, "/", {}).deny);
  EXPECT_FALSE(compiled->Evaluate(ItfsOpKind::kOpen, "relative", {}).deny);
  EXPECT_FALSE(compiled->Evaluate(ItfsOpKind::kOpen, "", {}).deny);
}

TEST(CompiledPolicyTest, TrieReproducesLiteralPrefixBoundaries) {
  ItfsPolicy policy;
  policy.AddRule(ItfsPolicy::ProtectPathsRule({"/home/user"}));
  auto compiled = policy.Compile();
  EXPECT_TRUE(compiled->Evaluate(ItfsOpKind::kOpen, "/home/user", {}).deny);
  EXPECT_TRUE(compiled->Evaluate(ItfsOpKind::kOpen, "/home/user/f", {}).deny);
  EXPECT_TRUE(compiled->Evaluate(ItfsOpKind::kOpen, "/home/user/", {}).deny);
  // "/home/userx" shares the string prefix but not the component boundary.
  EXPECT_FALSE(compiled->Evaluate(ItfsOpKind::kOpen, "/home/userx", {}).deny);
  // A "." component breaks the *literal* match, exactly like PathIsUnder.
  EXPECT_FALSE(compiled->Evaluate(ItfsOpKind::kOpen, "/home/./user/f", {}).deny);
  // A doubled slash inside the prefix span breaks it too...
  EXPECT_FALSE(compiled->Evaluate(ItfsOpKind::kOpen, "/home//user/f", {}).deny);
  // ...but after the prefix it is irrelevant.
  EXPECT_TRUE(compiled->Evaluate(ItfsOpKind::kOpen, "/home/user//f", {}).deny);
}

TEST(CompiledPolicyTest, DuplicateNameDiagnostic) {
  ItfsPolicy policy;
  ItfsRule a;
  a.name = "same";
  a.extensions = {"pdf"};
  policy.AddRule(a);
  ItfsRule b;
  b.name = "same";
  b.extensions = {"txt"};
  policy.AddRule(b);
  std::vector<CompileDiagnostic> diags;
  auto compiled = policy.Compile(&diags);
  ASSERT_NE(compiled, nullptr);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].kind, CompileDiagnostic::Kind::kDuplicateName);
  EXPECT_EQ(diags[0].rule_index, 1u);
  EXPECT_EQ(diags[0].earlier_index, 0u);
}

TEST(CompiledPolicyTest, ShadowedRuleDiagnostics) {
  // Rule 1's extension set is a subset of deny rule 0's -> it can never fire.
  {
    ItfsPolicy policy;
    ItfsRule wide;
    wide.name = "wide";
    wide.action = RuleAction::kDeny;
    wide.extensions = {"pdf", "xlsx"};
    policy.AddRule(wide);
    ItfsRule narrow;
    narrow.name = "narrow";
    narrow.action = RuleAction::kLogOnly;
    narrow.extensions = {"pdf"};
    policy.AddRule(narrow);
    std::vector<CompileDiagnostic> diags;
    (void)policy.Compile(&diags);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].kind, CompileDiagnostic::Kind::kShadowedRule);
    EXPECT_EQ(diags[0].rule_index, 1u);
    EXPECT_EQ(diags[0].earlier_index, 0u);
  }
  // Prefix containment shadows too.
  {
    ItfsPolicy policy;
    policy.AddRule(ItfsPolicy::ProtectPathsRule({"/home"}));
    ItfsRule under;
    under.name = "under";
    under.action = RuleAction::kDeny;
    under.path_prefixes = {"/home/user/docs"};
    policy.AddRule(under);
    std::vector<CompileDiagnostic> diags;
    (void)policy.Compile(&diags);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].kind, CompileDiagnostic::Kind::kShadowedRule);
  }
}

TEST(CompiledPolicyTest, NoFalseShadowDiagnostics) {
  std::vector<CompileDiagnostic> diags;
  // A write-only deny does not shadow an any-op rule (reads still reach it).
  {
    ItfsPolicy policy;
    policy.AddRule(ItfsPolicy::ReadOnlyRule({"/etc"}));  // deny, write-only
    ItfsRule watch;
    watch.name = "watch-etc";
    watch.action = RuleAction::kLogOnly;
    watch.path_prefixes = {"/etc"};
    policy.AddRule(watch);
    diags.clear();
    (void)policy.Compile(&diags);
    EXPECT_TRUE(diags.empty());
  }
  // A log-only earlier rule never shadows (the scan continues past it).
  {
    ItfsPolicy policy;
    ItfsRule log_rule;
    log_rule.name = "log-pdf";
    log_rule.action = RuleAction::kLogOnly;
    log_rule.extensions = {"pdf"};
    policy.AddRule(log_rule);
    ItfsRule deny_rule;
    deny_rule.name = "deny-pdf";
    deny_rule.action = RuleAction::kDeny;
    deny_rule.extensions = {"pdf"};
    policy.AddRule(deny_rule);
    diags.clear();
    (void)policy.Compile(&diags);
    EXPECT_TRUE(diags.empty());
  }
  // A custom detector may match content no selector describes: never
  // reported as shadowed.
  {
    ItfsPolicy policy;
    ItfsRule wide;
    wide.name = "wide";
    wide.action = RuleAction::kDeny;
    wide.extensions = {"pdf"};
    policy.AddRule(wide);
    ItfsRule det;
    det.name = "detector";
    det.action = RuleAction::kDeny;
    det.extensions = {"pdf"};
    det.custom = [](const std::string&, std::string_view) { return false; };
    policy.AddRule(det);
    diags.clear();
    (void)policy.Compile(&diags);
    EXPECT_TRUE(diags.empty());
  }
  // The canned hard-constraint pair must compile clean.
  {
    ItfsPolicy policy;
    policy.AddRule(ItfsPolicy::ProtectPathsRule({"/usr/watchit", "/etc/watchit"}));
    policy.AddRule(ItfsPolicy::DenyDocumentsRule());
    diags.clear();
    (void)policy.Compile(&diags);
    EXPECT_TRUE(diags.empty());
  }
}

TEST(CompiledPolicyTest, RequiredHeadBytesContract) {
  // Pure signature policy: classification consumes at most the magic-byte
  // head, so the compiled policy clamps the per-gate read to 64 bytes no
  // matter how deep the configured scan window is.
  ItfsPolicy policy;
  policy.AddRule(ItfsPolicy::DenyDocumentsRule());
  policy.set_inspection_mode(InspectionMode::kSignature);
  policy.set_content_scan_limit(64 * 1024);
  auto compiled = policy.Compile();
  EXPECT_TRUE(compiled->NeedsContent());
  EXPECT_TRUE(compiled->CacheableVerdicts());
  EXPECT_EQ(compiled->required_head_bytes(), kSignatureHeadBytes);

  // A scan limit below 64 wins the min.
  policy.set_content_scan_limit(16);
  EXPECT_EQ(policy.Compile()->required_head_bytes(), 16u);
  policy.set_content_scan_limit(64 * 1024);

  // A custom detector may scan deep content: the full window is honored and
  // verdicts become uncacheable (detectors may be stateful).
  ItfsRule det;
  det.name = "deep";
  det.custom = [](const std::string&, std::string_view) { return false; };
  policy.AddRule(std::move(det));
  compiled = policy.Compile();
  EXPECT_TRUE(compiled->has_custom_rules());
  EXPECT_FALSE(compiled->CacheableVerdicts());
  EXPECT_EQ(compiled->required_head_bytes(), 64u * 1024u);

  // Extension mode never needs content at all.
  ItfsPolicy ext_only;
  ext_only.AddRule(ItfsPolicy::DenyDocumentsRule());
  compiled = ext_only.Compile();
  EXPECT_FALSE(compiled->NeedsContent());
  EXPECT_EQ(compiled->required_head_bytes(), 0u);
}

TEST(CompiledPolicyTest, CompileIsSnapshotIsolatedFromBuilder) {
  ItfsPolicy policy;
  policy.AddRule(ItfsPolicy::DenyDocumentsRule());
  auto compiled = policy.Compile();
  EXPECT_EQ(compiled->rule_count(), 1u);
  // Later builder mutations must not leak into the compiled snapshot.
  policy.AddRule(ItfsPolicy::ProtectPathsRule({"/etc"}));
  policy.set_log_all(true);
  EXPECT_EQ(compiled->rule_count(), 1u);
  EXPECT_FALSE(compiled->log_all());
  EXPECT_FALSE(compiled->Evaluate(ItfsOpKind::kOpen, "/etc/passwd", {}).deny);
  EXPECT_TRUE(policy.Compile()->Evaluate(ItfsOpKind::kOpen, "/etc/passwd", {}).deny);
}

TEST(CompiledPolicyTest, IndexSizesAreReported) {
  ItfsPolicy policy;
  policy.AddRule(ItfsPolicy::DenyDocumentsRule());
  policy.AddRule(ItfsPolicy::ProtectPathsRule({"/usr/watchit", "/etc/watchit"}));
  auto compiled = policy.Compile();
  // Root + usr + usr/watchit + etc + etc/watchit.
  EXPECT_EQ(compiled->trie_node_count(), 5u);
  EXPECT_GE(compiled->extension_slot_count(), DocumentExtensions().size());
  EXPECT_GT(compiled->compile_ns(), 0u);
}

}  // namespace
}  // namespace witfs
