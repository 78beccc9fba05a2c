#include "src/fs/itfs.h"

#include <gtest/gtest.h>

#include <memory>

#include "src/fs/fuse.h"
#include "src/obs/export.h"
#include "src/os/audit.h"
#include "src/os/memfs.h"

namespace witfs {
namespace {

witos::Credentials Root() { return witos::Credentials{}; }

witos::Credentials Admin() {
  witos::Credentials cred;
  cred.uid = 0;
  cred.caps = witos::CapabilitySet::Empty();
  return cred;
}

std::shared_ptr<witos::MemFs> MakeLower() {
  auto lower = std::make_shared<witos::MemFs>();
  lower->ProvisionFile("/etc/passwd", "root:x:0:0\n");
  lower->ProvisionFile("/home/payroll.xlsx", std::string("PK\x03\x04") + "salaries");
  lower->ProvisionFile("/home/photo.jpg", "\xFF\xD8\xFF\xE0jfif");
  lower->ProvisionFile("/home/disguised.log", "%PDF-1.4 secret report");
  lower->ProvisionFile("/home/notes.txt", "todo\n");
  lower->ProvisionFile("/usr/watchit/broker", "\x7f" "ELF");
  return lower;
}

// The details of `audit`'s records of `event`, in chain order.
std::vector<std::string> Details(const witos::AuditLog& audit, witos::AuditEvent event) {
  std::vector<std::string> details;
  for (const witos::AuditRecord& record : audit.Snapshot()) {
    if (record.event == event) {
      details.push_back(record.detail);
    }
  }
  return details;
}

TEST(ItfsTest, AllowsAndCountsNormalAccess) {
  ItfsPolicy policy;
  policy.AddRule(ItfsPolicy::DenyDocumentsRule());
  witos::AuditLog audit;
  Itfs itfs(MakeLower(), std::move(policy), Root(), nullptr, &audit);
  auto tally = std::make_shared<witobs::OutcomeTally>();
  itfs.set_tally(tally);
  std::string buf;
  ASSERT_TRUE(itfs.ReadAt("/etc/passwd", 0, 100, &buf, Admin()).ok());
  EXPECT_EQ(buf, "root:x:0:0\n");
  EXPECT_EQ(tally->Read().allowed, 1u);
  EXPECT_EQ(tally->Read().denied, 0u);
  EXPECT_EQ(audit.CountEvent(witos::AuditEvent::kFileDenied), 0u);
}

TEST(ItfsTest, DeniesDocumentsByExtension) {
  ItfsPolicy policy;
  policy.AddRule(ItfsPolicy::DenyDocumentsRule());
  witos::AuditLog audit;
  Itfs itfs(MakeLower(), std::move(policy), Root(), nullptr, &audit);
  EXPECT_EQ(itfs.Open("/home/payroll.xlsx", witos::kOpenRead, 0, Admin()).error(),
            witos::Err::kAcces);
  EXPECT_EQ(itfs.Open("/home/photo.jpg", witos::kOpenRead, 0, Admin()).error(),
            witos::Err::kAcces);
  // Extension mode misses content smuggled under an innocent name.
  EXPECT_TRUE(itfs.Open("/home/disguised.log", witos::kOpenRead, 0, Admin()).ok());
  EXPECT_EQ(Details(audit, witos::AuditEvent::kFileDenied),
            (std::vector<std::string>{"open /home/payroll.xlsx [deny-documents]",
                                      "open /home/photo.jpg [deny-documents]"}));
}

// What ITFS chains: every denial, each access a rule matches (a log rule's
// hits as kFileAccess), and with log_all every access. The default chains
// no access that no rule matched.
TEST(ItfsTest, ChainsDenialsRuleHitsAndLogAllAccesses) {
  auto run = [](bool log_all) {
    ItfsPolicy policy;
    policy.AddRule(ItfsPolicy::ReadOnlyRule({"/etc"}));
    ItfsRule watch;
    watch.name = "watch-home";
    watch.action = RuleAction::kLogOnly;
    watch.path_prefixes = {"/home"};
    policy.AddRule(std::move(watch));
    if (log_all) {
      policy.set_log_all(true);
    }
    auto audit = std::make_unique<witos::AuditLog>();
    Itfs itfs(MakeLower(), policy, Root(), nullptr, audit.get());
    std::string buf;
    EXPECT_TRUE(itfs.ReadAt("/etc/passwd", 0, 4, &buf, Admin()).ok());
    EXPECT_EQ(itfs.WriteAt("/etc/passwd", 0, "x", Admin()).error(), witos::Err::kAcces);
    EXPECT_TRUE(itfs.ReadAt("/home/notes.txt", 0, 4, &buf, Admin()).ok());
    return audit;
  };
  EXPECT_FALSE(ItfsPolicy().log_all());
  std::unique_ptr<witos::AuditLog> by_default = run(false);
  EXPECT_EQ(Details(*by_default, witos::AuditEvent::kFileDenied),
            (std::vector<std::string>{"write /etc/passwd [read-only]"}));
  EXPECT_EQ(Details(*by_default, witos::AuditEvent::kFileAccess),
            (std::vector<std::string>{"read /home/notes.txt [watch-home]"}));
  EXPECT_EQ(by_default->size(), 2u);

  std::unique_ptr<witos::AuditLog> everything = run(true);
  EXPECT_EQ(Details(*everything, witos::AuditEvent::kFileDenied),
            (std::vector<std::string>{"write /etc/passwd [read-only]"}));
  EXPECT_EQ(Details(*everything, witos::AuditEvent::kFileAccess),
            (std::vector<std::string>{"read /etc/passwd []", "read /home/notes.txt [watch-home]"}));
  for (const witos::AuditRecord& record : everything->Snapshot()) {
    EXPECT_EQ(record.pid, witos::kNoPid);  // a standalone instance
    EXPECT_EQ(record.uid, Admin().uid);
  }
  EXPECT_TRUE(everything->Verify());
}

TEST(ItfsTest, SignatureModeCatchesDisguisedContent) {
  ItfsPolicy policy;
  policy.AddRule(ItfsPolicy::DenyDocumentsRule());
  policy.set_inspection_mode(InspectionMode::kSignature);
  Itfs itfs(MakeLower(), std::move(policy), Root());
  // The PDF hiding behind a .log name is caught by its magic bytes.
  EXPECT_EQ(itfs.Open("/home/disguised.log", witos::kOpenRead, 0, Admin()).error(),
            witos::Err::kAcces);
  EXPECT_TRUE(itfs.Open("/home/notes.txt", witos::kOpenRead, 0, Admin()).ok());
}

TEST(ItfsTest, VisibleButNotOpenable) {
  // "can block access to specific files even if the contained administrator
  // can see that they exist" (§1).
  ItfsPolicy policy;
  policy.AddRule(ItfsPolicy::DenyDocumentsRule());
  Itfs itfs(MakeLower(), std::move(policy), Root());
  auto st = itfs.GetAttr("/home/payroll.xlsx", Admin());
  ASSERT_TRUE(st.ok());
  EXPECT_GT(st->size, 0u);
  auto entries = itfs.ReadDir("/home", Admin());
  ASSERT_TRUE(entries.ok());
  bool listed = false;
  for (const auto& entry : *entries) {
    listed |= entry.name == "payroll.xlsx";
  }
  EXPECT_TRUE(listed);
  EXPECT_EQ(itfs.Open("/home/payroll.xlsx", witos::kOpenRead, 0, Admin()).error(),
            witos::Err::kAcces);
}

TEST(ItfsTest, ProtectsWatchItFiles) {
  ItfsPolicy policy;
  policy.AddRule(ItfsPolicy::ProtectPathsRule({"/usr/watchit"}));
  Itfs itfs(MakeLower(), std::move(policy), Root());
  EXPECT_EQ(itfs.Open("/usr/watchit/broker", witos::kOpenRead, 0, Admin()).error(),
            witos::Err::kAcces);
  EXPECT_EQ(itfs.Unlink("/usr/watchit/broker", Admin()).error(), witos::Err::kAcces);
  EXPECT_EQ(itfs.Rename("/usr/watchit/broker", "/tmp/b", Admin()).error(),
            witos::Err::kAcces);
}

TEST(ItfsTest, ReadOnlyRuleBlocksWritesAllowsReads) {
  ItfsPolicy policy;
  policy.AddRule(ItfsPolicy::ReadOnlyRule({"/etc"}));
  Itfs itfs(MakeLower(), std::move(policy), Root());
  std::string buf;
  EXPECT_TRUE(itfs.ReadAt("/etc/passwd", 0, 10, &buf, Admin()).ok());
  EXPECT_EQ(itfs.WriteAt("/etc/passwd", 0, "x", Admin()).error(), witos::Err::kAcces);
  EXPECT_EQ(itfs.Truncate("/etc/passwd", 0, Admin()).error(), witos::Err::kAcces);
}

TEST(ItfsTest, CustomDetectorRule) {
  ItfsPolicy policy;
  ItfsRule rule;
  rule.name = "no-salary-data";
  rule.action = RuleAction::kDeny;
  rule.custom = [](const std::string& path, std::string_view) {
    return path.find("payroll") != std::string::npos;
  };
  policy.AddRule(std::move(rule));
  Itfs itfs(MakeLower(), std::move(policy), Root());
  EXPECT_EQ(itfs.Open("/home/payroll.xlsx", witos::kOpenRead, 0, Admin()).error(),
            witos::Err::kAcces);
  EXPECT_TRUE(itfs.Open("/home/notes.txt", witos::kOpenRead, 0, Admin()).ok());
}

TEST(ItfsTest, LogOnlyRuleAllowsButTags) {
  ItfsPolicy policy;
  ItfsRule rule;
  rule.name = "watch-etc";
  rule.action = RuleAction::kLogOnly;
  rule.path_prefixes = {"/etc"};
  policy.AddRule(std::move(rule));
  witos::AuditLog audit;
  Itfs itfs(MakeLower(), std::move(policy), Root(), nullptr, &audit);
  std::string buf;
  ASSERT_TRUE(itfs.ReadAt("/etc/passwd", 0, 10, &buf, Admin()).ok());
  ASSERT_EQ(audit.size(), 1u);
  EXPECT_EQ(audit.Snapshot()[0].event, witos::AuditEvent::kFileAccess);
  EXPECT_EQ(audit.Snapshot()[0].detail, "read /etc/passwd [watch-etc]");
  // Unmatched paths are not logged when log_all is off.
  ASSERT_TRUE(itfs.ReadAt("/home/notes.txt", 0, 4, &buf, Admin()).ok());
  EXPECT_EQ(audit.size(), 1u);
}

TEST(ItfsTest, InvokerPrivilegesSubstituteCallerPrivileges) {
  // FUSE semantics: the contained admin inherits the invoker's (root's)
  // power over exposed files, even for files owned by others.
  auto lower = std::make_shared<witos::MemFs>();
  lower->ProvisionFile("/data/file", "owned by uid 1000", 1000, 1000, 0600);
  Itfs itfs(lower, ItfsPolicy(), Root());
  witos::Credentials contained_admin = Admin();
  std::string buf;
  EXPECT_TRUE(itfs.ReadAt("/data/file", 0, 100, &buf, contained_admin).ok());
  EXPECT_TRUE(itfs.WriteAt("/data/file", 0, "fixed", contained_admin).ok());
}

TEST(ItfsTest, HardLinkCannotSmuggleDeniedContent) {
  // Renaming/linking a blocked document to an innocent name must not
  // launder it past the extension filter.
  ItfsPolicy policy;
  policy.AddRule(ItfsPolicy::DenyDocumentsRule());
  policy.set_inspection_mode(InspectionMode::kSignature);
  Itfs itfs(MakeLower(), std::move(policy), Root());
  EXPECT_EQ(itfs.Link("/home/payroll.xlsx", "/home/innocent.log", Admin()).error(),
            witos::Err::kAcces);
  EXPECT_EQ(itfs.Rename("/home/payroll.xlsx", "/home/innocent.log", Admin()).error(),
            witos::Err::kAcces);
  // Linking clean content is fine.
  EXPECT_TRUE(itfs.Link("/home/notes.txt", "/home/notes-link.txt", Admin()).ok());
  std::string buf;
  EXPECT_TRUE(itfs.ReadAt("/home/notes-link.txt", 0, 16, &buf, Admin()).ok());
}

TEST(ItfsTest, RenameIntoReadOnlyTreeDeniedAndLoggedBothDirections) {
  // A rename is a write on BOTH ends: moving a file into a read-only tree
  // plants content there, moving one out deletes content from it. Both
  // directions must bounce off the gate and leave an audit trail.
  auto lower = MakeLower();
  lower->ProvisionFile("/archive/old.txt", "frozen");
  ItfsPolicy policy;
  policy.AddRule(ItfsPolicy::ReadOnlyRule({"/archive"}));
  witos::AuditLog audit;
  Itfs itfs(lower, std::move(policy), Root(), nullptr, &audit);

  // Permitted tree -> read-only tree: denied at the destination gate.
  EXPECT_EQ(itfs.Rename("/home/notes.txt", "/archive/notes.txt", Admin()).error(),
            witos::Err::kAcces);
  // Read-only tree -> permitted tree: denied at the source gate.
  EXPECT_EQ(itfs.Rename("/archive/old.txt", "/home/old.txt", Admin()).error(),
            witos::Err::kAcces);
  EXPECT_EQ(audit.size(), 2u);
  EXPECT_EQ(Details(audit, witos::AuditEvent::kFileDenied),
            (std::vector<std::string>{"rename /archive/notes.txt [read-only]",
                                      "rename /archive/old.txt [read-only]"}));
  // Neither file moved.
  EXPECT_TRUE(lower->GetAttr("/home/notes.txt", Root()).ok());
  EXPECT_TRUE(lower->GetAttr("/archive/old.txt", Root()).ok());
  EXPECT_FALSE(lower->GetAttr("/archive/notes.txt", Root()).ok());
  EXPECT_FALSE(lower->GetAttr("/home/old.txt", Root()).ok());
}

TEST(ItfsTest, RenameIntoProtectedTreeDenied) {
  // The inbound direction of ProtectsWatchItFiles: planting a file inside
  // the protected WatchIT tree (e.g. to shadow a binary) is denied too.
  ItfsPolicy policy;
  policy.AddRule(ItfsPolicy::ProtectPathsRule({"/usr/watchit"}));
  witos::AuditLog audit;
  Itfs itfs(MakeLower(), std::move(policy), Root(), nullptr, &audit);
  EXPECT_EQ(itfs.Rename("/home/notes.txt", "/usr/watchit/broker", Admin()).error(),
            witos::Err::kAcces);
  EXPECT_GE(audit.CountEvent(witos::AuditEvent::kFileDenied), 1u);
}

// ---------------------------------------------------------------------------
// Verdict cache: signature classifications are cached per (path, generation)
// and every lower-filesystem mutation must invalidate them. Each test below
// mutates *through the lower fs* (out-of-band of the gate) so a stale cached
// verdict — not the gate's own fresh read — would be the only thing standing
// between the mutation and a wrong decision.
// ---------------------------------------------------------------------------

ItfsPolicy SignaturePolicy() {
  ItfsPolicy policy;
  policy.AddRule(ItfsPolicy::DenyDocumentsRule());
  policy.set_inspection_mode(InspectionMode::kSignature);
  return policy;
}

TEST(ItfsTest, VerdictCacheHitsOnRepeatedAccess) {
  Itfs itfs(MakeLower(), SignaturePolicy(), Root());
  ASSERT_TRUE(itfs.policy_snapshot()->CacheableVerdicts());
  ASSERT_TRUE(itfs.Open("/home/notes.txt", witos::kOpenRead, 0, Admin()).ok());
  EXPECT_EQ(itfs.verdict_cache_stats().misses, 1u);
  ASSERT_TRUE(itfs.Open("/home/notes.txt", witos::kOpenRead, 0, Admin()).ok());
  ASSERT_TRUE(itfs.GetAttr("/home/notes.txt", Admin()).ok());  // kAttr: no fetch
  std::string buf;
  ASSERT_TRUE(itfs.ReadAt("/home/notes.txt", 0, 4, &buf, Admin()).ok());
  auto stats = itfs.verdict_cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_GE(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
  // Denied verdicts are cached too: the class is cached, the per-op decision
  // is recomputed, so a repeat denial costs no second content read.
  EXPECT_EQ(itfs.Open("/home/disguised.log", witos::kOpenRead, 0, Admin()).error(),
            witos::Err::kAcces);
  EXPECT_EQ(itfs.Open("/home/disguised.log", witos::kOpenRead, 0, Admin()).error(),
            witos::Err::kAcces);
  stats = itfs.verdict_cache_stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_GE(stats.hits, 2u);
}

TEST(ItfsTest, VerdictCacheInvalidatedByWrite) {
  auto lower = MakeLower();
  Itfs itfs(lower, SignaturePolicy(), Root());
  ASSERT_TRUE(itfs.Open("/home/notes.txt", witos::kOpenRead, 0, Admin()).ok());
  // Out-of-band rewrite turns the innocent text file into a PDF.
  ASSERT_TRUE(lower->WriteAt("/home/notes.txt", 0, "%PDF-1.4 smuggled", Root()).ok());
  EXPECT_EQ(itfs.Open("/home/notes.txt", witos::kOpenRead, 0, Admin()).error(),
            witos::Err::kAcces);
  EXPECT_GE(itfs.verdict_cache_stats().invalidations, 1u);
}

TEST(ItfsTest, VerdictCacheInvalidatedByTruncate) {
  auto lower = MakeLower();
  Itfs itfs(lower, SignaturePolicy(), Root());
  EXPECT_EQ(itfs.Open("/home/disguised.log", witos::kOpenRead, 0, Admin()).error(),
            witos::Err::kAcces);
  ASSERT_TRUE(lower->Truncate("/home/disguised.log", 0, Root()).ok());
  // Empty file, no signature left: a stale cached kPdf verdict would keep
  // denying it.
  EXPECT_TRUE(itfs.Open("/home/disguised.log", witos::kOpenRead, 0, Admin()).ok());
}

TEST(ItfsTest, VerdictCacheInvalidatedByOpenTruncate) {
  auto lower = MakeLower();
  Itfs itfs(lower, SignaturePolicy(), Root());
  EXPECT_EQ(itfs.Open("/home/disguised.log", witos::kOpenRead, 0, Admin()).error(),
            witos::Err::kAcces);
  ASSERT_TRUE(lower->Open("/home/disguised.log", witos::kOpenWrite | witos::kOpenTrunc, 0,
                          Root()).ok());
  EXPECT_TRUE(itfs.Open("/home/disguised.log", witos::kOpenRead, 0, Admin()).ok());
}

TEST(ItfsTest, VerdictCacheInvalidatedByRename) {
  auto lower = MakeLower();
  Itfs itfs(lower, SignaturePolicy(), Root());
  ASSERT_TRUE(itfs.Open("/home/notes.txt", witos::kOpenRead, 0, Admin()).ok());
  // Swap a PDF into the cached path. The cache is keyed by path: without
  // generation tracking the old file's allow verdict would leak onto the
  // new file occupying the same name.
  ASSERT_TRUE(lower->Rename("/home/notes.txt", "/home/notes.bak", Root()).ok());
  ASSERT_TRUE(lower->Rename("/home/disguised.log", "/home/notes.txt", Root()).ok());
  EXPECT_EQ(itfs.Open("/home/notes.txt", witos::kOpenRead, 0, Admin()).error(),
            witos::Err::kAcces);
}

TEST(ItfsTest, VerdictCacheInvalidatedThroughHardLinkAlias) {
  auto lower = MakeLower();
  ASSERT_TRUE(lower->Link("/home/notes.txt", "/home/alias.txt", Root()).ok());
  Itfs itfs(lower, SignaturePolicy(), Root());
  ASSERT_TRUE(itfs.Open("/home/notes.txt", witos::kOpenRead, 0, Admin()).ok());
  // Writing through the *other* name of the shared inode must invalidate
  // the verdict cached under this one.
  ASSERT_TRUE(lower->WriteAt("/home/alias.txt", 0, "%PDF-1.4 via alias", Root()).ok());
  EXPECT_EQ(itfs.Open("/home/notes.txt", witos::kOpenRead, 0, Admin()).error(),
            witos::Err::kAcces);
}

TEST(ItfsTest, VerdictCacheInvalidatedByLinkAndChown) {
  auto lower = MakeLower();
  Itfs itfs(lower, SignaturePolicy(), Root());
  ASSERT_TRUE(itfs.Open("/home/notes.txt", witos::kOpenRead, 0, Admin()).ok());
  auto before = itfs.verdict_cache_stats();
  ASSERT_TRUE(lower->Link("/home/notes.txt", "/home/linked.txt", Root()).ok());
  ASSERT_TRUE(itfs.Open("/home/notes.txt", witos::kOpenRead, 0, Admin()).ok());
  auto after_link = itfs.verdict_cache_stats();
  EXPECT_EQ(after_link.invalidations, before.invalidations + 1);
  ASSERT_TRUE(lower->Chown("/home/notes.txt", 7, 7, Root()).ok());
  ASSERT_TRUE(itfs.Open("/home/notes.txt", witos::kOpenRead, 0, Admin()).ok());
  auto after_chown = itfs.verdict_cache_stats();
  EXPECT_EQ(after_chown.invalidations, after_link.invalidations + 1);
}

TEST(ItfsTest, CustomDetectorPoliciesAreNeverCached) {
  ItfsPolicy policy = SignaturePolicy();
  ItfsRule det;
  det.name = "secret-detector";
  det.action = RuleAction::kDeny;
  det.custom = [](const std::string&, std::string_view head) {
    return head.find("secret") != std::string_view::npos;
  };
  policy.AddRule(std::move(det));
  auto lower = MakeLower();
  Itfs itfs(lower, std::move(policy), Root());
  ASSERT_FALSE(itfs.policy_snapshot()->CacheableVerdicts());
  ASSERT_TRUE(itfs.Open("/home/notes.txt", witos::kOpenRead, 0, Admin()).ok());
  ASSERT_TRUE(itfs.Open("/home/notes.txt", witos::kOpenRead, 0, Admin()).ok());
  auto stats = itfs.verdict_cache_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.entries, 0u);
}

TEST(ItfsTest, SwapPolicySurvivesCachedVerdicts) {
  // The cache stores the *class*, not the decision: swapping in a stricter
  // policy must re-derive decisions from cached classifications correctly.
  auto lower = MakeLower();
  ItfsPolicy lenient;
  lenient.set_inspection_mode(InspectionMode::kSignature);
  ItfsRule log_pdf;
  log_pdf.name = "log-pdf";
  log_pdf.action = RuleAction::kLogOnly;
  log_pdf.signatures = {FileClass::kPdf};
  lenient.AddRule(std::move(log_pdf));
  Itfs itfs(lower, lenient, Root());
  ASSERT_TRUE(itfs.Open("/home/disguised.log", witos::kOpenRead, 0, Admin()).ok());
  itfs.SwapPolicy(SignaturePolicy().Compile());
  EXPECT_EQ(itfs.Open("/home/disguised.log", witos::kOpenRead, 0, Admin()).error(),
            witos::Err::kAcces);
}

TEST(ItfsTest, VerdictCacheMetricsExported) {
  witobs::MetricsRegistry registry;
  auto lower = MakeLower();
  Itfs itfs(lower, SignaturePolicy(), Root());
  itfs.EnableMetrics(std::make_shared<const ItfsMetrics>(&registry));
  ASSERT_TRUE(itfs.Open("/home/notes.txt", witos::kOpenRead, 0, Admin()).ok());
  ASSERT_TRUE(itfs.Open("/home/notes.txt", witos::kOpenRead, 0, Admin()).ok());
  ASSERT_TRUE(lower->WriteAt("/home/notes.txt", 0, "still text", Root()).ok());
  ASSERT_TRUE(itfs.Open("/home/notes.txt", witos::kOpenRead, 0, Admin()).ok());
  std::string prom = witobs::RenderPrometheus(registry);
  EXPECT_NE(prom.find("watchit_itfs_verdict_cache_hits"), std::string::npos);
  EXPECT_NE(prom.find("watchit_itfs_verdict_cache_misses"), std::string::npos);
  EXPECT_NE(prom.find("watchit_itfs_verdict_cache_invalidations"), std::string::npos);
  EXPECT_NE(prom.find("watchit_policy_compile_ns"), std::string::npos);
}

TEST(FuseMountTest, ChargesCrossingCostPerOperation) {
  witos::SimClock clock;
  auto lower = std::make_shared<witos::MemFs>();
  lower->ProvisionFile("/f", "data");
  auto itfs = std::make_shared<Itfs>(lower, ItfsPolicy(), Root(), &clock);
  FuseMount fuse(itfs, &clock);

  uint64_t t0 = clock.now_ns();
  std::string buf;
  ASSERT_TRUE(fuse.ReadAt("/f", 0, 4, &buf, Admin()).ok());
  uint64_t t1 = clock.now_ns();
  EXPECT_GE(t1 - t0, clock.costs().fuse_crossing_ns);
  EXPECT_EQ(fuse.crossings(), 1u);

  // Direct access to the lower fs pays no crossing.
  uint64_t t2 = clock.now_ns();
  ASSERT_TRUE(lower->ReadAt("/f", 0, 4, &buf, Admin()).ok());
  EXPECT_LT(clock.now_ns() - t2, clock.costs().fuse_crossing_ns);
}

TEST(FuseMountTest, ForwardsAllOperations) {
  auto lower = std::make_shared<witos::MemFs>();
  FuseMount fuse(lower, nullptr);
  ASSERT_TRUE(fuse.MkDir("/d", 0755, Root()).ok());
  ASSERT_TRUE(fuse.Open("/d/f", witos::kOpenCreate | witos::kOpenWrite, 0644, Root()).ok());
  ASSERT_TRUE(fuse.WriteAt("/d/f", 0, "x", Root()).ok());
  ASSERT_TRUE(fuse.Rename("/d/f", "/d/g", Root()).ok());
  ASSERT_TRUE(fuse.Chmod("/d/g", 0600, Root()).ok());
  ASSERT_TRUE(fuse.SymLink("/d/g", "/link", Root()).ok());
  EXPECT_EQ(*fuse.ReadLink("/link", Root()), "/d/g");
  ASSERT_TRUE(fuse.Unlink("/d/g", Root()).ok());
  ASSERT_TRUE(fuse.RmDir("/d", Root()).ok());
  EXPECT_EQ(fuse.FsType(), "fuse.ext4");
  EXPECT_GE(fuse.crossings(), 9u);
}

}  // namespace
}  // namespace witfs
