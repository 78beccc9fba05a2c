// Tests for the ITFS policy DSL and the Snort-flavoured sniffer rule DSL.

#include <gtest/gtest.h>

#include "src/fs/itfs.h"
#include "src/fs/ruledsl.h"
#include "src/net/snort_rules.h"
#include "src/os/memfs.h"
#include "tests/itfs_policy_reference.h"

namespace witfs {
namespace {

TEST(RuleDslTest, ParsesFullPolicy) {
  const char* text = R"(
# organizational filtering policy
mode signature
scan-limit 4096
log-all off
deny ext:pdf,docx,xlsx name=no-documents
deny signature:jpeg,png,zip-office
deny path:/usr/watchit,/etc/watchit name=protect-watchit
log  path:/etc
deny ext:key write-only
)";
  std::string error;
  auto parsed = ParseItfsPolicy(text, &error);
  ASSERT_TRUE(parsed.ok()) << error;
  EXPECT_EQ(parsed->rule_count, 5u);
  EXPECT_EQ(parsed->policy.inspection_mode(), InspectionMode::kSignature);
  EXPECT_EQ(parsed->policy.content_scan_limit(), 4096u);
  EXPECT_FALSE(parsed->policy.log_all());
}

TEST(RuleDslTest, ParsedPolicyEnforces) {
  const char* text = R"(
deny ext:pdf name=no-pdf
deny path:/usr/watchit
log  path:/etc name=watch-etc
deny ext:conf write-only name=ro-conf
)";
  auto parsed = ParseItfsPolicy(text);
  ASSERT_TRUE(parsed.ok());
  const ItfsPolicy& policy = parsed->policy;
  EXPECT_TRUE(reference::Evaluate(policy, ItfsOpKind::kOpen, "/home/x.pdf", "").deny);
  EXPECT_TRUE(reference::Evaluate(policy, ItfsOpKind::kOpen, "/usr/watchit/bin", "").deny);
  auto log_hit = reference::Evaluate(policy, ItfsOpKind::kOpen, "/etc/passwd", "");
  EXPECT_FALSE(log_hit.deny);
  EXPECT_EQ(log_hit.rule, "watch-etc");
  // write-only: reads pass, writes denied.
  EXPECT_FALSE(reference::Evaluate(policy, ItfsOpKind::kOpen, "/etc/app.conf", "").deny);
  EXPECT_TRUE(reference::Evaluate(policy, ItfsOpKind::kWrite, "/etc/app.conf", "").deny);
}

TEST(RuleDslTest, AllowIsTerminalButLogIsNot) {
  // An allow-list in the shape the policy miner emits: allow rules above a
  // default deny. The first matching allow must decide the access; a log
  // rule must not shield it from the deny.
  const char* text = R"(
log   path:/var name=watch-var
allow path:/var/log name=mined-allow-1
allow ext:txt name=mined-allow-txt
deny  path:/ name=default-deny
)";
  auto parsed = ParseItfsPolicy(text);
  ASSERT_TRUE(parsed.ok());
  const ItfsPolicy& policy = parsed->policy;
  auto allowed = reference::Evaluate(policy, ItfsOpKind::kOpen, "/var/log/syslog", "");
  EXPECT_FALSE(allowed.deny);
  EXPECT_EQ(allowed.rule, "mined-allow-1");
  EXPECT_FALSE(reference::Evaluate(policy, ItfsOpKind::kOpen, "/home/notes.txt", "").deny);
  // /var/run matches only the log rule, which grants no immunity: the
  // default deny still fires.
  auto denied = reference::Evaluate(policy, ItfsOpKind::kOpen, "/var/run/app.pid", "");
  EXPECT_TRUE(denied.deny);
  EXPECT_EQ(denied.rule, "default-deny");
  // The compiled evaluator agrees on all three.
  ASSERT_NE(parsed->compiled, nullptr);
  EXPECT_FALSE(parsed->compiled->Evaluate(ItfsOpKind::kOpen, "/var/log/syslog", "").deny);
  EXPECT_EQ(parsed->compiled->Evaluate(ItfsOpKind::kOpen, "/var/log/syslog", "").rule,
            "mined-allow-1");
  EXPECT_TRUE(parsed->compiled->Evaluate(ItfsOpKind::kOpen, "/var/run/app.pid", "").deny);
}

TEST(RuleDslTest, ParsedPolicyWorksInsideItfs) {
  auto lower = std::make_shared<witos::MemFs>();
  lower->ProvisionFile("/home/report.pdf", "%PDF");
  lower->ProvisionFile("/home/notes.txt", "ok");
  auto parsed = ParseItfsPolicy("deny ext:pdf\n");
  ASSERT_TRUE(parsed.ok());
  Itfs itfs(lower, parsed->policy, witos::Credentials{});
  witos::Credentials admin;
  EXPECT_EQ(itfs.Open("/home/report.pdf", witos::kOpenRead, 0, admin).error(),
            witos::Err::kAcces);
  EXPECT_TRUE(itfs.Open("/home/notes.txt", witos::kOpenRead, 0, admin).ok());
}

struct BadPolicyCase {
  const char* text;
  const char* why;
};

class BadPolicy : public ::testing::TestWithParam<BadPolicyCase> {};

TEST_P(BadPolicy, Rejected) {
  std::string error;
  auto parsed = ParseItfsPolicy(GetParam().text, &error);
  EXPECT_FALSE(parsed.ok()) << GetParam().why;
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(error.compare(0, 5, "line "), 0) << error;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, BadPolicy,
    ::testing::Values(BadPolicyCase{"permit ext:pdf\n", "unknown action"},
                      BadPolicyCase{"deny\n", "no selector"},
                      BadPolicyCase{"deny gibberish\n", "not a selector"},
                      BadPolicyCase{"deny signature:virus\n", "unknown class"},
                      BadPolicyCase{"deny color:red\n", "unknown selector kind"},
                      BadPolicyCase{"mode paranoid\n", "bad mode"},
                      BadPolicyCase{"scan-limit lots\n", "bad scan limit"},
                      BadPolicyCase{"log-all maybe\n", "bad log-all"}));

TEST(RuleDslTest, EmitsCompiledPolicy) {
  auto parsed = ParseItfsPolicy("deny ext:pdf name=no-pdf\nmode signature\n");
  ASSERT_TRUE(parsed.ok());
  ASSERT_NE(parsed->compiled, nullptr);
  EXPECT_EQ(parsed->compiled->rule_count(), 1u);
  EXPECT_TRUE(parsed->compiled->Evaluate(ItfsOpKind::kOpen, "/home/x.pdf", "").deny);
  EXPECT_TRUE(parsed->diagnostics.empty());
}

TEST(RuleDslTest, DuplicateRuleNamesRejectedWithBothLines) {
  std::string error;
  auto parsed = ParseItfsPolicy(
      "deny ext:pdf name=dup\n"
      "deny ext:txt name=dup\n",
      &error);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error(), witos::Err::kInval);
  EXPECT_NE(error.find("duplicate rule name 'dup'"), std::string::npos) << error;
  EXPECT_NE(error.find("line 1"), std::string::npos) << error;
  EXPECT_EQ(error.compare(0, 7, "line 2:"), 0) << error;
}

TEST(RuleDslTest, AutoNameCollidingWithExplicitNameRejected) {
  // The second rule is the first unnamed one, so it auto-names itself
  // "rule-1" — colliding with the explicit name on line 1.
  std::string error;
  auto parsed = ParseItfsPolicy(
      "deny ext:pdf name=rule-1\n"
      "deny ext:txt\n",
      &error);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(error.find("duplicate rule name"), std::string::npos) << error;
}

TEST(RuleDslTest, ShadowedRulesSurfaceAsDiagnostics) {
  auto parsed = ParseItfsPolicy(
      "deny ext:pdf,xlsx name=wide\n"
      "deny ext:pdf name=narrow\n");
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->diagnostics.size(), 1u);
  EXPECT_EQ(parsed->diagnostics[0].kind, CompileDiagnostic::Kind::kShadowedRule);
  EXPECT_NE(parsed->diagnostics[0].message.find("narrow"), std::string::npos);
  EXPECT_NE(parsed->diagnostics[0].message.find("wide"), std::string::npos);
}

TEST(RuleDslTest, FileClassNamesRoundTrip) {
  for (FileClass cls : {FileClass::kText, FileClass::kJpeg, FileClass::kPdf,
                        FileClass::kZipOffice, FileClass::kEncrypted}) {
    EXPECT_EQ(FileClassFromName(FileClassName(cls)), cls);
  }
  EXPECT_EQ(FileClassFromName("virus"), FileClass::kUnknown);
}

}  // namespace
}  // namespace witfs

namespace witnet {
namespace {

TEST(SnortRulesTest, ParsesAndEnforces) {
  const char* text = R"(
# exfiltration defences
block signature:pdf,jpeg,zip-office name=no-doc-exfil
block entropy>7.2
block dst-not-in:10.0.0.0/8 name=org-only
alert content:"CONFIDENTIAL" name=keyword
)";
  Sniffer sniffer;
  std::string error;
  ASSERT_TRUE(LoadSnifferRules(&sniffer, text, &error).ok()) << error;

  // Document payload blocked.
  EXPECT_TRUE(
      sniffer.Inspect({Ipv4Addr(), Ipv4Addr(10, 0, 0, 1), 80, "%PDF-1.4 data"}).blocked);
  // Off-org destination blocked.
  EXPECT_TRUE(
      sniffer.Inspect({Ipv4Addr(), Ipv4Addr(203, 0, 113, 9), 80, "plain"}).blocked);
  // Keyword only alerts.
  auto result =
      sniffer.Inspect({Ipv4Addr(), Ipv4Addr(10, 0, 0, 1), 80, "this is CONFIDENTIAL"});
  EXPECT_FALSE(result.blocked);
  ASSERT_EQ(result.fired_rules.size(), 1u);
  EXPECT_EQ(result.fired_rules[0], "keyword");
  // Benign in-org traffic passes clean.
  EXPECT_FALSE(sniffer.Inspect({Ipv4Addr(), Ipv4Addr(10, 0, 0, 1), 80, "hello"}).blocked);
}

TEST(SnortRulesTest, QuotedContentKeepsSpaces) {
  auto rules = ParseSnifferRules("alert content:\"top secret\"\n");
  ASSERT_TRUE(rules.ok());
  ASSERT_EQ(rules->size(), 1u);
  EXPECT_EQ((*rules)[0].payload_contains, "top secret");
}

TEST(SnortRulesTest, BadRulesRejectedWithLineInfo) {
  std::string error;
  EXPECT_FALSE(ParseSnifferRules("drop signature:pdf\n", &error).ok());
  EXPECT_NE(error.find("line 1"), std::string::npos);
  EXPECT_FALSE(ParseSnifferRules("block entropy>high\n", &error).ok());
  EXPECT_FALSE(ParseSnifferRules("block dst-not-in:999.1.1.1\n", &error).ok());
  EXPECT_FALSE(ParseSnifferRules("block\n", &error).ok());
  EXPECT_FALSE(ParseSnifferRules("block content:unquoted\n", &error).ok());
}

}  // namespace
}  // namespace witnet
