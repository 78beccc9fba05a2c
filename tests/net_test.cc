// Tests for the network substrate: addressing, firewall, namespaces and the
// socket layer's route/firewall/sniffer gauntlet, whose every outcome is
// chained under the calling process.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "src/net/socket.h"

namespace witnet {
namespace {

TEST(Ipv4Test, ParseAndFormat) {
  auto addr = Ipv4Addr::Parse("10.0.0.10");
  ASSERT_TRUE(addr.has_value());
  EXPECT_EQ(addr->ToString(), "10.0.0.10");
  EXPECT_EQ(*addr, Ipv4Addr(10, 0, 0, 10));
  EXPECT_FALSE(Ipv4Addr::Parse("10.0.0").has_value());
  EXPECT_FALSE(Ipv4Addr::Parse("10.0.0.256").has_value());
  EXPECT_FALSE(Ipv4Addr::Parse("a.b.c.d").has_value());
  EXPECT_FALSE(Ipv4Addr::Parse("1.2.3.4.5").has_value());
}

TEST(CidrTest, Containment) {
  Cidr block = *Cidr::Parse("10.0.0.0/8");
  EXPECT_TRUE(block.Contains(Ipv4Addr(10, 255, 1, 2)));
  EXPECT_FALSE(block.Contains(Ipv4Addr(11, 0, 0, 1)));
  Cidr host = Cidr::Host(Ipv4Addr(1, 2, 3, 4));
  EXPECT_TRUE(host.Contains(Ipv4Addr(1, 2, 3, 4)));
  EXPECT_FALSE(host.Contains(Ipv4Addr(1, 2, 3, 5)));
  EXPECT_TRUE(Cidr::Any().Contains(Ipv4Addr(203, 0, 113, 9)));
  EXPECT_EQ(Cidr::Parse("10.0.0.0/33"), std::nullopt);
}

TEST(FirewallTest, FirstMatchWinsThenDefault) {
  FirewallRuleset fw;
  fw.set_default_policy(FwAction::kDrop);
  fw.AllowHost(Ipv4Addr(10, 0, 0, 10), 27000);
  EXPECT_EQ(fw.Evaluate(FwDirection::kEgress, Ipv4Addr(10, 0, 0, 10), 27000),
            FwAction::kAccept);
  EXPECT_EQ(fw.Evaluate(FwDirection::kEgress, Ipv4Addr(10, 0, 0, 10), 22), FwAction::kDrop);
  EXPECT_EQ(fw.Evaluate(FwDirection::kEgress, Ipv4Addr(10, 0, 0, 11), 27000), FwAction::kDrop);
  // Port 0 rule = any port.
  fw.AllowHost(Ipv4Addr(10, 0, 0, 20));
  EXPECT_EQ(fw.Evaluate(FwDirection::kEgress, Ipv4Addr(10, 0, 0, 20), 8080),
            FwAction::kAccept);
}

TEST(SnifferTest, BlocksFileSignatures) {
  Sniffer sniffer;
  sniffer.AddRule(Sniffer::BlockFileSignatures());
  Packet doc{Ipv4Addr(), Ipv4Addr(), 443, std::string("PK\x03\x04") + "xlsx-bytes"};
  InspectionResult result = sniffer.Inspect(doc);
  EXPECT_TRUE(result.blocked);
  EXPECT_EQ(result.fired_rules, std::vector<std::string>{"block-file-signatures"});
  Packet text{Ipv4Addr(), Ipv4Addr(), 443, "just some text"};
  InspectionResult clean = sniffer.Inspect(text);
  EXPECT_FALSE(clean.blocked);
  EXPECT_TRUE(clean.fired_rules.empty());
}

TEST(SnifferTest, BlocksHighEntropyPayload) {
  Sniffer sniffer;
  sniffer.AddRule(Sniffer::BlockEncrypted());
  std::string encrypted;
  std::mt19937 rng(3);
  for (int i = 0; i < 1024; ++i) {
    encrypted += static_cast<char>(rng() & 0xff);
  }
  EXPECT_TRUE(sniffer.Inspect({Ipv4Addr(), Ipv4Addr(), 443, encrypted}).blocked);
  EXPECT_FALSE(
      sniffer.Inspect({Ipv4Addr(), Ipv4Addr(), 443, std::string(1024, 'a')}).blocked);
}

TEST(SnifferTest, DestinationWhitelist) {
  Sniffer sniffer;
  sniffer.AddRule(Sniffer::RestrictDestinations({Cidr::Host(Ipv4Addr(10, 0, 0, 10))}));
  EXPECT_FALSE(sniffer.Inspect({Ipv4Addr(), Ipv4Addr(10, 0, 0, 10), 80, "x"}).blocked);
  EXPECT_TRUE(sniffer.Inspect({Ipv4Addr(), Ipv4Addr(203, 0, 113, 66), 80, "x"}).blocked);
  // Widening (broker grant) unblocks the new destination.
  sniffer.WidenWhitelist(Cidr::Host(Ipv4Addr(203, 0, 113, 66)));
  EXPECT_FALSE(sniffer.Inspect({Ipv4Addr(), Ipv4Addr(203, 0, 113, 66), 80, "x"}).blocked);
}

class NetStackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fabric_.AddEndpoint("server", kServer);
    fabric_.AddService(kServer, 80, [](const Packet& p) {
      return "echo:" + std::to_string(p.payload.size());
    });
    NetNsPayload& ns = stack_.namespaces().GetOrCreate(kNsId);
    ns.AddDevice("eth0", Ipv4Addr(10, 200, 0, 1));
    ns.firewall.set_default_policy(FwAction::kDrop);
  }

  // The one record chained since the chain held `before` records (an empty
  // record, and a failure, if there is not exactly one).
  witos::AuditRecord OnlyRecordSince(size_t before) const {
    std::vector<witos::AuditRecord> records = audit_.Snapshot();
    EXPECT_EQ(records.size(), before + 1);
    return records.size() == before + 1 ? records.back() : witos::AuditRecord{};
  }

  static constexpr witos::NsId kNsId = 7;
  static constexpr witos::Pid kCaller = 42;
  const Ipv4Addr kServer{Ipv4Addr(10, 0, 0, 10)};
  Network fabric_;
  witos::AuditLog audit_;
  NetStack stack_{&fabric_, &audit_};
};

TEST_F(NetStackTest, NoRouteUnreachable) {
  EXPECT_EQ(stack_.Connect(kNsId, kServer, 80, kCaller, 0).error(), witos::Err::kNetUnreach);
  const witos::AuditRecord record = OnlyRecordSince(0);
  EXPECT_EQ(record.event, witos::AuditEvent::kNetworkBlocked);
  EXPECT_EQ(record.pid, kCaller);
  EXPECT_EQ(record.detail, "no route to 10.0.0.10:80");
  EXPECT_FALSE(IsIdsVerdict(record));
}

TEST_F(NetStackTest, FirewallDropsUnlistedDestination) {
  NetNsPayload& ns = *stack_.namespaces().Find(kNsId);
  ns.AddRoute(Cidr::Any(), "eth0");
  EXPECT_EQ(stack_.Connect(kNsId, kServer, 80, kCaller, 0).error(), witos::Err::kHostUnreach);
  const witos::AuditRecord record = OnlyRecordSince(0);
  EXPECT_EQ(record.pid, kCaller);
  EXPECT_EQ(record.detail, "firewall drop 10.0.0.10:80");
}

// An address no host answers at is refused on the record too, so scanning
// a whitelisted range leaves a trace.
TEST_F(NetStackTest, UnknownHostIsChainedUnderTheCaller) {
  NetNsPayload& ns = *stack_.namespaces().Find(kNsId);
  ns.AddRoute(Cidr::Any(), "eth0");
  ns.firewall.set_default_policy(FwAction::kAccept);
  EXPECT_EQ(stack_.Connect(kNsId, Ipv4Addr(10, 0, 0, 99), 80, kCaller, 0).error(),
            witos::Err::kHostUnreach);
  const witos::AuditRecord record = OnlyRecordSince(0);
  EXPECT_EQ(record.event, witos::AuditEvent::kNetworkBlocked);
  EXPECT_EQ(record.pid, kCaller);
  EXPECT_EQ(record.detail, "no such host 10.0.0.99:80");
}

TEST_F(NetStackTest, AllowedEndpointConnectsAndEchoes) {
  stack_.namespaces().Find(kNsId)->AllowEndpoint(kServer, 80, "server");
  auto resp = stack_.Request(kNsId, kServer, 80, "hello", kCaller, 0);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(*resp, "echo:5");
  const witos::AuditRecord record = OnlyRecordSince(0);
  EXPECT_EQ(record.event, witos::AuditEvent::kNetworkFlow);
  EXPECT_EQ(record.pid, kCaller);
  EXPECT_EQ(record.detail, "connect 10.0.0.10:80");
  EXPECT_FALSE(IsIdsVerdict(record));
}

TEST_F(NetStackTest, ConnectionRefusedOnClosedPort) {
  stack_.namespaces().Find(kNsId)->AllowEndpoint(kServer, 0, "server");
  EXPECT_EQ(stack_.Connect(kNsId, kServer, 9999, kCaller, 0).error(), witos::Err::kConnRefused);
  const witos::AuditRecord record = OnlyRecordSince(0);
  EXPECT_EQ(record.pid, kCaller);
  EXPECT_EQ(record.detail, "connection refused 10.0.0.10:9999");
}

TEST_F(NetStackTest, SnifferBlocksExfiltrationOnSend) {
  NetNsPayload& ns = *stack_.namespaces().Find(kNsId);
  ns.AllowEndpoint(kServer, 80, "server");
  ns.sniffer = std::make_unique<Sniffer>();
  ns.sniffer->AddRule(Sniffer::BlockFileSignatures());
  auto conn = stack_.Connect(kNsId, kServer, 80, kCaller, 0);
  ASSERT_TRUE(conn.ok());
  // Innocent request passes, and no verdict is chained for it.
  const size_t before = audit_.size();
  EXPECT_TRUE(stack_.Send(*conn, "GET /").ok());
  EXPECT_EQ(audit_.size(), before);
  // A stolen document on the wire is dropped, on the record.
  EXPECT_EQ(stack_.Send(*conn, std::string("PK\x03\x04") + "payroll").error(),
            witos::Err::kTimedOut);
  const witos::AuditRecord drop = OnlyRecordSince(before);
  EXPECT_EQ(drop.event, witos::AuditEvent::kNetworkBlocked);
  EXPECT_EQ(drop.pid, kCaller);
  EXPECT_EQ(drop.detail, "sniffer blocked 11B to 10.0.0.10 [block-file-signatures]");
  EXPECT_TRUE(IsIdsVerdict(drop));
}

// An alert-only rule lets the packet through and chains the hit under the
// sender, apart from the connection record.
TEST_F(NetStackTest, AlertOnlyRuleDeliversAndChainsTheHit) {
  NetNsPayload& ns = *stack_.namespaces().Find(kNsId);
  ns.AllowEndpoint(kServer, 80, "server");
  ns.sniffer = std::make_unique<Sniffer>();
  SnifferRule keyword;
  keyword.name = "keyword";
  keyword.action = SnifferAction::kAlert;
  keyword.payload_contains = "CONFIDENTIAL";
  ns.sniffer->AddRule(keyword);
  auto conn = stack_.Connect(kNsId, kServer, 80, kCaller, 0);
  ASSERT_TRUE(conn.ok());
  const size_t before = audit_.size();
  auto response = stack_.Send(*conn, "this is CONFIDENTIAL");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(*response, "echo:20");
  const witos::AuditRecord alert = OnlyRecordSince(before);
  EXPECT_EQ(alert.event, witos::AuditEvent::kNetworkFlow);
  EXPECT_EQ(alert.pid, kCaller);
  EXPECT_EQ(alert.detail, "sniffer alert 20B to 10.0.0.10:80 [keyword]");
  EXPECT_TRUE(IsIdsVerdict(alert));
}

TEST_F(NetStackTest, CloseInvalidatesConnection) {
  stack_.namespaces().Find(kNsId)->AllowEndpoint(kServer, 80, "server");
  auto conn = stack_.Connect(kNsId, kServer, 80, kCaller, 0);
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(stack_.Close(*conn).ok());
  EXPECT_EQ(stack_.Send(*conn, "x").error(), witos::Err::kNotConn);
  EXPECT_EQ(stack_.Close(*conn).error(), witos::Err::kNotConn);
}

TEST_F(NetStackTest, SeparateNamespacesHaveSeparateViews) {
  stack_.namespaces().Find(kNsId)->AllowEndpoint(kServer, 80, "server");
  witos::NsId other = 8;
  NetNsPayload& other_ns = stack_.namespaces().GetOrCreate(other);
  other_ns.AddDevice("eth0", Ipv4Addr(10, 200, 0, 2));
  other_ns.firewall.set_default_policy(FwAction::kDrop);
  EXPECT_TRUE(stack_.Request(kNsId, kServer, 80, "x", kCaller, 0).ok());
  EXPECT_FALSE(stack_.Request(other, kServer, 80, "x", kCaller, 0).ok());
}

}  // namespace
}  // namespace witnet
