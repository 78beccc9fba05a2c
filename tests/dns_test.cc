// DNS tests: resolution goes through the namespace's network view — name
// lookup is confined like everything else.

#include "src/net/dns.h"

#include <gtest/gtest.h>

#include "src/core/cluster.h"
#include "src/workload/topology.h"

namespace witnet {
namespace {

class DnsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    service_.AddRecord("license-server", witload::kLicenseServer.addr);
    service_.AddRecord("software-repo", witload::kSoftwareRepo.addr);
    fabric_.AddEndpoint("ldap", kNameserver);
    fabric_.AddService(kNameserver, kDnsPort, service_.Handler());
    // The host namespace: full view.
    NetNsPayload& host = stack_.namespaces().GetOrCreate(kHostNs);
    host.AddDevice("eth0", Ipv4Addr(10, 0, 1, 50));
    host.AddRoute(Cidr::Any(), "eth0");
  }

  static constexpr witos::NsId kHostNs = 1;
  static constexpr witos::NsId kContainerNs = 2;
  const Ipv4Addr kNameserver{witload::kDirectoryServer.addr};
  Network fabric_;
  NetStack stack_{&fabric_};
  DnsService service_;
};

TEST_F(DnsTest, ResolvesFromHostView) {
  DnsResolver resolver(&stack_, kNameserver);
  auto addr = resolver.Resolve(kHostNs, "license-server", witos::kNoPid);
  ASSERT_TRUE(addr.ok());
  EXPECT_EQ(*addr, witload::kLicenseServer.addr);
  EXPECT_EQ(service_.queries(), 1u);
}

TEST_F(DnsTest, NxDomain) {
  DnsResolver resolver(&stack_, kNameserver);
  EXPECT_EQ(resolver.Resolve(kHostNs, "no-such-host", witos::kNoPid).error(),
            witos::Err::kNoEnt);
}

TEST_F(DnsTest, CacheAvoidsRepeatQueries) {
  DnsResolver resolver(&stack_, kNameserver);
  ASSERT_TRUE(resolver.Resolve(kHostNs, "license-server", witos::kNoPid).ok());
  ASSERT_TRUE(resolver.Resolve(kHostNs, "license-server", witos::kNoPid).ok());
  EXPECT_EQ(service_.queries(), 1u);
  EXPECT_EQ(resolver.cache_size(), 1u);
  resolver.FlushCache();
  ASSERT_TRUE(resolver.Resolve(kHostNs, "license-server", witos::kNoPid).ok());
  EXPECT_EQ(service_.queries(), 2u);
}

TEST_F(DnsTest, ConfinedNamespaceCannotResolve) {
  // A perforated container whose view excludes the nameserver.
  NetNsPayload& container = stack_.namespaces().GetOrCreate(kContainerNs);
  container.AddDevice("eth0", Ipv4Addr(10, 200, 0, 1));
  container.firewall.set_default_policy(FwAction::kDrop);
  container.AllowEndpoint(witload::kLicenseServer.addr, 0, "license-server");

  DnsResolver resolver(&stack_, kNameserver);
  auto addr = resolver.Resolve(kContainerNs, "license-server", witos::kNoPid);
  EXPECT_FALSE(addr.ok());  // no route to the DNS server
  // Widen the view to include DNS (what the broker's net_allow would do):
  container.AllowEndpoint(kNameserver, kDnsPort, "ldap");
  EXPECT_TRUE(resolver.Resolve(kContainerNs, "license-server", witos::kNoPid).ok());
}

TEST_F(DnsTest, PerNamespaceCacheKeys) {
  NetNsPayload& container = stack_.namespaces().GetOrCreate(kContainerNs);
  container.AddDevice("eth0", Ipv4Addr(10, 200, 0, 1));
  container.firewall.set_default_policy(FwAction::kDrop);
  DnsResolver resolver(&stack_, kNameserver);
  ASSERT_TRUE(resolver.Resolve(kHostNs, "license-server", witos::kNoPid).ok());
  // The host's cached answer must not leak into the confined namespace.
  EXPECT_FALSE(resolver.Resolve(kContainerNs, "license-server", witos::kNoPid).ok());
}

TEST_F(DnsTest, MalformedQueryGetsFormErr) {
  NetNsPayload& host = *stack_.namespaces().Find(kHostNs);
  (void)host;
  auto response = stack_.Request(kHostNs, kNameserver, kDnsPort, "garbage", witos::kNoPid, 0);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(*response, "FORMERR");
}

TEST(ClusterDnsTest, WholeOrgZoneServedFromDirectoryServer) {
  watchit::Cluster cluster;
  watchit::Machine& machine = cluster.AddMachine("userpc", Ipv4Addr(10, 0, 1, 50));
  DnsResolver resolver(&machine.net(), witload::kDirectoryServer.addr);
  witos::NsId host_ns = machine.NetNsOf(1);
  auto addr = resolver.Resolve(host_ns, "software-repo", 1);
  ASSERT_TRUE(addr.ok());
  EXPECT_EQ(*addr, witload::kSoftwareRepo.addr);
  EXPECT_GE(cluster.dns().size(), 8u);
  // The query is chained under the process that resolved.
  const witos::AuditRecord query = machine.kernel().audit().Snapshot().back();
  EXPECT_EQ(query.event, witos::AuditEvent::kNetworkFlow);
  EXPECT_EQ(query.pid, 1);
  EXPECT_EQ(query.detail, "connect " + witload::kDirectoryServer.addr.ToString() + ":53");
}

}  // namespace
}  // namespace witnet
