// Network-namespace payloads and their registry.
//
// The kernel (witos) issues namespace identity; this registry hangs the
// actual network state — devices, routing table, firewall rules, and an
// optional IDS tap — off each NET namespace id, mirroring `struct net`.
// "Processes that belong to the same NET share routing tables, firewall
// rules, and network devices" (paper §3.2).

#ifndef SRC_NET_NETNS_H_
#define SRC_NET_NETNS_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/net/firewall.h"
#include "src/net/sniffer.h"
#include "src/os/types.h"

namespace witnet {

struct NetDevice {
  std::string name;
  Ipv4Addr addr;
};

struct Route {
  Cidr dst;
  std::string dev;
  std::string comment;
};

struct NetNsPayload {
  std::vector<NetDevice> devices;
  std::vector<Route> routes;
  FirewallRuleset firewall;
  // IDS tap on this namespace's devices; null when unmonitored.
  std::unique_ptr<Sniffer> sniffer;

  bool HasRouteTo(Ipv4Addr addr) const;
  // Source address for reaching `dst` (the address of the routing device).
  std::optional<Ipv4Addr> SourceAddrFor(Ipv4Addr dst) const;
  void AddDevice(std::string name, Ipv4Addr addr);
  void AddRoute(Cidr dst, std::string dev, std::string comment = "");
  // Host route + firewall accept in one call — the perforated container
  // "network view includes only ..." idiom.
  void AllowEndpoint(Ipv4Addr addr, uint16_t port = 0, std::string comment = "");
};

class NetNsRegistry {
 public:
  NetNsPayload& GetOrCreate(witos::NsId id) { return payloads_[id]; }
  NetNsPayload* Find(witos::NsId id);
  const NetNsPayload* Find(witos::NsId id) const;
  void Erase(witos::NsId id) { payloads_.erase(id); }
  size_t size() const { return payloads_.size(); }

 private:
  std::map<witos::NsId, NetNsPayload> payloads_;
};

}  // namespace witnet

#endif  // SRC_NET_NETNS_H_
