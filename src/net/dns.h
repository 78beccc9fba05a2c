// DNS as an organizational service. Resolution is not ambient: the resolver
// queries the nameserver *through the querying namespace's network view*,
// so a perforated container without a route to the DNS server cannot
// resolve names at all — confinement applies to name lookup exactly like it
// applies to any other traffic (relevant to T-4's dns-flavoured tickets).
//
// Wire format (toy): query "A? <name>", response "A <name> <dotted-addr>"
// or "NXDOMAIN <name>".

#ifndef SRC_NET_DNS_H_
#define SRC_NET_DNS_H_

#include <atomic>
#include <map>
#include <string>

#include "src/net/network.h"
#include "src/net/socket.h"

namespace witnet {

inline constexpr uint16_t kDnsPort = 53;

// The authoritative server side: install Handler() on a fabric endpoint.
class DnsService {
 public:
  // Zone records are setup-time-only; the handler runs concurrently on
  // every serving worker's resolution path, so the query counter is atomic.
  void AddRecord(const std::string& name, Ipv4Addr addr) { records_[name] = addr; }
  size_t size() const { return records_.size(); }
  uint64_t queries() const { return queries_.load(std::memory_order_relaxed); }

  // A ServiceHandler answering A? queries from this zone.
  ServiceHandler Handler();

 private:
  std::map<std::string, Ipv4Addr> records_;
  std::atomic<uint64_t> queries_{0};
};

// The client side, bound to one machine's network stack.
class DnsResolver {
 public:
  DnsResolver(NetStack* stack, Ipv4Addr nameserver, uint16_t port = kDnsPort)
      : stack_(stack), nameserver_(nameserver), port_(port) {}

  // Resolves `name` by querying the nameserver from namespace `ns` on
  // behalf of process `pid`, under which the query is chained.
  // ENETUNREACH/EHOSTUNREACH when the namespace's view excludes the
  // nameserver; ENOENT on NXDOMAIN; EIO on a malformed response.
  witos::Result<Ipv4Addr> Resolve(witos::NsId ns, const std::string& name, witos::Pid pid);

  // Per-namespace positive cache, like a local stub resolver's.
  void FlushCache() { cache_.clear(); }
  size_t cache_size() const { return cache_.size(); }

 private:
  NetStack* stack_;
  Ipv4Addr nameserver_;
  uint16_t port_;
  std::map<std::pair<witos::NsId, std::string>, Ipv4Addr> cache_;
};

}  // namespace witnet

#endif  // SRC_NET_DNS_H_
