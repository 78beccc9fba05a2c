// The organizational network fabric: named endpoints (license server,
// software repository, shared storage, user machines, external websites)
// offering services on ports.

#ifndef SRC_NET_NETWORK_H_
#define SRC_NET_NETWORK_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "src/net/sniffer.h"

namespace witnet {

// A service receives the request packet and returns a response payload.
using ServiceHandler = std::function<std::string(const Packet&)>;

struct Endpoint {
  std::string name;
  Ipv4Addr addr;
  std::map<uint16_t, ServiceHandler> services;
};

class Network {
 public:
  Endpoint& AddEndpoint(const std::string& name, Ipv4Addr addr);
  void AddService(Ipv4Addr addr, uint16_t port, ServiceHandler handler);
  const Endpoint* Find(Ipv4Addr addr) const;
  const Endpoint* FindByName(const std::string& name) const;

 private:
  // Shared by every machine on the cluster: setup-time-only (AddEndpoint /
  // AddService before serving starts) and read-only afterwards, while
  // every serving worker delivers through it.
  std::map<uint32_t, Endpoint> endpoints_;  // keyed by address value
};

}  // namespace witnet

#endif  // SRC_NET_NETWORK_H_
