// NetStack: one machine's TCP/IP-ish socket layer.
//
// A connection attempt from a NET namespace walks the same gauntlet real
// container traffic does: routing table -> egress firewall -> IDS sniffer ->
// fabric delivery. Failures map to familiar errno values:
//   no route            -> ENETUNREACH
//   firewall drop       -> EHOSTUNREACH
//   sniffer block       -> ETIMEDOUT   (silently dropped packets)
//   no such endpoint    -> EHOSTUNREACH
//   port closed         -> ECONNREFUSED
//
// The stack is the one writer of network evidence. Every connection, every
// failed attempt and every IDS verdict is one record on the machine's
// evidence chain, under the pid of the process that made the call.

#ifndef SRC_NET_SOCKET_H_
#define SRC_NET_SOCKET_H_

#include <map>
#include <string>

#include "src/net/netns.h"
#include "src/net/network.h"
#include "src/os/audit.h"
#include "src/os/clock.h"
#include "src/os/result.h"

namespace witnet {

using ConnId = uint64_t;

struct Connection {
  witos::NsId net_ns = witos::kNoNs;
  Ipv4Addr src;
  Ipv4Addr dst;
  uint16_t port = 0;
  witos::Pid pid = witos::kNoPid;  // the process that connected
  witos::Uid uid = 0;
};

class NetStack {
 public:
  // `fabric` is the shared organizational network; `audit`/`clock` may be
  // null in unit tests.
  NetStack(Network* fabric, witos::AuditLog* audit = nullptr,
           witos::SimClock* clock = nullptr)
      : fabric_(fabric), audit_(audit), clock_(clock) {}

  NetNsRegistry& namespaces() { return netns_; }
  const NetNsRegistry& namespaces() const { return netns_; }

  // Opens a connection from namespace `ns` to dst:port on behalf of process
  // `pid` (kNoPid only for a stack with no kernel behind it). The attempt,
  // whatever its outcome, is chained under `pid`.
  witos::Result<ConnId> Connect(witos::NsId ns, Ipv4Addr dst, uint16_t port, witos::Pid pid,
                                witos::Uid uid);

  // Sends a request payload on the connection and returns the service's
  // response. The outbound packet passes the namespace's sniffer, whose
  // verdict is chained under the connecting process: a drop as
  // kNetworkBlocked, a hit on alert-only rules as kNetworkFlow.
  witos::Result<std::string> Send(ConnId conn, const std::string& payload);

  witos::Status Close(ConnId conn);

  // One-shot request/response helper.
  witos::Result<std::string> Request(witos::NsId ns, Ipv4Addr dst, uint16_t port,
                                     const std::string& payload, witos::Pid pid,
                                     witos::Uid uid);

 private:
  void Audit(witos::AuditEvent event, witos::Pid pid, witos::Uid uid, std::string detail);

  Network* fabric_;
  witos::AuditLog* audit_;
  witos::SimClock* clock_;
  NetNsRegistry netns_;
  std::map<ConnId, Connection> conns_;
  ConnId next_conn_ = 1;
};

// True for a record NetStack wrote for an IDS verdict: a drop
// (kNetworkBlocked "sniffer blocked ...") or an alert (kNetworkFlow
// "sniffer alert ..."). Readers tell those apart from connections and
// route or firewall refusals with this, not by spelling the detail.
bool IsIdsVerdict(const witos::AuditRecord& record);

}  // namespace witnet

#endif  // SRC_NET_SOCKET_H_
