// The IDS sniffer modelled on Snort: classifies packets crossing a perforated
// container's network devices, naming the rules that fire and whether the
// packet must be dropped. It keeps no per-packet state: the netstack chains
// each verdict under the process that sent the packet (socket.h).
//
// Detection rules cover the paper's exfiltration defences (Attack 8):
//  * file-signature detection in payloads (documents/pictures on the wire),
//  * high-entropy payloads (encrypted exfiltration),
//  * destinations outside a whitelist,
//  * literal content patterns (organization-specific markers).

#ifndef SRC_NET_SNIFFER_H_
#define SRC_NET_SNIFFER_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/fs/signature.h"
#include "src/net/ip.h"

namespace witnet {

struct Packet {
  Ipv4Addr src;
  Ipv4Addr dst;
  uint16_t port = 0;
  std::string payload;
};

enum class SnifferAction : uint8_t { kAlert, kBlock };

struct SnifferRule {
  std::string name;
  SnifferAction action = SnifferAction::kBlock;
  // Selectors (any match triggers; unset selectors never match).
  std::vector<witfs::FileClass> payload_signatures;
  std::optional<double> entropy_above;          // bits/byte threshold
  std::optional<std::vector<Cidr>> dst_whitelist;  // triggers when dst NOT listed
  std::string payload_contains;                 // literal substring
  std::function<bool(const Packet&)> custom;
};

struct InspectionResult {
  bool blocked = false;
  std::vector<std::string> fired_rules;
};

class Sniffer {
 public:
  void AddRule(SnifferRule rule) { rules_.push_back(std::move(rule)); }

  // Adds `cidr` to every destination-whitelist rule — used when the
  // permission broker widens a container's network view at runtime.
  void WidenWhitelist(const Cidr& cidr);

  // The rules `packet` fires, and whether it must be dropped.
  InspectionResult Inspect(const Packet& packet) const;

  // --- Canned rules --------------------------------------------------------
  // Blocks payloads that carry a document/image signature.
  static SnifferRule BlockFileSignatures();
  // Blocks high-entropy payloads (likely encrypted exfiltration).
  static SnifferRule BlockEncrypted(double entropy_threshold = 7.2);
  // Alerts (or blocks) when the destination is not in `whitelist`.
  static SnifferRule RestrictDestinations(std::vector<Cidr> whitelist,
                                          SnifferAction action = SnifferAction::kBlock);

 private:
  std::vector<SnifferRule> rules_;
};

}  // namespace witnet

#endif  // SRC_NET_SNIFFER_H_
