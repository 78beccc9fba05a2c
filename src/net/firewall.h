// An iptables-like ruleset: ordered rules with a default policy.
//
// Perforated containers get a default-deny egress ruleset whose accept rules
// enumerate exactly the endpoints in Table 3's "Network Access" columns.

#ifndef SRC_NET_FIREWALL_H_
#define SRC_NET_FIREWALL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/net/ip.h"

namespace witnet {

enum class FwAction : uint8_t { kAccept, kDrop };
enum class FwDirection : uint8_t { kEgress, kIngress };

struct FirewallRule {
  FwDirection direction = FwDirection::kEgress;
  Cidr dst = Cidr::Any();
  uint16_t port = 0;  // 0 = any port
  FwAction action = FwAction::kAccept;
  std::string comment;

  bool Matches(FwDirection dir, Ipv4Addr addr, uint16_t p) const {
    return direction == dir && dst.Contains(addr) && (port == 0 || port == p);
  }
};

class FirewallRuleset {
 public:
  void Append(FirewallRule rule) { rules_.push_back(std::move(rule)); }
  void set_default_policy(FwAction action) { default_policy_ = action; }

  // First matching rule wins; otherwise the default policy applies.
  FwAction Evaluate(FwDirection dir, Ipv4Addr dst, uint16_t port) const {
    for (const auto& rule : rules_) {
      if (rule.Matches(dir, dst, port)) {
        return rule.action;
      }
    }
    return default_policy_;
  }

  // Convenience: append an egress accept rule for one host (any port, or a
  // specific one).
  void AllowHost(Ipv4Addr addr, uint16_t port = 0, std::string comment = "") {
    Append({FwDirection::kEgress, Cidr::Host(addr), port, FwAction::kAccept,
            std::move(comment)});
  }

  const std::vector<FirewallRule>& rules() const { return rules_; }
  size_t size() const { return rules_.size(); }

 private:
  std::vector<FirewallRule> rules_;
  FwAction default_policy_ = FwAction::kAccept;
};

}  // namespace witnet

#endif  // SRC_NET_FIREWALL_H_
