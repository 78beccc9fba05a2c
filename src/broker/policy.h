// The policy manager: decides which broker verbs each ticket class may use
// ("The permission broker grants a request if it follows the security policy
// corresponding to the specific ticket class and IT specialist", §5.4).

#ifndef SRC_BROKER_POLICY_H_
#define SRC_BROKER_POLICY_H_

#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace witbroker {

// The broker's verb vocabulary. Free-form verbs registered at runtime are
// also supported; these are the built-ins.
inline constexpr const char* kVerbPs = "ps";
inline constexpr const char* kVerbKill = "kill";
inline constexpr const char* kVerbReadFile = "read_file";
inline constexpr const char* kVerbInstall = "install";
inline constexpr const char* kVerbRestartService = "restart_service";
inline constexpr const char* kVerbReboot = "reboot";
inline constexpr const char* kVerbMountVolume = "mount_volume";
inline constexpr const char* kVerbNetAllow = "net_allow";
inline constexpr const char* kVerbDriverUpdate = "driver_update";

struct ClassPolicy {
  std::set<std::string> allowed_verbs;
  bool allow_all = false;
  // Endpoint scoping for endpoint-carrying verbs (net_allow): when
  // non-empty, a request naming an endpoint is granted only if that name
  // (or address — mined policies record both) is in the set. Empty means
  // unscoped: the verb reaches any organizational endpoint, which is how
  // the hand-written Table 3 policies behave and what the privilege-surface
  // accounting charges them for. Mined policies are scoped to the
  // endpoints their class was observed contacting.
  std::set<std::string> allowed_endpoints;
  // Per-admin overrides: verbs additionally denied for specific admins.
  std::map<std::string, std::set<std::string>> denied_for_admin;
  // Rate limit: at most this many granted requests per admin per window
  // (0 = unlimited). Throttles a rogue admin scripting the broker.
  uint32_t max_requests_per_window = 0;
  uint64_t window_ns = 60ull * 1000000000ull;
};

class PolicyManager {
 public:
  void SetPolicy(const std::string& ticket_class, ClassPolicy policy);
  // Default used for classes without an explicit policy.
  void SetDefaultPolicy(ClassPolicy policy) { default_policy_ = std::move(policy); }

  // `endpoint` is the endpoint an endpoint-carrying request names ("" for
  // verbs without one); policies with a non-empty allowed_endpoints set
  // deny endpoints outside it.
  bool IsAllowed(const std::string& ticket_class, const std::string& verb,
                 const std::string& admin, const std::string& endpoint = "") const;

  // The enforcing policy installed for a class, or null when the class
  // falls through to the default. Read-only (the witmine differential and
  // privilege-surface accounting compare against this).
  const ClassPolicy* FindPolicy(const std::string& ticket_class) const;

  // --- shadow enforcement (witmine, DESIGN.md §17) -------------------------
  // A mined policy evaluated BESIDE the enforcing one: the broker consults
  // it per request and counts divergences, but grants/denies are decided
  // solely by the enforcing policy. Install before traffic starts (same
  // single-owner rule as SetPolicy).
  void SetShadowPolicy(const std::string& ticket_class, ClassPolicy policy);
  void ClearShadowPolicies() { shadow_policies_.clear(); }
  bool has_shadow() const { return !shadow_policies_.empty(); }
  // The shadow verdict for this request, or nullopt when no shadow policy
  // covers the class (classes without a mined policy are not compared).
  // Shadow evaluation never touches rate state.
  std::optional<bool> ShadowAllows(const std::string& ticket_class, const std::string& verb,
                                   const std::string& admin,
                                   const std::string& endpoint = "") const;

  // Rate limiting: counts this request against the admin's window for
  // this class and returns false when the class's budget is exhausted.
  // Stateless classes (limit 0) always pass without taking a lock; for
  // throttled classes it is safe under concurrent HandleBatch calls.
  bool AdmitRate(const std::string& ticket_class, const std::string& admin, uint64_t now_ns);

 private:
  const ClassPolicy& PolicyFor(const std::string& ticket_class) const;

  std::map<std::string, ClassPolicy> policies_;
  std::map<std::string, ClassPolicy> shadow_policies_;
  ClassPolicy default_policy_;
  // (class, admin) -> (window index, count) for rate accounting.
  std::mutex rate_mu_;  // guards rate_
  std::map<std::pair<std::string, std::string>, std::pair<uint64_t, uint32_t>> rate_;
};

}  // namespace witbroker

#endif  // SRC_BROKER_POLICY_H_
