#include "src/broker/policy.h"

namespace witbroker {

void PolicyManager::SetPolicy(const std::string& ticket_class, ClassPolicy policy) {
  policies_[ticket_class] = std::move(policy);
}

const ClassPolicy& PolicyManager::PolicyFor(const std::string& ticket_class) const {
  auto it = policies_.find(ticket_class);
  return it == policies_.end() ? default_policy_ : it->second;
}

namespace {

bool Permits(const ClassPolicy& policy, const std::string& verb, const std::string& admin,
             const std::string& endpoint) {
  auto denied = policy.denied_for_admin.find(admin);
  if (denied != policy.denied_for_admin.end() && denied->second.count(verb) > 0) {
    return false;
  }
  // Endpoint scoping binds before allow_all: a scoped policy restricts the
  // reachable endpoints even for otherwise-unrestricted verb sets.
  if (!endpoint.empty() && !policy.allowed_endpoints.empty() &&
      policy.allowed_endpoints.count(endpoint) == 0) {
    return false;
  }
  if (policy.allow_all) {
    return true;
  }
  return policy.allowed_verbs.count(verb) > 0;
}

}  // namespace

bool PolicyManager::IsAllowed(const std::string& ticket_class, const std::string& verb,
                              const std::string& admin, const std::string& endpoint) const {
  return Permits(PolicyFor(ticket_class), verb, admin, endpoint);
}

const ClassPolicy* PolicyManager::FindPolicy(const std::string& ticket_class) const {
  auto it = policies_.find(ticket_class);
  return it == policies_.end() ? nullptr : &it->second;
}

void PolicyManager::SetShadowPolicy(const std::string& ticket_class, ClassPolicy policy) {
  shadow_policies_[ticket_class] = std::move(policy);
}

std::optional<bool> PolicyManager::ShadowAllows(const std::string& ticket_class,
                                                const std::string& verb,
                                                const std::string& admin,
                                                const std::string& endpoint) const {
  auto it = shadow_policies_.find(ticket_class);
  if (it == shadow_policies_.end()) {
    return std::nullopt;
  }
  return Permits(it->second, verb, admin, endpoint);
}

bool PolicyManager::AdmitRate(const std::string& ticket_class, const std::string& admin,
                              uint64_t now_ns) {
  const ClassPolicy& policy = PolicyFor(ticket_class);
  if (policy.max_requests_per_window == 0) {
    return true;
  }
  uint64_t window = now_ns / policy.window_ns;
  std::lock_guard<std::mutex> lock(rate_mu_);
  auto& [last_window, count] = rate_[{ticket_class, admin}];
  if (last_window != window) {
    last_window = window;
    count = 0;
  }
  if (count >= policy.max_requests_per_window) {
    return false;
  }
  ++count;
  return true;
}

}  // namespace witbroker
