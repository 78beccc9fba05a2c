#include "src/net/dns.h"

namespace witnet {

ServiceHandler DnsService::Handler() {
  return [this](const Packet& packet) -> std::string {
    queries_.fetch_add(1, std::memory_order_relaxed);
    constexpr std::string_view kQueryPrefix = "A? ";
    if (packet.payload.compare(0, kQueryPrefix.size(), kQueryPrefix) != 0) {
      return "FORMERR";
    }
    std::string name = packet.payload.substr(kQueryPrefix.size());
    auto it = records_.find(name);
    if (it == records_.end()) {
      return "NXDOMAIN " + name;
    }
    return "A " + name + " " + it->second.ToString();
  };
}

witos::Result<Ipv4Addr> DnsResolver::Resolve(witos::NsId ns, const std::string& name,
                                              witos::Pid pid) {
  auto cached = cache_.find({ns, name});
  if (cached != cache_.end()) {
    return cached->second;
  }
  WITOS_ASSIGN_OR_RETURN(std::string response,
                         stack_->Request(ns, nameserver_, port_, "A? " + name, pid, 0));
  if (response.compare(0, 9, "NXDOMAIN ") == 0) {
    return witos::Err::kNoEnt;
  }
  // "A <name> <addr>"
  size_t last_space = response.find_last_of(' ');
  if (response.compare(0, 2, "A ") != 0 || last_space == std::string::npos) {
    return witos::Err::kIo;
  }
  auto addr = Ipv4Addr::Parse(response.substr(last_space + 1));
  if (!addr.has_value()) {
    return witos::Err::kIo;
  }
  cache_.emplace(std::make_pair(ns, name), *addr);
  return *addr;
}

}  // namespace witnet
