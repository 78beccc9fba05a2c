// Kernel audit log: an append-only record of security-relevant events.
//
// WatchIT logs every boundary-crossing action (permission broker requests,
// denied syscalls, capability failures, XCL hits). The log is append-only by
// construction — there is no mutating API — and can be mirrored to replicas,
// which models the paper's "replicated on a remote append-only storage"
// defence against log tampering (Attack 6).

#ifndef SRC_OS_AUDIT_H_
#define SRC_OS_AUDIT_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "src/os/types.h"

namespace witos {

enum class AuditEvent : uint8_t {
  kSyscallDenied,
  kCapabilityDenied,
  kXclDenied,
  kFileAccess,
  kFileDenied,
  kNetworkFlow,
  kNetworkBlocked,
  kBrokerRequest,
  kBrokerDenied,
  kContainerDeployed,
  kContainerTerminated,
  kTcbViolation,
  kSessionEvent,
};

std::string AuditEventName(AuditEvent ev);

struct AuditRecord {
  uint64_t seq = 0;
  uint64_t time_ns = 0;
  AuditEvent event = AuditEvent::kSessionEvent;
  Pid pid = kNoPid;
  Uid uid = 0;
  std::string detail;
};

// Appends are internally synchronized, so concurrent writers cannot
// corrupt the trail.
class AuditLog {
 public:
  void Append(AuditEvent event, Pid pid, Uid uid, std::string detail, uint64_t time_ns);

  // Borrowed view for quiesced readers (reports, post-run assertions);
  // concurrent appenders invalidate it — use Filter() for a stable copy.
  const std::vector<AuditRecord>& records() const { return records_; }
  size_t size() const;

  // Records matching a predicate (analysis-side convenience).
  std::vector<AuditRecord> Filter(const std::function<bool(const AuditRecord&)>& pred) const;
  size_t CountEvent(AuditEvent event) const;

  // Registers a replica sink; every subsequent append is mirrored to it.
  // The sink runs under the log's lock and must not call back in.
  using Sink = std::function<void(const AuditRecord&)>;
  void AddReplica(Sink sink);

 private:
  mutable std::mutex mu_;
  std::vector<AuditRecord> records_;
  std::vector<Sink> replicas_;
  uint64_t next_seq_ = 1;
};

}  // namespace witos

#endif  // SRC_OS_AUDIT_H_
