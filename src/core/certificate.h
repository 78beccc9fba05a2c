// Time-limited login certificates (paper §5.1: "connecting to the deployed
// perforated containers is enabled via a temporary certificate, which is
// revoked once the ticket time expires").

#ifndef SRC_CORE_CERTIFICATE_H_
#define SRC_CORE_CERTIFICATE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/obs/profile.h"
#include "src/os/result.h"

namespace watchit {

struct Certificate {
  uint64_t serial = 0;
  std::string admin;
  std::string machine;
  std::string ticket_id;
  std::string ticket_class;
  uint64_t issued_ns = 0;
  uint64_t expires_ns = 0;
  uint64_t signature = 0;

  bool operator==(const Certificate&) const = default;
};

enum class CertStatus {
  kValid,
  kExpired,
  kRevoked,
  kForged,
  kUnknown,
};

std::string CertStatusName(CertStatus status);

// One CA serves the whole cluster, so Issue/Validate/Revoke are internally
// synchronized: every serving worker deploys (issues) and expires (revokes)
// through this object concurrently.
class CertificateAuthority {
 public:
  explicit CertificateAuthority(uint64_t secret = 0x57a7c417u) : secret_(secret) {}

  Certificate Issue(const std::string& admin, const std::string& machine,
                    const std::string& ticket_id, const std::string& ticket_class,
                    uint64_t now_ns, uint64_t lifetime_ns);

  // kForged unless `cert` equals, field for field and signature included,
  // the certificate this CA issued under its serial. The signature is not
  // recomputed: a holder who recovers the secret can sign a copy with a
  // later expiry, but cannot make this CA's record of it change.
  CertStatus Validate(const Certificate& cert, uint64_t now_ns) const;

  void Revoke(uint64_t serial);
  bool IsRevoked(uint64_t serial) const;

  size_t issued_count() const;
  size_t revoked_count() const;

  // Point-in-time copies of the issue/revoke books — what a checkpoint
  // persists (serial order, since issued_ is keyed by serial).
  std::vector<Certificate> IssuedSnapshot() const;
  std::vector<uint64_t> RevokedSnapshot() const;

  // Observers for the write-ahead journal (witjournal, DESIGN.md §15),
  // invoked under the CA lock — after every Issue, and after a serial is
  // *newly* revoked (a re-revoke is idempotent and silent). Must not call
  // back into the CA. Set before traffic starts.
  using IssueListener = std::function<void(const Certificate& cert)>;
  using RevokeListener = std::function<void(uint64_t serial)>;
  void set_issue_listener(IssueListener listener);
  void set_revoke_listener(RevokeListener listener);

  // Recovery: re-seeds one certificate exactly as journaled, bypassing the
  // listeners. The signature must verify under this CA's secret (EINVAL
  // otherwise — a journaled cert this CA never signed is corruption; this
  // offline check is what the signature is for) and
  // the serial must be unused (EEXIST). next_serial advances past every
  // restored serial so post-recovery issues never collide.
  witos::Status RestoreIssued(const Certificate& cert);
  // Recovery: re-seeds a revocation; idempotent, bypasses the listeners.
  void RestoreRevoked(uint64_t serial);

  // Attaches the CA lock to the contention profile
  // (watchit_lock_{wait,hold}_ns{lock="ca"}): every deploy issues and every
  // expiry revokes through this one mutex.
  void EnableLockMetrics(witobs::MetricsRegistry* registry) { mu_.EnableMetrics(registry); }

 private:
  uint64_t Sign(const Certificate& cert) const;

  uint64_t secret_;
  mutable witobs::ProfiledMutex mu_{"ca"};
  uint64_t next_serial_ = 1;
  std::map<uint64_t, Certificate> issued_;
  std::map<uint64_t, bool> revoked_;
  IssueListener issue_listener_;
  RevokeListener revoke_listener_;
};

}  // namespace watchit

#endif  // SRC_CORE_CERTIFICATE_H_
