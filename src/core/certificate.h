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
//
// The CA keeps only live certificates. Revoking one erases it and adds its
// serial to sorted [first, last] runs of revoked serials: serials are
// issued in order and mostly expire in order, so a long run of tickets
// leaves a handful of runs, not one entry per certificate ever issued.
class CertificateAuthority {
 public:
  // Revoked serials first..last, inclusive.
  struct RevokedRun {
    uint64_t first = 0;
    uint64_t last = 0;
    bool operator==(const RevokedRun&) const = default;
  };

  explicit CertificateAuthority(uint64_t secret = 0x57a7c417u) : secret_(secret) {}

  Certificate Issue(const std::string& admin, const std::string& machine,
                    const std::string& ticket_id, const std::string& ticket_class,
                    uint64_t now_ns, uint64_t lifetime_ns);

  // kRevoked for a revoked serial, whatever fields `cert` presents. For a
  // live serial, kForged unless `cert` equals, field for field and
  // signature included, the certificate this CA issued under it. The
  // signature is not recomputed: a holder who recovers the secret can sign
  // a copy with a later expiry, but cannot make this CA's record of it
  // change. kUnknown for a serial this CA does not know.
  CertStatus Validate(const Certificate& cert, uint64_t now_ns) const;

  // Revokes a live certificate. A serial already revoked, or one this CA
  // never issued, changes nothing.
  void Revoke(uint64_t serial);
  bool IsRevoked(uint64_t serial) const;

  // Every certificate issued (live plus revoked), and the revoked ones.
  size_t issued_count() const;
  size_t revoked_count() const;

  // Point-in-time copies of the books, in serial order — what a checkpoint
  // persists: the live certificates, and the revoked serials as sorted,
  // disjoint, never-adjacent runs.
  std::vector<Certificate> IssuedSnapshot() const;
  std::vector<RevokedRun> RevokedRunsSnapshot() const;

  // Observers for the write-ahead journal (witjournal, DESIGN.md §15),
  // invoked under the CA lock — after every Issue, and after a serial is
  // *newly* revoked (a re-revoke is idempotent and silent). Must not call
  // back into the CA. Set before traffic starts.
  using IssueListener = std::function<void(const Certificate& cert)>;
  using RevokeListener = std::function<void(uint64_t serial)>;
  void set_issue_listener(IssueListener listener);
  void set_revoke_listener(RevokeListener listener);

  // Recovery: re-seeds one live certificate exactly as journaled, bypassing
  // the listeners. The signature must verify under this CA's secret (EINVAL
  // otherwise — a journaled cert this CA never signed is corruption; this
  // offline check is what the signature is for) and the serial must be
  // neither live nor revoked (EEXIST). next_serial advances past every
  // restored serial so post-recovery issues never collide; a serial no CA
  // issues (0, or UINT64_MAX, past which next_serial would wrap) is EINVAL.
  witos::Status RestoreIssued(const Certificate& cert);
  // Recovery: re-seeds the revocation of serials first..last (a journaled
  // revocation is a run of one), erasing every restored certificate among
  // them; serials with no restored issue (a checkpoint holds live
  // certificates only) are marked revoked all the same, and next_serial
  // advances past `last`. Work is linear in the runs held plus the
  // certificates erased, never in the run's length. Idempotent, bypasses
  // the listeners. EINVAL, and nothing changes, when first > last or either
  // bound is a serial no CA issues, as in RestoreIssued.
  witos::Status RestoreRevokedRun(uint64_t first, uint64_t last);

  // Attaches the CA lock to the contention profile
  // (watchit_lock_{wait,hold}_ns{lock="ca"}): every deploy issues and every
  // expiry revokes through this one mutex.
  void EnableLockMetrics(witobs::MetricsRegistry* registry) { mu_.EnableMetrics(registry); }

 private:
  uint64_t Sign(const Certificate& cert) const;
  bool IsRevokedLocked(uint64_t serial) const;
  // Adds serials first..last to the runs, merging every run it overlaps or
  // touches; idempotent. The one interval merge behind Revoke and recovery.
  void AddRevokedLocked(uint64_t first, uint64_t last);

  uint64_t secret_;
  mutable witobs::ProfiledMutex mu_{"ca"};
  uint64_t next_serial_ = 1;
  std::map<uint64_t, Certificate> live_;
  std::vector<RevokedRun> revoked_runs_;  // sorted, disjoint, never adjacent
  size_t revoked_count_ = 0;
  IssueListener issue_listener_;
  RevokeListener revoke_listener_;
};

}  // namespace watchit

#endif  // SRC_CORE_CERTIFICATE_H_
