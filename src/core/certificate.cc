#include "src/core/certificate.h"

#include <algorithm>
#include <cstdint>
#include <iterator>

#include "src/os/audit.h"

namespace watchit {

std::string CertStatusName(CertStatus status) {
  switch (status) {
    case CertStatus::kValid:
      return "valid";
    case CertStatus::kExpired:
      return "expired";
    case CertStatus::kRevoked:
      return "revoked";
    case CertStatus::kForged:
      return "forged";
    case CertStatus::kUnknown:
      return "unknown";
  }
  return "?";
}

uint64_t CertificateAuthority::Sign(const Certificate& cert) const {
  std::string material = cert.admin + "|" + cert.machine + "|" + cert.ticket_id + "|" +
                         cert.ticket_class + "|" + std::to_string(cert.serial) + "|" +
                         std::to_string(cert.issued_ns) + "|" + std::to_string(cert.expires_ns);
  return witos::Fnv1a(material, secret_);
}

namespace {

// Serials run from 1 and never reach UINT64_MAX, past which next_serial_
// would wrap onto serials already issued.
bool IssuableSerial(uint64_t serial) { return serial != 0 && serial != UINT64_MAX; }

// The first of the sorted runs that starts after `serial`.
template <typename Runs>
auto RunAfter(Runs& runs, uint64_t serial) {
  return std::upper_bound(runs.begin(), runs.end(), serial,
                          [](uint64_t value, const auto& run) { return value < run.first; });
}

}  // namespace

bool CertificateAuthority::IsRevokedLocked(uint64_t serial) const {
  auto next = RunAfter(revoked_runs_, serial);
  return next != revoked_runs_.begin() && serial <= std::prev(next)->last;
}

void CertificateAuthority::AddRevokedLocked(uint64_t first, uint64_t last) {
  // The runs [lo, hi) overlap or touch first..last (issuable bounds, so
  // neither first - 1 nor last + 1 wraps); they become one run.
  auto lo = std::lower_bound(
      revoked_runs_.begin(), revoked_runs_.end(), first - 1,
      [](const RevokedRun& run, uint64_t value) { return run.last < value; });
  auto hi = RunAfter(revoked_runs_, last + 1);
  RevokedRun merged{first, last};
  uint64_t already = 0;
  for (auto it = lo; it != hi; ++it) {
    merged.first = std::min(merged.first, it->first);
    merged.last = std::max(merged.last, it->last);
    already += it->last - it->first + 1;
  }
  revoked_count_ += merged.last - merged.first + 1 - already;
  if (lo == hi) {
    revoked_runs_.insert(lo, merged);
    return;
  }
  *lo = merged;
  revoked_runs_.erase(std::next(lo), hi);
}

Certificate CertificateAuthority::Issue(const std::string& admin, const std::string& machine,
                                        const std::string& ticket_id,
                                        const std::string& ticket_class, uint64_t now_ns,
                                        uint64_t lifetime_ns) {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  Certificate cert;
  cert.serial = next_serial_++;
  cert.admin = admin;
  cert.machine = machine;
  cert.ticket_id = ticket_id;
  cert.ticket_class = ticket_class;
  cert.issued_ns = now_ns;
  cert.expires_ns = now_ns + lifetime_ns;
  cert.signature = Sign(cert);
  live_.emplace(cert.serial, cert);
  if (issue_listener_) {
    issue_listener_(cert);
  }
  return cert;
}

CertStatus CertificateAuthority::Validate(const Certificate& cert, uint64_t now_ns) const {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  auto it = live_.find(cert.serial);
  if (it == live_.end()) {
    return IsRevokedLocked(cert.serial) ? CertStatus::kRevoked : CertStatus::kUnknown;
  }
  if (cert != it->second) {
    return CertStatus::kForged;
  }
  if (now_ns >= cert.expires_ns) {
    return CertStatus::kExpired;
  }
  return CertStatus::kValid;
}

void CertificateAuthority::Revoke(uint64_t serial) {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  if (live_.erase(serial) == 0) {
    return;  // already revoked, or never issued
  }
  AddRevokedLocked(serial, serial);
  if (revoke_listener_) {
    revoke_listener_(serial);
  }
}

bool CertificateAuthority::IsRevoked(uint64_t serial) const {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  return IsRevokedLocked(serial);
}

size_t CertificateAuthority::issued_count() const {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  return live_.size() + revoked_count_;
}

size_t CertificateAuthority::revoked_count() const {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  return revoked_count_;
}

std::vector<Certificate> CertificateAuthority::IssuedSnapshot() const {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  std::vector<Certificate> certs;
  certs.reserve(live_.size());
  for (const auto& [serial, cert] : live_) {
    (void)serial;
    certs.push_back(cert);
  }
  return certs;
}

std::vector<CertificateAuthority::RevokedRun> CertificateAuthority::RevokedRunsSnapshot() const {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  return revoked_runs_;
}

void CertificateAuthority::set_issue_listener(IssueListener listener) {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  issue_listener_ = std::move(listener);
}

void CertificateAuthority::set_revoke_listener(RevokeListener listener) {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  revoke_listener_ = std::move(listener);
}

witos::Status CertificateAuthority::RestoreIssued(const Certificate& cert) {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  if (!IssuableSerial(cert.serial) || cert.signature != Sign(cert)) {
    return witos::Err::kInval;
  }
  if (IsRevokedLocked(cert.serial) || !live_.emplace(cert.serial, cert).second) {
    return witos::Err::kExist;
  }
  if (cert.serial >= next_serial_) {
    next_serial_ = cert.serial + 1;
  }
  return witos::Status::Ok();
}

witos::Status CertificateAuthority::RestoreRevokedRun(uint64_t first, uint64_t last) {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  if (first > last || !IssuableSerial(first) || !IssuableSerial(last)) {
    return witos::Err::kInval;
  }
  live_.erase(live_.lower_bound(first), live_.upper_bound(last));
  AddRevokedLocked(first, last);
  if (last >= next_serial_) {
    next_serial_ = last + 1;
  }
  return witos::Status::Ok();
}

}  // namespace watchit
