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

void CertificateAuthority::AddRevokedLocked(uint64_t serial) {
  auto next = RunAfter(revoked_runs_, serial);
  const bool joins_next = next != revoked_runs_.end() && next->first == serial + 1;
  if (next != revoked_runs_.begin()) {
    auto prev = std::prev(next);
    if (serial <= prev->last) {
      return;  // already revoked
    }
    if (prev->last + 1 == serial) {
      prev->last = joins_next ? next->last : serial;
      if (joins_next) {
        revoked_runs_.erase(next);
      }
      ++revoked_count_;
      return;
    }
  }
  if (joins_next) {
    next->first = serial;
  } else {
    revoked_runs_.insert(next, RevokedRun{serial, serial});
  }
  ++revoked_count_;
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
  AddRevokedLocked(serial);
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

std::vector<uint64_t> CertificateAuthority::RevokedSnapshot() const {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  std::vector<uint64_t> serials;
  serials.reserve(revoked_count_);
  for (const RevokedRun& run : revoked_runs_) {
    for (uint64_t serial = run.first; serial <= run.last; ++serial) {
      serials.push_back(serial);
    }
  }
  return serials;
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

witos::Status CertificateAuthority::RestoreRevoked(uint64_t serial) {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  if (!IssuableSerial(serial)) {
    return witos::Err::kInval;
  }
  live_.erase(serial);
  AddRevokedLocked(serial);
  if (serial >= next_serial_) {
    next_serial_ = serial + 1;
  }
  return witos::Status::Ok();
}

}  // namespace watchit
