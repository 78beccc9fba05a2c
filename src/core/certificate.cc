#include "src/core/certificate.h"

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
  issued_[cert.serial] = cert;
  if (issue_listener_) {
    issue_listener_(cert);
  }
  return cert;
}

CertStatus CertificateAuthority::Validate(const Certificate& cert, uint64_t now_ns) const {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  auto it = issued_.find(cert.serial);
  if (it == issued_.end()) {
    return CertStatus::kUnknown;
  }
  if (cert != it->second) {
    return CertStatus::kForged;
  }
  if (revoked_.count(cert.serial) > 0) {
    return CertStatus::kRevoked;
  }
  if (now_ns >= cert.expires_ns) {
    return CertStatus::kExpired;
  }
  return CertStatus::kValid;
}

void CertificateAuthority::Revoke(uint64_t serial) {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  bool newly = revoked_.emplace(serial, true).second;
  if (newly && revoke_listener_) {
    revoke_listener_(serial);
  }
}

bool CertificateAuthority::IsRevoked(uint64_t serial) const {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  return revoked_.count(serial) > 0;
}

size_t CertificateAuthority::issued_count() const {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  return issued_.size();
}

size_t CertificateAuthority::revoked_count() const {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  return revoked_.size();
}

std::vector<Certificate> CertificateAuthority::IssuedSnapshot() const {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  std::vector<Certificate> certs;
  certs.reserve(issued_.size());
  for (const auto& [serial, cert] : issued_) {
    (void)serial;
    certs.push_back(cert);
  }
  return certs;
}

std::vector<uint64_t> CertificateAuthority::RevokedSnapshot() const {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  std::vector<uint64_t> serials;
  serials.reserve(revoked_.size());
  for (const auto& [serial, flag] : revoked_) {
    (void)flag;
    serials.push_back(serial);
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
  if (cert.signature != Sign(cert)) {
    return witos::Err::kInval;
  }
  if (!issued_.emplace(cert.serial, cert).second) {
    return witos::Err::kExist;
  }
  if (cert.serial >= next_serial_) {
    next_serial_ = cert.serial + 1;
  }
  return witos::Status::Ok();
}

void CertificateAuthority::RestoreRevoked(uint64_t serial) {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  revoked_[serial] = true;
}

}  // namespace watchit
