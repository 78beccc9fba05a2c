#include "src/core/tcb.h"

#include "src/os/audit.h"
#include "src/os/path.h"

namespace watchit {

Tcb::Tcb(witos::Kernel* kernel, std::vector<std::string> paths,
         std::vector<std::string> measured_paths)
    : kernel_(kernel), paths_(std::move(paths)), measured_paths_(std::move(measured_paths)) {
  for (auto& path : paths_) {
    path = witos::NormalizePath(path);
  }
  if (measured_paths_.empty()) {
    measured_paths_ = paths_;
  }
  for (auto& path : measured_paths_) {
    path = witos::NormalizePath(path);
  }
}

uint64_t Tcb::MeasurePath(const std::string& path) const {
  // Depth-first measurement through the kernel as init (root, host view).
  uint64_t hash = witos::Fnv1a(path);
  witos::Pid pid = kernel_->init_pid();
  auto st = kernel_->StatPath(pid, path);
  if (!st.ok()) {
    return hash;  // absent paths contribute only their name
  }
  if (st->type == witos::FileType::kDirectory) {
    auto entries = kernel_->ReadDir(pid, path);
    if (entries.ok()) {
      for (const auto& entry : *entries) {
        hash ^= MeasurePath(path == "/" ? "/" + entry.name : path + "/" + entry.name);
        hash *= 1099511628211ull;
      }
    }
    return hash;
  }
  auto content = kernel_->ReadFile(pid, path);
  if (content.ok()) {
    hash = witos::Fnv1a(*content, hash);
  }
  return hash;
}

uint64_t Tcb::Measure() const {
  // Integrity measurement must see the medium, not the page cache
  // (O_DIRECT semantics).
  kernel_->DropCaches();
  uint64_t hash = 0xcbf29ce484222325ull;
  for (const auto& path : measured_paths_) {
    hash ^= MeasurePath(path);
    hash *= 1099511628211ull;
  }
  return hash;
}

void Tcb::Enroll() {
  enrolled_measurement_ = Measure();
  enrolled_ = true;
}

bool Tcb::ValidateBoot() const { return enrolled_ && Measure() == enrolled_measurement_; }

bool Tcb::IsProtected(const std::string& vfs_path) const {
  for (const auto& prefix : paths_) {
    if (witos::PathIsUnder(vfs_path, prefix)) {
      return true;
    }
  }
  return false;
}

void Tcb::InstallGuard() {
  kernel_->SetWriteGuard([this](const std::string& vfs_path, const witos::Credentials& cred) {
    (void)cred;
    // Kernel-module loads: allowed only when the organizational policy
    // system signed the module.
    if (witos::PathIsUnder(vfs_path, "/lib/modules")) {
      return IsModuleAuthorized(witos::Basename(vfs_path));
    }
    return !IsProtected(vfs_path);
  });
}

void Tcb::AuthorizeModule(const std::string& name) { authorized_modules_.insert(name); }

bool Tcb::IsModuleAuthorized(const std::string& name) const {
  return authorized_modules_.count(name) > 0;
}

}  // namespace watchit
