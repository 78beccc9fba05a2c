// TCB integrity: boot-time measurement of the protected file set (BitLocker
// style, paper §2) and a kernel write guard that denies any mutation of TCB
// paths — including WatchIT's own software — from any process (Attack 5
// defence, "the system will not boot if any of its components have been
// tampered with").
//
// Kernel-module loads route through the same guard; only modules whose name
// is on the signed allow-list (the "organizational policy system") pass.

#ifndef SRC_CORE_TCB_H_
#define SRC_CORE_TCB_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/os/kernel.h"

namespace watchit {

class Tcb {
 public:
  // Protects `paths` (vfs-space prefixes) on `kernel`: the write guard
  // denies mutation of all of them. `measured_paths` (defaulting to the
  // guarded set) are what boot-time measurement hashes — append-only data
  // like a log directory belongs in the guarded set but not the measured one.
  Tcb(witos::Kernel* kernel, std::vector<std::string> paths,
      std::vector<std::string> measured_paths = {});

  // Measures the protected files and stores the result as the golden state.
  void Enroll();

  // Re-measures and compares with the enrolled state (secure-boot check).
  bool ValidateBoot() const;

  // Installs the kernel write guard. After this, every write/unlink/rename
  // touching a protected path is denied with EPERM and audited, regardless
  // of privileges. Module loads are denied unless authorized.
  void InstallGuard();

  // Marks a kernel module as signed by the organizational policy system.
  void AuthorizeModule(const std::string& name);
  bool IsModuleAuthorized(const std::string& name) const;

  bool IsProtected(const std::string& vfs_path) const;

 private:
  uint64_t MeasurePath(const std::string& path) const;
  uint64_t Measure() const;

  witos::Kernel* kernel_;
  std::vector<std::string> paths_;
  std::vector<std::string> measured_paths_;
  std::set<std::string> authorized_modules_;
  uint64_t enrolled_measurement_ = 0;
  bool enrolled_ = false;
};

}  // namespace watchit

#endif  // SRC_CORE_TCB_H_
