// The virtual filesystem switch: path resolution across per-namespace mount
// tables, chroot jails, symlinks, and the XCL exclusion namespace.
//
// Resolution happens in two coordinate systems:
//  * jail-space  — paths as the process sees them ("/" is its chroot root);
//  * vfs-space   — paths in the mount namespace's global tree (what the
//                  host sees when sharing the MNT namespace).
// A process's `root` is a vfs-space path; `vfs = root + jail_path`. Mount
// tables and XCL exclusion tables are keyed in vfs-space.

#ifndef SRC_OS_VFS_H_
#define SRC_OS_VFS_H_

#include <memory>
#include <string>
#include <string_view>

#include "src/os/audit.h"
#include "src/os/clock.h"
#include "src/os/filesystem.h"
#include "src/os/namespaces.h"
#include "src/os/result.h"

namespace witos {

// Everything path resolution needs to know about the calling process.
struct VfsContext {
  NsId mnt_ns = kNoNs;
  NsId xcl_ns = kNoNs;
  std::string root = "/";  // canonical vfs-space chroot directory
  std::string cwd = "/";   // jail-space working directory
  Credentials cred;        // host-mapped credentials
  Pid pid = kNoPid;        // for audit records
};

struct ResolvedPath {
  std::string jail_path;  // canonical jail-space path
  std::string vfs_path;   // canonical vfs-space path
  std::shared_ptr<Filesystem> fs;
  std::string fs_path;    // path within `fs`
  bool read_only = false;
  bool exists = true;     // false only when resolving with allow_missing_final
};

class Vfs {
 public:
  // XCL denials are recorded in `audit`, stamped with `clock`'s reading.
  Vfs(NamespaceRegistry* registry, AuditLog* audit, const SimClock* clock)
      : registry_(registry), audit_(audit), clock_(clock) {}

  // Resolves `user_path` (jail-space, absolute or cwd-relative) to a
  // filesystem + fs-local path. Follows symlinks in intermediate components
  // always, and in the final component iff `follow_final`. If
  // `allow_missing_final`, a missing last component resolves against its
  // parent directory (for create/mkdir/symlink targets) with exists=false.
  // Enforces the XCL exclusion table on each component's vfs path before
  // looking it up, and on the final canonical vfs path. Issues one GetAttr
  // per component walked (plus the parent's when a missing final component
  // is allowed) and one ReadLink per symlink followed.
  Result<ResolvedPath> Resolve(const VfsContext& ctx, std::string_view user_path,
                               bool follow_final = true, bool allow_missing_final = false) const;

  // Mount-table operations on a given MNT namespace. `mountpoint` is a
  // canonical vfs-space path; the caller is responsible for verifying it
  // exists and for capability checks.
  Status AddMount(NsId mnt_ns, MountEntry entry);
  Status RemoveMount(NsId mnt_ns, const std::string& mountpoint);
  // Removes every mount at or under `prefix` (session teardown); returns the
  // number removed.
  size_t RemoveMountsUnder(NsId mnt_ns, const std::string& prefix);
  // Longest-prefix mount lookup in vfs-space; null when no mount covers
  // `vfs_path`. The entry lives in the namespace's table until the next
  // mount-table change.
  const MountEntry* FindMount(NsId mnt_ns, std::string_view vfs_path) const;

 private:
  NamespaceRegistry* registry_;
  AuditLog* audit_;
  const SimClock* clock_;
};

}  // namespace witos

#endif  // SRC_OS_VFS_H_
