// The reference resolver: the deque-of-strings path walk that
// `witos::Vfs::Resolve` replaced, kept as the differential oracle for
// vfs_property_test. It builds every intermediate path as its own string,
// which makes it slow but easy to read against chroot, symlink and XCL
// semantics. `Vfs::Resolve` must agree with it on every outcome, on the
// audit records appended, and on the exact sequence of filesystem calls.

#ifndef TESTS_VFS_REFERENCE_H_
#define TESTS_VFS_REFERENCE_H_

#include <deque>
#include <string>
#include <string_view>

#include "src/os/audit.h"
#include "src/os/namespaces.h"
#include "src/os/path.h"
#include "src/os/vfs.h"

namespace witos::reference {

// Longest-prefix mount lookup in vfs-space, returning a copy of the entry.
inline Result<MountEntry> FindMount(NamespaceRegistry* registry, NsId mnt_ns,
                                    const std::string& vfs_path) {
  const auto& table = registry->Mnt(mnt_ns).table;
  const MountEntry* best = nullptr;
  size_t best_len = 0;
  for (const auto& entry : table) {
    if (PathIsUnder(vfs_path, entry.mountpoint)) {
      size_t len = entry.mountpoint.size();
      if (best == nullptr || len > best_len) {
        best = &entry;
        best_len = len;
      }
    }
  }
  if (best == nullptr) {
    return Err::kNoEnt;
  }
  return *best;
}

// Same contract as `Vfs::Resolve`.
inline Result<ResolvedPath> Resolve(NamespaceRegistry* registry, AuditLog* audit,
                                    const VfsContext& ctx, std::string_view user_path,
                                    bool follow_final = true, bool allow_missing_final = false) {
  constexpr int kMaxSymlinkDepth = 40;
  if (user_path.size() > 4096) {
    return Err::kNameTooLong;
  }
  // Work queue of path components, jail-space.
  std::deque<std::string> todo;
  auto push_all = [&todo](std::string_view p) {
    auto parts = SplitPath(p);
    for (auto it = parts.rbegin(); it != parts.rend(); ++it) {
      todo.push_front(std::move(*it));
    }
  };
  std::string cur = "/";
  if (IsAbsolutePath(user_path)) {
    push_all(user_path);
  } else {
    // push_all prepends, so push the relative path first and the cwd after:
    // the cwd components must be consumed before the path's.
    push_all(user_path);
    push_all(ctx.cwd);
  }

  int symlink_depth = 0;
  auto stat_at = [&](const std::string& jail_path) -> Result<Stat> {
    std::string vfs_path = jail_path == "/" ? ctx.root : JoinPath(ctx.root, jail_path.substr(1));
    auto mount = FindMount(registry, ctx.mnt_ns, vfs_path);
    if (!mount.ok()) {
      return mount.error();
    }
    std::string fs_path = RebasePath(vfs_path, mount->mountpoint, mount->fs_root);
    return mount->fs->GetAttr(fs_path, ctx.cred);
  };

  while (!todo.empty()) {
    std::string comp = std::move(todo.front());
    todo.pop_front();
    if (comp == "..") {
      // Clamp at the jail root, as chroot does.
      if (cur != "/") {
        cur = Dirname(cur);
      }
      continue;
    }
    std::string next = cur == "/" ? "/" + comp : cur + "/" + comp;
    bool is_final = todo.empty();
    // XCL enforcement happens *before* the lookup so that exclusion masks
    // even the existence of the subtree.
    {
      std::string vfs_next = JoinPath(ctx.root, next.substr(1));
      if (ctx.xcl_ns != kNoNs && registry->Xcl(ctx.xcl_ns).IsExcluded(vfs_next)) {
        if (audit != nullptr) {
          audit->Append(AuditEvent::kXclDenied, ctx.pid, ctx.cred.uid, vfs_next, 0);
        }
        return Err::kAcces;
      }
    }
    auto st = stat_at(next);
    if (!st.ok()) {
      if (st.error() == Err::kNoEnt && is_final && allow_missing_final) {
        // Parent must exist and be a directory.
        auto parent_st = stat_at(cur);
        if (!parent_st.ok()) {
          return parent_st.error();
        }
        if (parent_st->type != FileType::kDirectory) {
          return Err::kNotDir;
        }
        cur = next;
        std::string vfs_path = JoinPath(ctx.root, cur.substr(1));
        if (ctx.xcl_ns != kNoNs && registry->Xcl(ctx.xcl_ns).IsExcluded(vfs_path)) {
          if (audit != nullptr) {
            audit->Append(AuditEvent::kXclDenied, ctx.pid, ctx.cred.uid, vfs_path, 0);
          }
          return Err::kAcces;
        }
        WITOS_ASSIGN_OR_RETURN(MountEntry mount, FindMount(registry, ctx.mnt_ns, vfs_path));
        ResolvedPath out;
        out.jail_path = cur;
        out.vfs_path = vfs_path;
        out.fs = mount.fs;
        out.fs_path = RebasePath(vfs_path, mount.mountpoint, mount.fs_root);
        out.read_only = mount.read_only;
        out.exists = false;
        return out;
      }
      return st.error();
    }
    if (st->type == FileType::kSymlink && (!is_final || follow_final)) {
      if (++symlink_depth > kMaxSymlinkDepth) {
        return Err::kLoop;
      }
      std::string vfs_path = JoinPath(ctx.root, next.substr(1));
      WITOS_ASSIGN_OR_RETURN(MountEntry mount, FindMount(registry, ctx.mnt_ns, vfs_path));
      std::string fs_path = RebasePath(vfs_path, mount.mountpoint, mount.fs_root);
      WITOS_ASSIGN_OR_RETURN(std::string target, mount.fs->ReadLink(fs_path, ctx.cred));
      if (IsAbsolutePath(target)) {
        // Absolute targets restart at the *jail* root — chroot semantics.
        cur = "/";
      }
      push_all(target);
      continue;
    }
    if (!is_final && st->type != FileType::kDirectory) {
      return Err::kNotDir;
    }
    cur = next;
  }

  std::string vfs_path = cur == "/" ? ctx.root : JoinPath(ctx.root, cur.substr(1));
  // XCL enforcement: the canonical vfs path must not fall in an excluded
  // subtree, "disregarding the user privileges" (paper §5.6).
  if (ctx.xcl_ns != kNoNs && registry->Xcl(ctx.xcl_ns).IsExcluded(vfs_path)) {
    if (audit != nullptr) {
      audit->Append(AuditEvent::kXclDenied, ctx.pid, ctx.cred.uid, vfs_path, 0);
    }
    return Err::kAcces;
  }
  WITOS_ASSIGN_OR_RETURN(MountEntry mount, FindMount(registry, ctx.mnt_ns, vfs_path));
  ResolvedPath out;
  out.jail_path = cur;
  out.vfs_path = vfs_path;
  out.fs = mount.fs;
  out.fs_path = RebasePath(vfs_path, mount.mountpoint, mount.fs_root);
  out.read_only = mount.read_only;
  out.exists = true;
  return out;
}

}  // namespace witos::reference

#endif  // TESTS_VFS_REFERENCE_H_
