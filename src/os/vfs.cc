#include "src/os/vfs.h"

#include "src/os/path.h"

namespace witos {

namespace {
constexpr int kMaxSymlinkDepth = 40;
}  // namespace

Status Vfs::AddMount(NsId mnt_ns, MountEntry entry) {
  entry.mountpoint = NormalizePath(entry.mountpoint);
  entry.fs_root = NormalizePath(entry.fs_root);
  auto& table = registry_->Mnt(mnt_ns).table;
  for (const auto& existing : table) {
    if (existing.mountpoint == entry.mountpoint) {
      return Err::kBusy;
    }
  }
  table.push_back(std::move(entry));
  return Status::Ok();
}

Status Vfs::RemoveMount(NsId mnt_ns, const std::string& mountpoint) {
  std::string norm = NormalizePath(mountpoint);
  auto& table = registry_->Mnt(mnt_ns).table;
  // Refuse to unmount a mount that has submounts.
  for (const auto& entry : table) {
    if (entry.mountpoint != norm && PathIsUnder(entry.mountpoint, norm)) {
      return Err::kBusy;
    }
  }
  for (auto it = table.begin(); it != table.end(); ++it) {
    if (it->mountpoint == norm) {
      table.erase(it);
      return Status::Ok();
    }
  }
  return Err::kInval;
}

size_t Vfs::RemoveMountsUnder(NsId mnt_ns, const std::string& prefix) {
  std::string norm = NormalizePath(prefix);
  auto& table = registry_->Mnt(mnt_ns).table;
  size_t before = table.size();
  std::erase_if(table,
                [&norm](const MountEntry& entry) { return PathIsUnder(entry.mountpoint, norm); });
  return before - table.size();
}

const MountEntry* Vfs::FindMount(NsId mnt_ns, std::string_view vfs_path) const {
  const MountEntry* best = nullptr;
  for (const auto& entry : registry_->Mnt(mnt_ns).table) {
    if (PathIsUnder(vfs_path, entry.mountpoint) &&
        (best == nullptr || entry.mountpoint.size() > best->mountpoint.size())) {
      best = &entry;
    }
  }
  return best;
}

Result<ResolvedPath> Vfs::Resolve(const VfsContext& ctx, std::string_view user_path,
                                  bool follow_final, bool allow_missing_final) const {
  if (user_path.size() > 4096) {
    return Err::kNameTooLong;
  }
  const XclNamespace* xcl = ctx.xcl_ns == kNoNs ? nullptr : &registry_->Xcl(ctx.xcl_ns);

  // Components are read from `head`, then `tail`: the cwd and then a
  // relative path, or an absolute path alone. Once a symlink is followed,
  // `spliced` owns the rest of the walk and `head` reads it.
  const bool absolute = IsAbsolutePath(user_path);
  PathComponents head(absolute ? user_path : std::string_view(ctx.cwd));
  PathComponents tail(absolute ? std::string_view() : user_path);
  std::string spliced;

  // `walk` is the vfs-space path of the current directory: the chroot
  // prefix, then the jail-space path, which is empty at the jail root.
  // `fs_path` is the current path rebased into its mount's filesystem. Both
  // are sized once from the inputs; only a symlink target, or a bind mount
  // whose fs_root is longer than its mountpoint, can grow them.
  const size_t prefix_len = ctx.root == "/" ? 0 : ctx.root.size();
  std::string walk;
  walk.reserve(prefix_len + ctx.cwd.size() + user_path.size() + 2);
  walk.append(ctx.root, 0, prefix_len);
  std::string fs_path;
  fs_path.reserve(walk.capacity());
  auto vfs_at = [&walk](size_t len) {
    return len == 0 ? std::string_view("/") : std::string_view(walk).substr(0, len);
  };
  // Rebases `vfs_path` into `fs_path`; null when no mount covers it.
  auto locate = [&](std::string_view vfs_path) -> const MountEntry* {
    const MountEntry* mount = FindMount(ctx.mnt_ns, vfs_path);
    if (mount != nullptr) {
      RebasePathInto(&fs_path, vfs_path, mount->mountpoint, mount->fs_root);
    }
    return mount;
  };
  auto xcl_denied = [&](std::string_view vfs_path) {
    if (xcl == nullptr || !xcl->IsExcluded(vfs_path)) {
      return false;
    }
    if (audit_ != nullptr) {
      audit_->Append(AuditEvent::kXclDenied, ctx.pid, ctx.cred.uid, std::string(vfs_path),
                     clock_->now_ns());
    }
    return true;
  };

  int symlink_depth = 0;
  bool exists = true;
  while (!head.done() || !tail.done()) {
    std::string_view comp = head.done() ? tail.Next() : head.Next();
    if (comp == "..") {
      // Clamp at the jail root, as chroot does.
      if (walk.size() > prefix_len) {
        walk.resize(walk.rfind('/'));
      }
      continue;
    }
    const size_t parent_len = walk.size();
    walk += '/';
    walk += comp;
    const bool is_final = head.done() && tail.done();
    // XCL enforcement happens *before* the lookup so that exclusion masks
    // even the existence of the subtree ("cannot be accessed by processes
    // that belong to that namespace, disregarding the user privileges").
    if (xcl_denied(walk)) {
      return Err::kAcces;
    }
    const MountEntry* mount = locate(walk);
    Result<Stat> st = mount == nullptr ? Result<Stat>(Err::kNoEnt)
                                       : mount->fs->GetAttr(fs_path, ctx.cred);
    if (!st.ok()) {
      if (st.error() == Err::kNoEnt && is_final && allow_missing_final) {
        // Parent must exist and be a directory.
        const MountEntry* parent = locate(vfs_at(parent_len));
        if (parent == nullptr) {
          return Err::kNoEnt;
        }
        WITOS_ASSIGN_OR_RETURN(Stat parent_st, parent->fs->GetAttr(fs_path, ctx.cred));
        if (parent_st.type != FileType::kDirectory) {
          return Err::kNotDir;
        }
        exists = false;
        break;
      }
      return st.error();
    }
    if (st->type == FileType::kSymlink && (!is_final || follow_final)) {
      if (++symlink_depth > kMaxSymlinkDepth) {
        return Err::kLoop;
      }
      WITOS_ASSIGN_OR_RETURN(std::string target, mount->fs->ReadLink(fs_path, ctx.cred));
      // Absolute targets restart at the *jail* root — chroot semantics.
      walk.resize(IsAbsolutePath(target) ? prefix_len : parent_len);
      // The target's components come before the unread ones.
      target += '/';
      target += head.rest();
      target += '/';
      target += tail.rest();
      spliced = std::move(target);
      head = PathComponents(spliced);
      tail = PathComponents();
      continue;
    }
    if (!is_final && st->type != FileType::kDirectory) {
      return Err::kNotDir;
    }
  }

  // XCL enforcement: the canonical vfs path must not fall in an excluded
  // subtree, "disregarding the user privileges" (paper §5.6).
  if (xcl_denied(vfs_at(walk.size()))) {
    return Err::kAcces;
  }
  const MountEntry* mount = locate(vfs_at(walk.size()));
  if (mount == nullptr) {
    return Err::kNoEnt;
  }
  ResolvedPath out;
  out.jail_path = walk.size() == prefix_len ? std::string("/") : walk.substr(prefix_len);
  out.vfs_path = walk.empty() ? std::string("/") : std::move(walk);
  out.fs = mount->fs;
  out.fs_path = std::move(fs_path);
  out.read_only = mount->read_only;
  out.exists = exists;
  return out;
}

}  // namespace witos
