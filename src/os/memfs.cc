#include "src/os/memfs.h"

#include <bit>
#include <utility>

#include "src/os/path.h"

namespace witos {

namespace {

// Extends a file's bytes to `size`. Once a file holds data, a growth moves
// it into the smallest power-of-two buffer that fits, so the buffer's
// capacity, and the copy each growth makes, follow the file's size alone.
// Left to std::string, every capacity is the first write's size times a
// power of two: an append-only journal whose first record comes from
// whichever thread wins a race would then grow, and hold its peak
// footprint, at different sizes from run to run.
void GrowTo(std::string* data, size_t size) {
  if (!data->empty() && size > data->capacity()) {
    // Reserved on an empty string, so std::string's own doubling of the
    // old capacity does not apply.
    std::string grown;
    grown.reserve(std::bit_ceil(size));
    grown.append(*data);
    data->swap(grown);
  }
  data->resize(size);
}

}  // namespace

MemFs::MemFs(std::string fs_type, SimClock* clock)
    : fs_type_(std::move(fs_type)), clock_(clock) {
  root_ = std::make_shared<Node>();
  root_->type = FileType::kDirectory;
  root_->mode = kModeDefaultDir;
  root_->inode = 1;
}

void MemFs::Charge(uint64_t ns) const {
  if (clock_ != nullptr) {
    clock_->Advance(ns);
  }
}

void MemFs::ChargeMeta() const {
  if (clock_ != nullptr) {
    clock_->Advance(clock_->costs().fs_metadata_op_ns);
  }
}

void MemFs::ChargeMutation() const {
  if (clock_ != nullptr) {
    clock_->Advance(clock_->costs().fs_mutation_ns);
  }
}

void MemFs::ChargeBytes(size_t n) const {
  if (clock_ != nullptr) {
    clock_->Advance(n * clock_->costs().fs_per_byte_tenth_ns / 10);
  }
}

Result<MemFs::Node*> MemFs::Walk(std::string_view path, const Credentials& cred) const {
  Node* cur = root_.get();
  for (PathComponents comps(path); !comps.done();) {
    std::string_view comp = comps.Next();
    if (cur->type != FileType::kDirectory) {
      return Err::kNotDir;
    }
    if (!CheckPosixAccess(cred, cur->uid, cur->gid, cur->mode, kAccessExec)) {
      return Err::kAcces;
    }
    auto it = cur->children.find(comp);
    if (it == cur->children.end()) {
      return Err::kNoEnt;
    }
    cur = it->second.get();
  }
  return cur;
}

Result<std::pair<MemFs::Node*, std::string>> MemFs::WalkParent(const std::string& path,
                                                               const Credentials& cred) const {
  std::string norm = NormalizePath(path);
  if (norm == "/") {
    return Err::kInval;
  }
  const size_t slash = norm.rfind('/');
  WITOS_ASSIGN_OR_RETURN(Node* parent, Walk(std::string_view(norm).substr(0, slash), cred));
  if (parent->type != FileType::kDirectory) {
    return Err::kNotDir;
  }
  norm.erase(0, slash + 1);
  return std::make_pair(parent, std::move(norm));
}

MemFs::Node* MemFs::Lookup(std::string_view path) const {
  Node* cur = root_.get();
  for (PathComponents comps(path); !comps.done();) {
    if (cur->type != FileType::kDirectory) {
      return nullptr;
    }
    auto it = cur->children.find(comps.Next());
    if (it == cur->children.end()) {
      return nullptr;
    }
    cur = it->second.get();
  }
  return cur;
}

void MemFs::DropName(Node* node) {
  if (node->nlink_extra > 0) {
    --node->nlink_extra;  // another name still references the inode
  } else {
    used_bytes_ -= node->data.size();
  }
}

Stat MemFs::StatOf(const Node& node) const {
  Stat st;
  st.inode = node.inode;
  st.type = node.type;
  st.mode = node.mode;
  st.uid = node.uid;
  st.gid = node.gid;
  st.rdev = node.rdev;
  st.mtime_ticks = node.mtime_ticks;
  if (node.type == FileType::kDirectory) {
    st.size = node.children.size();
    st.nlink = 2;
  } else {
    st.size = node.data.size();
    st.nlink = 1 + node.nlink_extra;
  }
  return st;
}

std::shared_ptr<MemFs::Node> MemFs::NewNode(FileType type, Mode mode, const Credentials& cred) {
  auto node = std::make_shared<Node>();
  node->type = type;
  node->mode = mode;
  node->uid = cred.uid;
  node->gid = cred.gid;
  node->inode = next_inode_++;
  node->generation = next_generation_++;
  if (clock_ != nullptr) {
    node->mtime_ticks = clock_->now_ns();
  }
  return node;
}

Result<Stat> MemFs::Open(const std::string& path, uint32_t flags, Mode mode,
                         const Credentials& cred) {
  ChargeMeta();
  auto walked = Walk(path, cred);
  if (!walked.ok()) {
    if (walked.error() == Err::kNoEnt && (flags & kOpenCreate) != 0) {
      WITOS_ASSIGN_OR_RETURN(auto parent_leaf, WalkParent(path, cred));
      auto& [parent, leaf] = parent_leaf;
      if (!CheckPosixAccess(cred, parent->uid, parent->gid, parent->mode, kAccessWrite)) {
        return Err::kAcces;
      }
      ChargeMutation();  // inode allocation + journal commit
      auto node = NewNode(FileType::kRegular, mode, cred);
      parent->children[leaf] = node;
      return StatOf(*node);
    }
    return walked.error();
  }
  Node* node = *walked;
  if ((flags & kOpenCreate) != 0 && (flags & kOpenExcl) != 0) {
    return Err::kExist;
  }
  if (node->type == FileType::kDirectory) {
    if ((flags & kOpenWrite) != 0) {
      return Err::kIsDir;
    }
  } else if ((flags & kOpenDirectory) != 0) {
    return Err::kNotDir;
  }
  uint32_t want = 0;
  if ((flags & kOpenRead) != 0) {
    want |= kAccessRead;
  }
  if ((flags & (kOpenWrite | kOpenTrunc | kOpenAppend)) != 0) {
    want |= kAccessWrite;
  }
  if (!CheckPosixAccess(cred, node->uid, node->gid, node->mode, want)) {
    return Err::kAcces;
  }
  if ((flags & kOpenTrunc) != 0 && node->type == FileType::kRegular) {
    used_bytes_ -= node->data.size();
    node->data.clear();
    BumpGeneration(node);
  }
  return StatOf(*node);
}

Result<size_t> MemFs::ReadAt(const std::string& path, uint64_t offset, size_t size,
                             std::string* out, const Credentials& cred) {
  WITOS_ASSIGN_OR_RETURN(Node* node, Walk(path, cred));
  if (node->type == FileType::kDirectory) {
    return Err::kIsDir;
  }
  if (!CheckPosixAccess(cred, node->uid, node->gid, node->mode, kAccessRead)) {
    return Err::kAcces;
  }
  out->clear();
  if (offset >= node->data.size()) {
    return size_t{0};
  }
  size_t n = std::min(size, node->data.size() - static_cast<size_t>(offset));
  out->assign(node->data, static_cast<size_t>(offset), n);
  ChargeBytes(n);
  return n;
}

Result<size_t> MemFs::WriteAt(const std::string& path, uint64_t offset, const std::string& data,
                              const Credentials& cred) {
  WITOS_ASSIGN_OR_RETURN(Node* node, Walk(path, cred));
  if (node->type == FileType::kDirectory) {
    return Err::kIsDir;
  }
  if (!CheckPosixAccess(cred, node->uid, node->gid, node->mode, kAccessWrite)) {
    return Err::kAcces;
  }
  size_t end = static_cast<size_t>(offset) + data.size();
  if (end > node->data.size()) {
    used_bytes_ += end - node->data.size();
    GrowTo(&node->data, end);
  }
  node->data.replace(static_cast<size_t>(offset), data.size(), data);
  BumpGeneration(node);
  if (clock_ != nullptr) {
    node->mtime_ticks = clock_->now_ns();
  }
  ChargeBytes(data.size());
  return data.size();
}

Status MemFs::Truncate(const std::string& path, uint64_t size, const Credentials& cred) {
  WITOS_ASSIGN_OR_RETURN(Node* node, Walk(path, cred));
  if (node->type == FileType::kDirectory) {
    return Err::kIsDir;
  }
  if (!CheckPosixAccess(cred, node->uid, node->gid, node->mode, kAccessWrite)) {
    return Err::kAcces;
  }
  if (size < node->data.size()) {
    used_bytes_ -= node->data.size() - size;
  } else {
    used_bytes_ += size - node->data.size();
  }
  node->data.resize(static_cast<size_t>(size), '\0');
  BumpGeneration(node);
  return Status::Ok();
}

Result<Stat> MemFs::GetAttr(const std::string& path, const Credentials& cred) {
  ChargeMeta();
  WITOS_ASSIGN_OR_RETURN(Node* node, Walk(path, cred));
  return StatOf(*node);
}

Result<std::vector<DirEntry>> MemFs::ReadDir(const std::string& path, const Credentials& cred) {
  ChargeMeta();
  WITOS_ASSIGN_OR_RETURN(Node* node, Walk(path, cred));
  if (node->type != FileType::kDirectory) {
    return Err::kNotDir;
  }
  if (!CheckPosixAccess(cred, node->uid, node->gid, node->mode, kAccessRead)) {
    return Err::kAcces;
  }
  std::vector<DirEntry> out;
  out.reserve(node->children.size());
  for (const auto& [name, child] : node->children) {
    out.push_back({name, child->type, child->inode});
  }
  return out;
}

Status MemFs::MkDir(const std::string& path, Mode mode, const Credentials& cred) {
  ChargeMutation();
  if (Walk(path, cred).ok()) {
    return Err::kExist;
  }
  WITOS_ASSIGN_OR_RETURN(auto parent_leaf, WalkParent(path, cred));
  auto& [parent, leaf] = parent_leaf;
  if (!CheckPosixAccess(cred, parent->uid, parent->gid, parent->mode, kAccessWrite)) {
    return Err::kAcces;
  }
  parent->children[leaf] = NewNode(FileType::kDirectory, mode, cred);
  return Status::Ok();
}

Status MemFs::Unlink(const std::string& path, const Credentials& cred) {
  ChargeMutation();
  WITOS_ASSIGN_OR_RETURN(auto parent_leaf, WalkParent(path, cred));
  auto& [parent, leaf] = parent_leaf;
  auto it = parent->children.find(leaf);
  if (it == parent->children.end()) {
    return Err::kNoEnt;
  }
  if (it->second->type == FileType::kDirectory) {
    return Err::kIsDir;
  }
  if (!CheckPosixAccess(cred, parent->uid, parent->gid, parent->mode, kAccessWrite)) {
    return Err::kAcces;
  }
  DropName(it->second.get());
  parent->children.erase(it);
  return Status::Ok();
}

Status MemFs::RmDir(const std::string& path, const Credentials& cred) {
  ChargeMutation();
  WITOS_ASSIGN_OR_RETURN(auto parent_leaf, WalkParent(path, cred));
  auto& [parent, leaf] = parent_leaf;
  auto it = parent->children.find(leaf);
  if (it == parent->children.end()) {
    return Err::kNoEnt;
  }
  if (it->second->type != FileType::kDirectory) {
    return Err::kNotDir;
  }
  if (!it->second->children.empty()) {
    return Err::kNotEmpty;
  }
  if (!CheckPosixAccess(cred, parent->uid, parent->gid, parent->mode, kAccessWrite)) {
    return Err::kAcces;
  }
  parent->children.erase(it);
  return Status::Ok();
}

Status MemFs::Rename(const std::string& from, const std::string& to, const Credentials& cred) {
  ChargeMutation();
  WITOS_ASSIGN_OR_RETURN(auto from_pl, WalkParent(from, cred));
  auto& [from_parent, from_leaf] = from_pl;
  auto it = from_parent->children.find(from_leaf);
  if (it == from_parent->children.end()) {
    return Err::kNoEnt;
  }
  WITOS_ASSIGN_OR_RETURN(auto to_pl, WalkParent(to, cred));
  auto& [to_parent, to_leaf] = to_pl;
  if (!CheckPosixAccess(cred, from_parent->uid, from_parent->gid, from_parent->mode,
                        kAccessWrite) ||
      !CheckPosixAccess(cred, to_parent->uid, to_parent->gid, to_parent->mode, kAccessWrite)) {
    return Err::kAcces;
  }
  std::shared_ptr<Node> node = it->second;
  auto existing = to_parent->children.find(to_leaf);
  if (existing != to_parent->children.end()) {
    const Node& target = *existing->second;
    if (&target == node.get()) {
      return Status::Ok();  // two names of one inode: rename(2) does nothing
    }
    // As rename(2): a directory replaces only an empty directory, and a
    // non-directory never replaces a directory.
    if (node->type == FileType::kDirectory) {
      if (target.type != FileType::kDirectory) {
        return Err::kNotDir;
      }
      if (!target.children.empty()) {
        return Err::kNotEmpty;
      }
    } else if (target.type == FileType::kDirectory) {
      return Err::kIsDir;
    }
  }
  // Guard against moving a directory into its own subtree.
  if (node->type == FileType::kDirectory) {
    std::string norm_from = NormalizePath(from);
    std::string norm_to = NormalizePath(to);
    if (PathIsUnder(norm_to, norm_from)) {
      return Err::kInval;
    }
  }
  if (existing != to_parent->children.end() && node->type != FileType::kDirectory) {
    DropName(existing->second.get());  // the displaced name goes as in Unlink
  }
  from_parent->children.erase(it);
  to_parent->children[to_leaf] = node;
  BumpGeneration(node.get());  // same bytes, new identity at the target path
  return Status::Ok();
}

Status MemFs::Chmod(const std::string& path, Mode mode, const Credentials& cred) {
  WITOS_ASSIGN_OR_RETURN(Node* node, Walk(path, cred));
  if (cred.uid != node->uid && !cred.HasCap(Capability::kDacOverride)) {
    return Err::kPerm;
  }
  node->mode = mode;
  BumpGeneration(node);
  return Status::Ok();
}

Status MemFs::Chown(const std::string& path, Uid uid, Gid gid, const Credentials& cred) {
  WITOS_ASSIGN_OR_RETURN(Node* node, Walk(path, cred));
  if (!cred.HasCap(Capability::kChown)) {
    return Err::kPerm;
  }
  node->uid = uid;
  node->gid = gid;
  BumpGeneration(node);
  return Status::Ok();
}

Status MemFs::MkNod(const std::string& path, FileType type, DeviceId rdev, Mode mode,
                    const Credentials& cred) {
  ChargeMutation();
  if (type != FileType::kCharDevice && type != FileType::kBlockDevice &&
      type != FileType::kFifo && type != FileType::kRegular) {
    return Err::kInval;
  }
  if (Walk(path, cred).ok()) {
    return Err::kExist;
  }
  WITOS_ASSIGN_OR_RETURN(auto parent_leaf, WalkParent(path, cred));
  auto& [parent, leaf] = parent_leaf;
  if (!CheckPosixAccess(cred, parent->uid, parent->gid, parent->mode, kAccessWrite)) {
    return Err::kAcces;
  }
  auto node = NewNode(type, mode, cred);
  node->rdev = rdev;
  parent->children[leaf] = node;
  return Status::Ok();
}

Status MemFs::Link(const std::string& oldpath, const std::string& newpath,
                   const Credentials& cred) {
  ChargeMutation();
  const std::string old_norm = NormalizePath(oldpath);
  WITOS_ASSIGN_OR_RETURN(Node* node, Walk(old_norm, cred));
  if (node->type == FileType::kDirectory) {
    return Err::kPerm;  // hard links to directories are forbidden
  }
  if (Walk(NormalizePath(newpath), cred).ok()) {
    return Err::kExist;
  }
  WITOS_ASSIGN_OR_RETURN(auto parent_leaf, WalkParent(newpath, cred));
  auto& [parent, leaf] = parent_leaf;
  if (!CheckPosixAccess(cred, parent->uid, parent->gid, parent->mode, kAccessWrite)) {
    return Err::kAcces;
  }
  // The second name shares the inode with the first: take the owning
  // pointer from the old name's entry in its parent directory. A
  // non-directory is never the root, so that entry exists.
  const size_t slash = old_norm.rfind('/');
  std::shared_ptr<Node> owner = Lookup(std::string_view(old_norm).substr(0, slash))
                                    ->children.find(std::string_view(old_norm).substr(slash + 1))
                                    ->second;
  parent->children[leaf] = std::move(owner);  // same inode, second name
  ++node->nlink_extra;
  // The shared inode's generation covers both names: a later write through
  // either alias re-bumps it, invalidating verdicts cached under the other.
  BumpGeneration(node);
  return Status::Ok();
}

Status MemFs::SymLink(const std::string& target, const std::string& linkpath,
                      const Credentials& cred) {
  ChargeMutation();
  if (Walk(linkpath, cred).ok()) {
    return Err::kExist;
  }
  WITOS_ASSIGN_OR_RETURN(auto parent_leaf, WalkParent(linkpath, cred));
  auto& [parent, leaf] = parent_leaf;
  if (!CheckPosixAccess(cred, parent->uid, parent->gid, parent->mode, kAccessWrite)) {
    return Err::kAcces;
  }
  auto node = NewNode(FileType::kSymlink, 0777, cred);
  node->data = target;
  parent->children[leaf] = node;
  return Status::Ok();
}

Result<std::string> MemFs::ReadLink(const std::string& path, const Credentials& cred) {
  WITOS_ASSIGN_OR_RETURN(Node* node, Walk(path, cred));
  if (node->type != FileType::kSymlink) {
    return Err::kInval;
  }
  return node->data;
}

Result<FsStats> MemFs::StatFs() const {
  FsStats stats;
  stats.total_bytes = 1ull << 40;  // model a 1 TiB volume
  stats.used_bytes = used_bytes_;
  stats.inode_count = next_inode_ - 1;
  return stats;
}

void MemFs::ProvisionDir(const std::string& path) {
  Credentials root;
  std::string cur = "/";
  for (const auto& comp : SplitPath(path)) {
    cur = JoinPath(cur, comp);
    (void)MkDir(cur, kModeDefaultDir, root);
  }
}

void MemFs::ProvisionFile(const std::string& path, const std::string& content, Uid uid, Gid gid,
                          Mode mode) {
  Credentials root;
  std::string norm = NormalizePath(path);
  ProvisionDir(Dirname(norm));
  (void)Open(norm, kOpenCreate | kOpenWrite | kOpenTrunc, mode, root);
  (void)Truncate(norm, 0, root);
  (void)WriteAt(norm, 0, content, root);
  (void)Chown(norm, uid, gid, root);
  (void)Chmod(norm, mode, root);
}

void MemFs::ProvisionSymlink(const std::string& linkpath, const std::string& target) {
  Credentials root;
  std::string norm = NormalizePath(linkpath);
  ProvisionDir(Dirname(norm));
  (void)SymLink(target, norm, root);
}

void MemFs::ProvisionDevice(const std::string& path, DeviceId rdev, Mode mode) {
  Credentials root;
  std::string norm = NormalizePath(path);
  ProvisionDir(Dirname(norm));
  (void)MkNod(norm, FileType::kCharDevice, rdev, mode, root);
}

uint64_t MemFs::Generation(const std::string& path) const {
  // Internal metadata query: no permission checks and no clock charge — the
  // caller (the ITFS verdict cache) must observe exactly the same costs
  // whether or not it consults generations.
  const Node* node = Lookup(path);
  if (node == nullptr || node->type == FileType::kDirectory) {
    return kNoGeneration;
  }
  return node->generation;
}

Result<std::string> MemFs::SlurpForTest(const std::string& path) const {
  Credentials root;
  auto walked = Walk(NormalizePath(path), root);
  if (!walked.ok()) {
    return walked.error();
  }
  return (*walked)->data;
}

}  // namespace witos
