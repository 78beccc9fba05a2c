// MemFs: the in-memory disk filesystem standing in for ext4.
//
// A full inode tree with POSIX permissions, ownership, symlinks, device
// nodes, rename and link counts. Charges simulated time through an optional
// SimClock so benchmarks see a realistic cost structure (metadata ops vs.
// per-byte transfer).

#ifndef SRC_OS_MEMFS_H_
#define SRC_OS_MEMFS_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/os/clock.h"
#include "src/os/filesystem.h"

namespace witos {

class MemFs : public Filesystem {
 public:
  // `clock` may be null (no time accounting); if set it must outlive the fs.
  explicit MemFs(std::string fs_type = "ext4", SimClock* clock = nullptr);

  std::string FsType() const override { return fs_type_; }

  Result<Stat> Open(const std::string& path, uint32_t flags, Mode mode,
                    const Credentials& cred) override;
  Result<size_t> ReadAt(const std::string& path, uint64_t offset, size_t size, std::string* out,
                        const Credentials& cred) override;
  Result<size_t> WriteAt(const std::string& path, uint64_t offset, const std::string& data,
                         const Credentials& cred) override;
  Status Truncate(const std::string& path, uint64_t size, const Credentials& cred) override;
  Result<Stat> GetAttr(const std::string& path, const Credentials& cred) override;
  Result<std::vector<DirEntry>> ReadDir(const std::string& path,
                                        const Credentials& cred) override;
  Status MkDir(const std::string& path, Mode mode, const Credentials& cred) override;
  Status Unlink(const std::string& path, const Credentials& cred) override;
  Status RmDir(const std::string& path, const Credentials& cred) override;
  Status Rename(const std::string& from, const std::string& to,
                const Credentials& cred) override;
  Status Chmod(const std::string& path, Mode mode, const Credentials& cred) override;
  Status Chown(const std::string& path, Uid uid, Gid gid, const Credentials& cred) override;
  Status MkNod(const std::string& path, FileType type, DeviceId rdev, Mode mode,
               const Credentials& cred) override;
  Status Link(const std::string& oldpath, const std::string& newpath,
              const Credentials& cred) override;
  Status SymLink(const std::string& target, const std::string& linkpath,
                 const Credentials& cred) override;
  Result<std::string> ReadLink(const std::string& path, const Credentials& cred) override;
  Result<FsStats> StatFs() const override;
  uint64_t Generation(const std::string& path) const override;

  // --- Setup conveniences (host-side provisioning, bypassing permissions) ---

  // Creates all missing directories along `path` (root-owned, 0755).
  void ProvisionDir(const std::string& path);
  // Creates `path` (and parent dirs) with `content`, owned by (uid, gid).
  void ProvisionFile(const std::string& path, const std::string& content, Uid uid = kRootUid,
                     Gid gid = kRootGid, Mode mode = kModeDefaultFile);
  void ProvisionSymlink(const std::string& linkpath, const std::string& target);
  void ProvisionDevice(const std::string& path, DeviceId rdev, Mode mode = 0600);

  // Direct content access for tests/benchmarks (no permission checks).
  Result<std::string> SlurpForTest(const std::string& path) const;

 private:
  struct Node {
    FileType type = FileType::kRegular;
    Mode mode = kModeDefaultFile;
    Uid uid = kRootUid;
    Gid gid = kRootGid;
    InodeNum inode = 0;
    DeviceId rdev = 0;
    uint64_t mtime_ticks = 0;
    // Monotone mutation stamp drawn from the fs-wide counter, so values are
    // unique across *all* nodes: a deleted-and-recreated file, or a rename
    // landing a different inode at the same path, can never reproduce an
    // old (path, generation) pair. Bumped on every content/identity change.
    uint64_t generation = 0;
    uint32_t nlink_extra = 0;  // hard links beyond the first name
    std::string data;  // regular file / symlink target
    // Directory entries; std::less<> lets a string_view component look up.
    std::map<std::string, std::shared_ptr<Node>, std::less<>> children;
  };

  // Walks to the node at `path`; checks exec (search) permission on every
  // traversed directory. The tree owns the node; the pointer is good until
  // the next mutation.
  Result<Node*> Walk(std::string_view path, const Credentials& cred) const;
  // Walks to the parent directory of `path`, returning (parent, leaf name).
  Result<std::pair<Node*, std::string>> WalkParent(const std::string& path,
                                                   const Credentials& cred) const;
  // The node at `path` without permission checks, charges or op counting;
  // null when missing.
  Node* Lookup(std::string_view path) const;
  Stat StatOf(const Node& node) const;
  std::shared_ptr<Node> NewNode(FileType type, Mode mode, const Credentials& cred);
  // Accounts for one name of a non-directory going away: the inode's bytes
  // are freed with its last name.
  void DropName(Node* node);
  // Stamps a fresh generation on `node` (content or identity changed).
  void BumpGeneration(Node* node) { node->generation = next_generation_++; }
  void Charge(uint64_t ns) const;
  void ChargeMeta() const;
  void ChargeMutation() const;
  void ChargeBytes(size_t n) const;

  std::string fs_type_;
  SimClock* clock_;
  std::shared_ptr<Node> root_;
  InodeNum next_inode_ = 2;  // 1 is the root, ext2 tradition
  uint64_t next_generation_ = 1;  // 0 is kNoGeneration
  uint64_t used_bytes_ = 0;
};

}  // namespace witos

#endif  // SRC_OS_MEMFS_H_
