// FuseMount: the simulated FUSE kernel module + libfuse round trip.
//
// On Linux, every file system call against a FUSE mount traverses
// VFS -> fuse.ko -> libfuse (userspace) -> callback -> back (Figure 5b).
// The defining performance property is a fixed user/kernel crossing cost per
// *operation*, independent of payload size. FuseMount models exactly that:
// it forwards each Filesystem call to the wrapped userspace filesystem and
// charges `fuse_crossing_ns` on the machine clock per forwarded call. This
// is what makes the Figure 9 bench reproduce FUSE's small-file-heavy
// overhead profile without hard-coding any ratio.

#ifndef SRC_FS_FUSE_H_
#define SRC_FS_FUSE_H_

#include <memory>
#include <set>
#include <string>

#include "src/os/clock.h"
#include "src/os/filesystem.h"

namespace witfs {

class FuseMount : public witos::Filesystem {
 public:
  // `user_fs` is the userspace filesystem daemon (e.g. Itfs). `clock` may be
  // null in unit tests.
  FuseMount(std::shared_ptr<witos::Filesystem> user_fs, witos::SimClock* clock)
      : user_fs_(std::move(user_fs)), clock_(clock) {}

  std::string FsType() const override { return "fuse." + user_fs_->FsType(); }
  bool Cacheable() const override { return user_fs_->Cacheable(); }

  // Pass-through read/write (paper §7.3, citing the FUSE passthrough work):
  // "ITFS mainly provides permission checking and does not intervene in the
  // actual read or write operations." Once the userspace daemon approves an
  // open, data operations on that file go directly to `lower` — no
  // kernel/userspace round trip, no request copy. Metadata operations and
  // opens still cross, so the policy gate is intact; the trade-off is that
  // individual reads/writes are no longer visible to the daemon's log.
  void EnablePassthrough(std::shared_ptr<witos::Filesystem> lower) {
    passthrough_lower_ = std::move(lower);
  }
  uint64_t passthrough_ops() const { return passthrough_ops_; }

  witos::Result<witos::Stat> Open(const std::string& path, uint32_t flags, witos::Mode mode,
                                  const witos::Credentials& cred) override;
  witos::Result<size_t> ReadAt(const std::string& path, uint64_t offset, size_t size,
                               std::string* out, const witos::Credentials& cred) override;
  witos::Result<size_t> WriteAt(const std::string& path, uint64_t offset,
                                const std::string& data,
                                const witos::Credentials& cred) override;
  witos::Status Truncate(const std::string& path, uint64_t size,
                         const witos::Credentials& cred) override;
  witos::Result<witos::Stat> GetAttr(const std::string& path,
                                     const witos::Credentials& cred) override;
  witos::Result<std::vector<witos::DirEntry>> ReadDir(const std::string& path,
                                                      const witos::Credentials& cred) override;
  witos::Status MkDir(const std::string& path, witos::Mode mode,
                      const witos::Credentials& cred) override;
  witos::Status Unlink(const std::string& path, const witos::Credentials& cred) override;
  witos::Status RmDir(const std::string& path, const witos::Credentials& cred) override;
  witos::Status Rename(const std::string& from, const std::string& to,
                       const witos::Credentials& cred) override;
  witos::Status Chmod(const std::string& path, witos::Mode mode,
                      const witos::Credentials& cred) override;
  witos::Status Chown(const std::string& path, witos::Uid uid, witos::Gid gid,
                      const witos::Credentials& cred) override;
  witos::Status MkNod(const std::string& path, witos::FileType type, witos::DeviceId rdev,
                      witos::Mode mode, const witos::Credentials& cred) override;
  witos::Status Link(const std::string& oldpath, const std::string& newpath,
                     const witos::Credentials& cred) override;
  witos::Status SymLink(const std::string& target, const std::string& linkpath,
                        const witos::Credentials& cred) override;
  witos::Result<std::string> ReadLink(const std::string& path,
                                      const witos::Credentials& cred) override;
  witos::Result<witos::FsStats> StatFs() const override;
  // Generation queries are free metadata lookups, not FUSE requests: no
  // kernel/userspace crossing is charged.
  uint64_t Generation(const std::string& path) const override {
    return user_fs_->Generation(path);
  }

  uint64_t crossings() const { return crossings_; }

 private:
  void Cross() const;
  bool Approved(const std::string& path) const { return approved_.count(path) > 0; }

  std::shared_ptr<witos::Filesystem> user_fs_;
  witos::SimClock* clock_;
  mutable uint64_t crossings_ = 0;

  // Passthrough state: files whose open the daemon approved.
  std::shared_ptr<witos::Filesystem> passthrough_lower_;
  std::set<std::string> approved_;
  mutable uint64_t passthrough_ops_ = 0;
};

}  // namespace witfs

#endif  // SRC_FS_FUSE_H_
