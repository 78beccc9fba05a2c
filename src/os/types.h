// Core scalar types and error codes for the simulated operating system.
//
// The simulator mirrors Linux conventions: errno-like error codes, integral
// process/user/group identifiers, and namespace identifiers. Everything in
// `witos` is single-threaded by design; a Kernel instance models one machine.

#ifndef SRC_OS_TYPES_H_
#define SRC_OS_TYPES_H_

#include <cstdint>
#include <string>

namespace witos {

using Pid = int32_t;
using Uid = uint32_t;
using Gid = uint32_t;
using Fd = int32_t;
using NsId = uint64_t;
using InodeNum = uint64_t;
using DeviceId = uint32_t;

inline constexpr Pid kNoPid = -1;
inline constexpr Uid kRootUid = 0;
inline constexpr Gid kRootGid = 0;
inline constexpr NsId kNoNs = 0;

// Errno-like error codes. Values are our own; names follow POSIX errno.
enum class Err : int {
  kOk = 0,
  kPerm,          // EPERM: operation not permitted
  kNoEnt,         // ENOENT: no such file or directory
  kSrch,          // ESRCH: no such process
  kIntr,          // EINTR
  kIo,            // EIO
  kBadf,          // EBADF: bad file descriptor
  kChild,         // ECHILD
  kAcces,         // EACCES: permission denied
  kBusy,          // EBUSY
  kExist,         // EEXIST
  kXdev,          // EXDEV: cross-device link
  kNoDev,         // ENODEV
  kNotDir,        // ENOTDIR
  kIsDir,         // EISDIR
  kInval,         // EINVAL
  kNFile,         // ENFILE: file table overflow
  kMFile,         // EMFILE: too many open files
  kTxtBsy,        // ETXTBSY
  kFBig,          // EFBIG
  kNoSpc,         // ENOSPC
  kRoFs,          // EROFS: read-only file system
  kMLink,         // EMLINK
  kPipe,          // EPIPE
  kNameTooLong,   // ENAMETOOLONG
  kNoSys,         // ENOSYS: function not implemented
  kNotEmpty,      // ENOTEMPTY
  kLoop,          // ELOOP: too many symlink levels
  kConnRefused,   // ECONNREFUSED
  kNetUnreach,    // ENETUNREACH
  kHostUnreach,   // EHOSTUNREACH
  kTimedOut,      // ETIMEDOUT
  kNotConn,       // ENOTCONN
  kAddrInUse,     // EADDRINUSE
  kNoTty,         // ENOTTY
  kNoMem,         // ENOMEM
  kAgain,         // EAGAIN
};

// One past the largest valid Err value, for validating codes that crossed a
// serialization boundary.
inline constexpr int kErrCodeCount = static_cast<int>(Err::kAgain) + 1;

// Human-readable name for an error code ("EACCES" style).
std::string ErrName(Err e);

// strerror()-style description.
std::string ErrMessage(Err e);

// File types stored in an inode / stat record.
enum class FileType : uint8_t {
  kRegular,
  kDirectory,
  kSymlink,
  kCharDevice,
  kBlockDevice,
  kFifo,
  kSocket,
};

// Mode bits, POSIX layout (lower 12 bits of st_mode).
using Mode = uint16_t;
inline constexpr Mode kModeSetuid = 04000;
inline constexpr Mode kModeSetgid = 02000;
inline constexpr Mode kModeSticky = 01000;
inline constexpr Mode kModeUserAll = 0700;
inline constexpr Mode kModeGroupAll = 0070;
inline constexpr Mode kModeOtherAll = 0007;
inline constexpr Mode kModeDefaultFile = 0644;
inline constexpr Mode kModeDefaultDir = 0755;

// open(2) flags (subset).
enum OpenFlags : uint32_t {
  kOpenRead = 1u << 0,
  kOpenWrite = 1u << 1,
  kOpenCreate = 1u << 2,
  kOpenTrunc = 1u << 3,
  kOpenAppend = 1u << 4,
  kOpenExcl = 1u << 5,
  kOpenDirectory = 1u << 6,
};

// Access check request bits (access(2) style).
enum AccessBits : uint32_t {
  kAccessRead = 4,
  kAccessWrite = 2,
  kAccessExec = 1,
};

// stat(2)-style record.
struct Stat {
  InodeNum inode = 0;
  FileType type = FileType::kRegular;
  Mode mode = 0;
  Uid uid = 0;
  Gid gid = 0;
  uint64_t size = 0;
  uint32_t nlink = 1;
  DeviceId device = 0;       // filesystem device
  DeviceId rdev = 0;         // device number for device nodes
  uint64_t mtime_ticks = 0;  // simulated clock ticks
};

struct DirEntry {
  std::string name;
  FileType type = FileType::kRegular;
  InodeNum inode = 0;
};

}  // namespace witos

#endif  // SRC_OS_TYPES_H_
