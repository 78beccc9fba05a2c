// Process control block for the simulated kernel.

#ifndef SRC_OS_PROCESS_H_
#define SRC_OS_PROCESS_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/os/cgroup.h"
#include "src/os/credentials.h"
#include "src/os/filesystem.h"
#include "src/os/namespaces.h"
#include "src/os/types.h"

namespace witos {

enum class ProcState : uint8_t {
  kRunning,
  kZombie,  // exited, not yet reaped
};

// Kernel-side open file description.
struct OpenFile {
  std::shared_ptr<Filesystem> fs;
  std::string fs_path;
  std::string vfs_path;   // canonical vfs-space path, for audit / TCB checks
  std::string jail_path;  // what the process thinks it opened
  uint32_t flags = 0;
  uint64_t offset = 0;
  DeviceId rdev = 0;  // nonzero when this is a device node
};

struct Process {
  Pid pid = kNoPid;   // host (initial-namespace) pid
  Pid ppid = kNoPid;  // host pid of the parent
  std::string name;
  ProcState state = ProcState::kRunning;
  int exit_code = 0;
  uint64_t start_time_ns = 0;

  Credentials cred;  // uid/gid are values *inside* the process's UID namespace
  NsSet ns;
  CgroupId cgroup = kRootCgroup;

  std::string root = "/";  // vfs-space chroot directory
  std::string cwd = "/";   // jail-space working directory

  std::map<Fd, OpenFile> fds;
  Fd next_fd = 3;  // 0..2 reserved for stdio, which we do not model

  std::vector<Pid> children;  // host pids
  // The PID namespaces below the initial one that hold a local pid for this
  // process (every process has an entry in the initial namespace too);
  // reaping frees the entry in each that still exists.
  std::vector<NsId> nested_pid_ns;
};

// A row of `ps` output: the view of one process from a given PID namespace.
struct ProcessInfo {
  Pid pid = kNoPid;  // pid as seen by the *viewer*
  Pid host_pid = kNoPid;
  std::string name;
  Uid uid = 0;
  ProcState state = ProcState::kRunning;
};

}  // namespace witos

#endif  // SRC_OS_PROCESS_H_
