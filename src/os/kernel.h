// Kernel: the syscall façade of the simulated machine.
//
// One Kernel instance models one machine: a process table, the namespace
// registry, the VFS, an audit log and a simulated clock. Syscalls are
// methods taking the calling process's host pid; each enforces the same
// capability and namespace rules the paper relies on:
//
//   * chroot(2)      -> CAP_SYS_CHROOT   (Attack 1 defence)
//   * ptrace(2)      -> CAP_SYS_PTRACE   (Attack 2 defence)
//   * mknod(2) dev   -> CAP_MKNOD        (Attack 3 defence)
//   * open /dev/mem  -> CAP_SYS_RAWMEM   (Attack 4 defence — the paper's new
//                                         capability)
//   * mount/setns    -> CAP_SYS_ADMIN
//   * reboot         -> CAP_SYS_BOOT
//   * module load    -> CAP_SYS_MODULE + TCB policy
//
// Writes to TCB-protected paths are denied at the VFS boundary via a guard
// hook installed by `watchit::Tcb` (Attack 5 defence).

#ifndef SRC_OS_KERNEL_H_
#define SRC_OS_KERNEL_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/os/audit.h"
#include "src/os/clock.h"
#include "src/os/memfs.h"
#include "src/os/pagecache.h"
#include "src/os/process.h"
#include "src/os/vfs.h"

namespace witos {

// Well-known device numbers.
inline constexpr DeviceId kDevNull = 3;
inline constexpr DeviceId kDevZero = 5;
inline constexpr DeviceId kDevMem = 1;
inline constexpr DeviceId kDevKmem = 2;

struct UnameInfo {
  std::string sysname = "Linux";
  std::string release = "4.6.3-watchit";
  std::string hostname;
};

class Kernel {
 public:
  // Boots a machine: creates the initial namespaces, a root filesystem
  // (ext4-modelled MemFs) mounted at "/", and pid 1 ("init", root).
  explicit Kernel(std::string hostname = "lnx-host");

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  // --- Introspection --------------------------------------------------------
  SimClock& clock() { return clock_; }
  AuditLog& audit() { return audit_; }
  const AuditLog& audit() const { return audit_; }
  PageCache& page_cache() { return page_cache_; }
  // /proc/sys/vm/drop_caches equivalent, for cold-cache benchmarking.
  void DropCaches() { page_cache_.Clear(); }
  NamespaceRegistry& namespaces() { return registry_; }
  CgroupRegistry& cgroups() { return cgroups_; }
  Vfs& vfs() { return vfs_; }
  MemFs& root_fs() { return *root_fs_; }
  std::shared_ptr<MemFs> root_fs_ptr() { return root_fs_; }
  Pid init_pid() const { return 1; }

  Process* FindProcess(Pid host_pid);
  const Process* FindProcess(Pid host_pid) const;
  bool ProcessAlive(Pid host_pid) const;
  size_t process_count() const { return procs_.size(); }

  // --- Process lifecycle ----------------------------------------------------

  // clone(2): creates a child of `parent`. `flags` is a CloneFlags mask;
  // requesting any new namespace requires CAP_SYS_ADMIN.
  Result<Pid> Clone(Pid parent, const std::string& name, uint32_t flags);
  // Children of the exiting process, zombies included, are reparented to
  // init.
  Status Exit(Pid pid, int code);
  // Reaps one zombie child; returns its host pid or ECHILD.
  Result<Pid> Wait(Pid pid);
  // waitpid(2) on a known child, on behalf of its parent: frees zombie
  // `pid` from the process table, its parent's child list and every PID
  // namespace's pid map. ESRCH if there is no such process, EAGAIN if it
  // is still running.
  Status Reap(Pid pid);
  // kill(2): `target` is a pid *in the caller's PID namespace*.
  Status Kill(Pid pid, Pid target_local);
  // ps: processes visible from the caller's PID namespace, with translated
  // pids.
  Result<std::vector<ProcessInfo>> ListProcesses(Pid pid) const;
  // Translates a pid in the caller's namespace to a host pid.
  Result<Pid> LocalToHostPid(Pid caller, Pid local) const;
  Result<Pid> HostToLocalPid(Pid caller, Pid host) const;

  // setns(2): joins `pid` to the namespace of type `type` that `target_host`
  // belongs to. Requires CAP_SYS_ADMIN. This is what nsenter uses.
  Status Setns(Pid pid, Pid target_host, NsType type);
  // unshare(2)-style: moves `pid` into freshly created namespaces.
  Status Unshare(Pid pid, uint32_t flags);

  // Moves `pid` into cgroup `group` (requires CAP_SYS_ADMIN). Children
  // inherit their parent's cgroup; clone fails with EAGAIN when the target
  // group's pids limit is exhausted (fork-bomb containment).
  Status AssignCgroup(Pid pid, CgroupId group);

  // Credentials.
  Status Setuid(Pid pid, Uid uid);
  // Drops capabilities (cannot add).
  Status CapDrop(Pid pid, const CapabilitySet& to_drop);

  // Registers a hook called with the host pid of any process that dies (via
  // Exit or Kill). ContainIT's watchdog uses this (Attack 7 defence).
  using DeathHook = std::function<void(Pid)>;
  void AddDeathHook(DeathHook hook);

  // --- Filesystem syscalls --------------------------------------------------
  Result<Fd> Open(Pid pid, const std::string& path, uint32_t flags, Mode mode = 0644);
  Status Close(Pid pid, Fd fd);
  Result<std::string> Read(Pid pid, Fd fd, size_t size);
  Result<size_t> Write(Pid pid, Fd fd, const std::string& data);
  Result<uint64_t> Lseek(Pid pid, Fd fd, uint64_t offset);
  Result<Stat> StatPath(Pid pid, const std::string& path);   // follows symlinks
  Result<Stat> LstatPath(Pid pid, const std::string& path);  // does not
  Result<std::vector<DirEntry>> ReadDir(Pid pid, const std::string& path);
  Status MkDir(Pid pid, const std::string& path, Mode mode = kModeDefaultDir);
  Status RmDir(Pid pid, const std::string& path);
  Status Unlink(Pid pid, const std::string& path);
  Status Rename(Pid pid, const std::string& from, const std::string& to);
  Status Chmod(Pid pid, const std::string& path, Mode mode);
  Status Chown(Pid pid, const std::string& path, Uid uid, Gid gid);
  Status Truncate(Pid pid, const std::string& path, uint64_t size);
  // link(2): creates a second name for a file (same filesystem only).
  Status Link(Pid pid, const std::string& oldpath, const std::string& newpath);
  Status SymLink(Pid pid, const std::string& target, const std::string& linkpath);
  Result<std::string> ReadLink(Pid pid, const std::string& path);
  // mknod(2): creating device nodes requires CAP_MKNOD.
  Status MkNod(Pid pid, const std::string& path, FileType type, DeviceId rdev, Mode mode = 0600);

  // Convenience wrappers (open/read|write/close in one call).
  Result<std::string> ReadFile(Pid pid, const std::string& path);
  Status WriteFile(Pid pid, const std::string& path, const std::string& data,
                   bool append = false);

  // --- Mounts, chroot, cwd --------------------------------------------------
  // mount(2): mounts `fs` at `mountpoint` in the caller's MNT namespace.
  Status Mount(Pid pid, std::shared_ptr<Filesystem> fs, const std::string& mountpoint,
               const std::string& source, bool read_only = false);
  // bind mount: exposes the subtree of `fs` rooted at `fs_root`.
  Status BindMount(Pid pid, std::shared_ptr<Filesystem> fs, const std::string& fs_root,
                   const std::string& mountpoint, const std::string& source,
                   bool read_only = false);
  Status Umount(Pid pid, const std::string& mountpoint);
  // The caller's view of its mounted-filesystem table (Figure 5a/5c).
  Result<std::vector<MountEntry>> MountTable(Pid pid) const;

  Status Chroot(Pid pid, const std::string& path);
  Status Chdir(Pid pid, const std::string& path);
  Result<std::string> GetCwd(Pid pid) const;

  // --- UTS / IPC ------------------------------------------------------------
  Result<std::string> GetHostname(Pid pid) const;
  Status SetHostname(Pid pid, const std::string& hostname);
  Result<UnameInfo> Uname(Pid pid) const;
  Status ShmPut(Pid pid, const std::string& key, const std::string& value);
  Result<std::string> ShmGet(Pid pid, const std::string& key);

  // --- XCL namespace (paper §5.6) -------------------------------------------
  // Adds/removes an entry in the caller's exclusion-directory table. The
  // path is vfs-space (the caller is expected to be a host-side supervisor).
  // Requires CAP_SYS_ADMIN.
  Status XclAdd(Pid pid, const std::string& vfs_path);
  Status XclRemove(Pid pid, const std::string& vfs_path);
  Result<std::vector<std::string>> XclList(Pid pid) const;

  // --- Dangerous operations gated by capabilities ----------------------------
  // ptrace(2): requires CAP_SYS_PTRACE (ptrace_scope=2 model).
  Status Ptrace(Pid pid, Pid target_local);
  // reboot(2): requires CAP_SYS_BOOT. Invokes the reboot hook if set.
  Status Reboot(Pid pid);
  // Kernel module load: requires CAP_SYS_MODULE; always a TCB change.
  Status LoadModule(Pid pid, const std::string& name);

  void SetRebootHook(std::function<void()> hook) { reboot_hook_ = std::move(hook); }
  // Guard invoked before any mutation of a vfs path; returning false denies
  // the operation with EPERM and logs a TCB violation.
  using WriteGuard = std::function<bool(const std::string& vfs_path, const Credentials& cred)>;
  void SetWriteGuard(WriteGuard guard) { write_guard_ = std::move(guard); }

  // Host-mapped credentials of a process (uid/gid translated through its UID
  // namespace). This is what every permission check uses.
  Result<Credentials> HostCredentials(Pid pid) const;

  // Builds the VfsContext for a process — exposed for witfs/witcontain.
  Result<VfsContext> ContextFor(Pid pid) const;

  std::vector<std::string> loaded_modules() const { return loaded_modules_; }

 private:
  Process& Proc(Pid pid);
  const Process& Proc(Pid pid) const;
  Status CheckAlive(Pid pid) const;
  void ChargeSyscall();
  Status RequireCap(const Process& proc, Capability cap, const char* what);
  // Registers `proc` in `pid_ns` and every ancestor namespace, allocating
  // local pids.
  void RegisterPidInNamespaces(Process& proc, NsId pid_ns);
  void ReleaseNamespaces(Process& proc);
  void NotifyDeath(Pid pid);
  Status GuardWrite(const Process& proc, const std::string& vfs_path, const Credentials& cred);
  Result<std::string> DeviceRead(DeviceId rdev, size_t size);

  SimClock clock_;
  AuditLog audit_;
  PageCache page_cache_;
  NamespaceRegistry registry_;
  CgroupRegistry cgroups_;
  Vfs vfs_;
  std::shared_ptr<MemFs> root_fs_;
  std::map<Pid, Process> procs_;
  Pid next_pid_ = 1;
  std::vector<DeathHook> death_hooks_;
  std::function<void()> reboot_hook_;
  WriteGuard write_guard_;
  std::vector<std::string> loaded_modules_;
};

}  // namespace witos

#endif  // SRC_OS_KERNEL_H_
