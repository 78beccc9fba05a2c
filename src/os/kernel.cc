#include "src/os/kernel.h"

#include <algorithm>
#include <cassert>

#include "src/os/path.h"

namespace witos {

Kernel::Kernel(std::string hostname) : vfs_(&registry_, &audit_, &clock_) {
  root_fs_ = std::make_shared<MemFs>("ext4", &clock_);
  MountEntry root_mount;
  root_mount.source = "/dev/sda";
  root_mount.mountpoint = "/";
  root_mount.fs = root_fs_;
  (void)vfs_.AddMount(registry_.initial(NsType::kMnt), std::move(root_mount));

  registry_.Uts(registry_.initial(NsType::kUts)).hostname = std::move(hostname);

  // A minimal FHS tree plus the devices the threat model cares about.
  for (const char* dir : {"/etc", "/home", "/usr", "/var", "/tmp", "/dev", "/proc", "/root"}) {
    root_fs_->ProvisionDir(dir);
  }
  root_fs_->ProvisionDevice("/dev/null", kDevNull, 0666);
  root_fs_->ProvisionDevice("/dev/zero", kDevZero, 0666);
  root_fs_->ProvisionDevice("/dev/mem", kDevMem, 0600);
  root_fs_->ProvisionDevice("/dev/kmem", kDevKmem, 0600);

  // pid 1: init, root, all capabilities, initial namespaces.
  Process init;
  init.pid = next_pid_++;
  init.ppid = 0;
  init.name = "init";
  init.ns = registry_.InitialSet();
  for (size_t i = 0; i < kNsTypeCount; ++i) {
    registry_.Ref(init.ns.ids[i]);
  }
  RegisterPidInNamespaces(init, init.ns.Get(NsType::kPid));
  (void)cgroups_.TryCharge(kRootCgroup);
  procs_.emplace(init.pid, std::move(init));
}

Process& Kernel::Proc(Pid pid) {
  auto it = procs_.find(pid);
  assert(it != procs_.end());
  return it->second;
}

const Process& Kernel::Proc(Pid pid) const {
  auto it = procs_.find(pid);
  assert(it != procs_.end());
  return it->second;
}

Process* Kernel::FindProcess(Pid host_pid) {
  auto it = procs_.find(host_pid);
  return it == procs_.end() ? nullptr : &it->second;
}

const Process* Kernel::FindProcess(Pid host_pid) const {
  auto it = procs_.find(host_pid);
  return it == procs_.end() ? nullptr : &it->second;
}

bool Kernel::ProcessAlive(Pid host_pid) const {
  const Process* p = FindProcess(host_pid);
  return p != nullptr && p->state == ProcState::kRunning;
}

Status Kernel::CheckAlive(Pid pid) const {
  const Process* p = FindProcess(pid);
  if (p == nullptr || p->state != ProcState::kRunning) {
    return Err::kSrch;
  }
  return Status::Ok();
}

void Kernel::ChargeSyscall() { clock_.Advance(clock_.costs().syscall_ns); }

Status Kernel::RequireCap(const Process& proc, Capability cap, const char* what) {
  if (!proc.cred.HasCap(cap)) {
    audit_.Append(AuditEvent::kCapabilityDenied, proc.pid, proc.cred.uid,
                  std::string(what) + " requires " + CapabilityName(cap), clock_.now_ns());
    return Err::kPerm;
  }
  return Status::Ok();
}

Result<Credentials> Kernel::HostCredentials(Pid pid) const {
  const Process* p = FindProcess(pid);
  if (p == nullptr) {
    return Err::kSrch;
  }
  Credentials cred = p->cred;
  NsId uid_ns = p->ns.Get(NsType::kUid);
  NsId initial = registry_.initial(NsType::kUid);
  // Walk the UID-namespace chain mapping inside ids to host ids.
  while (uid_ns != initial && uid_ns != kNoNs && registry_.Exists(uid_ns)) {
    const UidNamespace& ns = const_cast<NamespaceRegistry&>(registry_).Uidns(uid_ns);
    cred.uid = ns.MapUidToHost(cred.uid);
    cred.gid = ns.MapGidToHost(cred.gid);
    for (auto& g : cred.supplementary_gids) {
      g = ns.MapGidToHost(g);
    }
    uid_ns = ns.parent;
  }
  return cred;
}

Result<VfsContext> Kernel::ContextFor(Pid pid) const {
  const Process* p = FindProcess(pid);
  if (p == nullptr) {
    return Err::kSrch;
  }
  WITOS_ASSIGN_OR_RETURN(Credentials cred, HostCredentials(pid));
  VfsContext ctx;
  ctx.mnt_ns = p->ns.Get(NsType::kMnt);
  ctx.xcl_ns = p->ns.Get(NsType::kXcl);
  ctx.root = p->root;
  ctx.cwd = p->cwd;
  ctx.cred = std::move(cred);
  ctx.pid = pid;
  return ctx;
}

// --- Process lifecycle -------------------------------------------------------

void Kernel::RegisterPidInNamespaces(Process& proc, NsId pid_ns) {
  NsId cur = pid_ns;
  while (cur != kNoNs && registry_.Exists(cur)) {
    PidNamespace& ns = registry_.Pidns(cur);
    if (ns.host_to_local.count(proc.pid) == 0) {
      if (cur == registry_.initial(NsType::kPid)) {
        ns.host_to_local[proc.pid] = proc.pid;  // identity in the initial ns
      } else {
        ns.host_to_local[proc.pid] = ns.next_local_pid++;
        proc.nested_pid_ns.push_back(cur);
      }
    }
    cur = ns.parent;
  }
}

Result<Pid> Kernel::Clone(Pid parent, const std::string& name, uint32_t flags) {
  WITOS_RETURN_IF_ERROR(CheckAlive(parent));
  Process& par = Proc(parent);
  if (flags != 0) {
    WITOS_RETURN_IF_ERROR(RequireCap(par, Capability::kSysAdmin, "clone(CLONE_NEW*)"));
  }
  ChargeSyscall();

  // The child lands in the parent's cgroup; a full group denies the fork.
  if (!cgroups_.TryCharge(par.cgroup)) {
    return Err::kAgain;
  }

  Process child;
  child.pid = next_pid_++;
  child.ppid = parent;
  child.name = name;
  child.cred = par.cred;
  child.root = par.root;
  child.cwd = par.cwd;
  child.cgroup = par.cgroup;
  child.start_time_ns = clock_.now_ns();
  child.ns = par.ns;
  for (size_t i = 0; i < kNsTypeCount; ++i) {
    auto type = static_cast<NsType>(i);
    if ((flags & CloneFlagFor(type)) != 0) {
      child.ns.Set(type, registry_.Create(type, par.ns.Get(type)));
    }
    registry_.Ref(child.ns.ids[i]);
  }
  RegisterPidInNamespaces(child, child.ns.Get(NsType::kPid));
  par.children.push_back(child.pid);
  Pid pid = child.pid;
  procs_.emplace(pid, std::move(child));
  return pid;
}

void Kernel::ReleaseNamespaces(Process& proc) {
  for (size_t i = 0; i < kNsTypeCount; ++i) {
    if (proc.ns.ids[i] != kNoNs) {
      registry_.Unref(proc.ns.ids[i]);
    }
  }
}

void Kernel::NotifyDeath(Pid pid) {
  // Copy: hooks may call back into the kernel and kill further processes.
  auto hooks = death_hooks_;
  for (const auto& hook : hooks) {
    hook(pid);
  }
}

Status Kernel::Exit(Pid pid, int code) {
  WITOS_RETURN_IF_ERROR(CheckAlive(pid));
  Process& p = Proc(pid);
  cgroups_.Uncharge(p.cgroup);
  p.state = ProcState::kZombie;
  p.exit_code = code;
  p.fds.clear();
  // Reparent children to init, which can then reap them.
  Process* init = pid == init_pid() ? nullptr : FindProcess(init_pid());
  for (Pid child : p.children) {
    if (Process* c = FindProcess(child)) {
      c->ppid = init_pid();
      if (init != nullptr) {
        init->children.push_back(child);
      }
    }
  }
  p.children.clear();
  ReleaseNamespaces(p);
  NotifyDeath(pid);
  return Status::Ok();
}

Result<Pid> Kernel::Wait(Pid pid) {
  WITOS_RETURN_IF_ERROR(CheckAlive(pid));
  for (Pid child : Proc(pid).children) {
    const Process* c = FindProcess(child);
    if (c != nullptr && c->state == ProcState::kZombie) {
      WITOS_RETURN_IF_ERROR(Reap(child));
      return child;
    }
  }
  return Err::kChild;
}

Status Kernel::Reap(Pid pid) {
  auto it = procs_.find(pid);
  if (it == procs_.end()) {
    return Err::kSrch;
  }
  const Process& p = it->second;
  if (p.state != ProcState::kZombie) {
    return Err::kAgain;
  }
  if (Process* parent = FindProcess(p.ppid)) {
    auto& siblings = parent->children;
    auto self = std::find(siblings.begin(), siblings.end(), pid);
    if (self != siblings.end()) {
      siblings.erase(self);
    }
  }
  registry_.Pidns(registry_.initial(NsType::kPid)).host_to_local.erase(pid);
  for (NsId ns : p.nested_pid_ns) {
    // The zombie's own namespace may already be gone with its last member.
    if (registry_.Exists(ns)) {
      registry_.Pidns(ns).host_to_local.erase(pid);
    }
  }
  procs_.erase(it);
  return Status::Ok();
}

Result<Pid> Kernel::LocalToHostPid(Pid caller, Pid local) const {
  const Process* p = FindProcess(caller);
  if (p == nullptr) {
    return Err::kSrch;
  }
  NsId ns_id = p->ns.Get(NsType::kPid);
  if (!registry_.Exists(ns_id)) {
    return Err::kSrch;
  }
  const PidNamespace& ns = const_cast<NamespaceRegistry&>(registry_).Pidns(ns_id);
  for (const auto& [host, loc] : ns.host_to_local) {
    if (loc == local) {
      return host;
    }
  }
  return Err::kSrch;
}

Result<Pid> Kernel::HostToLocalPid(Pid caller, Pid host) const {
  const Process* p = FindProcess(caller);
  if (p == nullptr) {
    return Err::kSrch;
  }
  NsId ns_id = p->ns.Get(NsType::kPid);
  const PidNamespace& ns = const_cast<NamespaceRegistry&>(registry_).Pidns(ns_id);
  auto it = ns.host_to_local.find(host);
  if (it == ns.host_to_local.end()) {
    return Err::kSrch;
  }
  return it->second;
}

Status Kernel::Kill(Pid pid, Pid target_local) {
  WITOS_RETURN_IF_ERROR(CheckAlive(pid));
  ChargeSyscall();
  WITOS_ASSIGN_OR_RETURN(Pid target_host, LocalToHostPid(pid, target_local));
  WITOS_RETURN_IF_ERROR(CheckAlive(target_host));
  const Process& caller = Proc(pid);
  const Process& target = Proc(target_host);
  // Visibility: the target must live in the caller's PID namespace or below.
  if (!registry_.PidNsIsDescendant(target.ns.Get(NsType::kPid), caller.ns.Get(NsType::kPid))) {
    return Err::kSrch;
  }
  WITOS_ASSIGN_OR_RETURN(Credentials caller_cred, HostCredentials(pid));
  WITOS_ASSIGN_OR_RETURN(Credentials target_cred, HostCredentials(target_host));
  if (caller_cred.uid != kRootUid && caller_cred.uid != target_cred.uid &&
      !caller.cred.HasCap(Capability::kKill)) {
    audit_.Append(AuditEvent::kSyscallDenied, pid, caller.cred.uid,
                  "kill " + std::to_string(target_local), clock_.now_ns());
    return Err::kPerm;
  }
  return Exit(target_host, -9);
}

Result<std::vector<ProcessInfo>> Kernel::ListProcesses(Pid pid) const {
  const Process* caller = FindProcess(pid);
  if (caller == nullptr) {
    return Err::kSrch;
  }
  NsId caller_ns = caller->ns.Get(NsType::kPid);
  const PidNamespace& view = const_cast<NamespaceRegistry&>(registry_).Pidns(caller_ns);
  std::vector<ProcessInfo> out;
  for (const auto& [host_pid, proc] : procs_) {
    if (!registry_.PidNsIsDescendant(proc.ns.Get(NsType::kPid), caller_ns)) {
      continue;
    }
    auto it = view.host_to_local.find(host_pid);
    if (it == view.host_to_local.end()) {
      continue;
    }
    ProcessInfo info;
    info.pid = it->second;
    info.host_pid = host_pid;
    info.name = proc.name;
    info.uid = proc.cred.uid;
    info.state = proc.state;
    out.push_back(std::move(info));
  }
  std::sort(out.begin(), out.end(),
            [](const ProcessInfo& a, const ProcessInfo& b) { return a.pid < b.pid; });
  return out;
}

Status Kernel::Setns(Pid pid, Pid target_host, NsType type) {
  WITOS_RETURN_IF_ERROR(CheckAlive(pid));
  Process& p = Proc(pid);
  WITOS_RETURN_IF_ERROR(RequireCap(p, Capability::kSysAdmin, "setns"));
  const Process* target = FindProcess(target_host);
  if (target == nullptr) {
    return Err::kSrch;
  }
  NsId new_ns = target->ns.Get(type);
  NsId old_ns = p.ns.Get(type);
  if (new_ns == old_ns) {
    return Status::Ok();
  }
  registry_.Ref(new_ns);
  registry_.Unref(old_ns);
  p.ns.Set(type, new_ns);
  if (type == NsType::kPid) {
    RegisterPidInNamespaces(p, new_ns);
  }
  if (type == NsType::kMnt) {
    // Joining a mount namespace resets root/cwd to that namespace's root,
    // like nsenter does.
    p.root = target->root;
    p.cwd = "/";
  }
  return Status::Ok();
}

Status Kernel::Unshare(Pid pid, uint32_t flags) {
  WITOS_RETURN_IF_ERROR(CheckAlive(pid));
  Process& p = Proc(pid);
  WITOS_RETURN_IF_ERROR(RequireCap(p, Capability::kSysAdmin, "unshare"));
  for (size_t i = 0; i < kNsTypeCount; ++i) {
    auto type = static_cast<NsType>(i);
    if ((flags & CloneFlagFor(type)) == 0) {
      continue;
    }
    NsId old_ns = p.ns.Get(type);
    NsId new_ns = registry_.Create(type, old_ns);
    registry_.Ref(new_ns);
    registry_.Unref(old_ns);
    p.ns.Set(type, new_ns);
    if (type == NsType::kPid) {
      RegisterPidInNamespaces(p, new_ns);
    }
  }
  return Status::Ok();
}

Status Kernel::AssignCgroup(Pid pid, CgroupId group) {
  WITOS_RETURN_IF_ERROR(CheckAlive(pid));
  Process& p = Proc(pid);
  WITOS_RETURN_IF_ERROR(RequireCap(p, Capability::kSysAdmin, "cgroup_assign"));
  if (p.cgroup == group) {
    return Status::Ok();
  }
  if (!cgroups_.TryCharge(group)) {
    return Err::kAgain;
  }
  cgroups_.Uncharge(p.cgroup);
  p.cgroup = group;
  return Status::Ok();
}

Status Kernel::Setuid(Pid pid, Uid uid) {
  WITOS_RETURN_IF_ERROR(CheckAlive(pid));
  Process& p = Proc(pid);
  if (p.cred.uid == uid) {
    return Status::Ok();
  }
  WITOS_RETURN_IF_ERROR(RequireCap(p, Capability::kSetuid, "setuid"));
  bool dropping_root = p.cred.uid == kRootUid && uid != kRootUid;
  p.cred.uid = uid;
  p.cred.gid = uid;  // simplistic: primary gid follows uid
  if (dropping_root) {
    p.cred.caps = CapabilitySet::Empty();
  }
  return Status::Ok();
}

Status Kernel::CapDrop(Pid pid, const CapabilitySet& to_drop) {
  WITOS_RETURN_IF_ERROR(CheckAlive(pid));
  Process& p = Proc(pid);
  p.cred.caps = p.cred.caps.Minus(to_drop);
  return Status::Ok();
}

void Kernel::AddDeathHook(DeathHook hook) { death_hooks_.push_back(std::move(hook)); }

// --- Filesystem syscalls -----------------------------------------------------

Status Kernel::GuardWrite(const Process& proc, const std::string& vfs_path,
                          const Credentials& cred) {
  if (write_guard_ && !write_guard_(vfs_path, cred)) {
    audit_.Append(AuditEvent::kTcbViolation, proc.pid, cred.uid, "write to " + vfs_path,
                  clock_.now_ns());
    return Err::kPerm;
  }
  return Status::Ok();
}

Result<Fd> Kernel::Open(Pid pid, const std::string& path, uint32_t flags, Mode mode) {
  WITOS_RETURN_IF_ERROR(CheckAlive(pid));
  ChargeSyscall();
  Process& p = Proc(pid);
  WITOS_ASSIGN_OR_RETURN(VfsContext ctx, ContextFor(pid));
  bool may_create = (flags & kOpenCreate) != 0;
  WITOS_ASSIGN_OR_RETURN(ResolvedPath rp, vfs_.Resolve(ctx, path, true, may_create));

  bool write_intent = (flags & (kOpenWrite | kOpenTrunc | kOpenAppend)) != 0 ||
                      (may_create && !rp.exists);
  if (write_intent) {
    if (rp.read_only) {
      return Err::kRoFs;
    }
    WITOS_RETURN_IF_ERROR(GuardWrite(p, rp.vfs_path, ctx.cred));
  }

  DeviceId rdev = 0;
  if (rp.exists) {
    WITOS_ASSIGN_OR_RETURN(Stat st, rp.fs->GetAttr(rp.fs_path, ctx.cred));
    if (st.type == FileType::kCharDevice || st.type == FileType::kBlockDevice) {
      rdev = st.rdev;
      if (rdev == kDevMem || rdev == kDevKmem) {
        // Attack 4 defence: the paper's new capability gates raw memory.
        WITOS_RETURN_IF_ERROR(RequireCap(p, Capability::kSysRawMem, "open(/dev/mem)"));
      }
    }
  }

  if ((flags & kOpenTrunc) != 0) {
    page_cache_.InvalidateFile(rp.fs.get(), rp.fs_path);
  }
  WITOS_ASSIGN_OR_RETURN(Stat st, rp.fs->Open(rp.fs_path, flags, mode, ctx.cred));
  OpenFile of;
  of.fs = std::move(rp.fs);
  of.fs_path = std::move(rp.fs_path);
  of.vfs_path = std::move(rp.vfs_path);
  of.jail_path = std::move(rp.jail_path);
  of.flags = flags;
  of.offset = (flags & kOpenAppend) != 0 ? st.size : 0;
  of.rdev = rdev;
  Fd fd = p.next_fd++;
  p.fds.emplace(fd, std::move(of));
  return fd;
}

Status Kernel::Close(Pid pid, Fd fd) {
  WITOS_RETURN_IF_ERROR(CheckAlive(pid));
  Process& p = Proc(pid);
  if (p.fds.erase(fd) == 0) {
    return Err::kBadf;
  }
  return Status::Ok();
}

Result<std::string> Kernel::DeviceRead(DeviceId rdev, size_t size) {
  switch (rdev) {
    case kDevNull:
      return std::string();
    case kDevZero:
      return std::string(size, '\0');
    case kDevMem:
    case kDevKmem: {
      // Simulated raw memory: a recognizable pattern.
      std::string out;
      out.reserve(size);
      const std::string pattern = rdev == kDevMem ? "PHYSMEM." : "KERNMEM.";
      while (out.size() < size) {
        out += pattern;
      }
      out.resize(size);
      return out;
    }
    default:
      return Err::kNoDev;
  }
}

Result<std::string> Kernel::Read(Pid pid, Fd fd, size_t size) {
  WITOS_RETURN_IF_ERROR(CheckAlive(pid));
  ChargeSyscall();
  Process& p = Proc(pid);
  auto it = p.fds.find(fd);
  if (it == p.fds.end()) {
    return Err::kBadf;
  }
  OpenFile& of = it->second;
  if ((of.flags & kOpenRead) == 0) {
    return Err::kBadf;
  }
  if (of.rdev != 0) {
    return DeviceRead(of.rdev, size);
  }
  WITOS_ASSIGN_OR_RETURN(Credentials cred, HostCredentials(pid));
  if (!of.fs->Cacheable()) {
    // Dynamic pseudo-filesystems (procfs) are read directly, always fresh.
    std::string buf;
    WITOS_ASSIGN_OR_RETURN(size_t n, of.fs->ReadAt(of.fs_path, of.offset, size, &buf, cred));
    of.offset += n;
    return buf;
  }

  // Reads are served block-by-block through the page cache; misses fetch the
  // whole covering block (readahead) through the mounted filesystem stack —
  // including any FUSE/ITFS layers, which charge their costs there.
  constexpr uint64_t kBlk = PageCache::kBlockSize;
  std::string out;
  uint64_t pos = of.offset;
  size_t remaining = size;
  while (remaining > 0) {
    uint64_t block = pos / kBlk;
    uint64_t in_block = pos - block * kBlk;
    const std::string* data = page_cache_.Lookup(of.fs.get(), of.fs_path, block);
    std::string fetched;
    if (data == nullptr) {
      page_cache_.CountMiss();
      auto n = of.fs->ReadAt(of.fs_path, block * kBlk, kBlk, &fetched, cred);
      if (!n.ok()) {
        if (out.empty()) {
          return n.error();
        }
        break;
      }
      page_cache_.Insert(of.fs.get(), of.fs_path, block, fetched);
      data = &fetched;
    }
    if (in_block >= data->size()) {
      break;  // at or past EOF
    }
    size_t take = std::min<size_t>(remaining, data->size() - in_block);
    if (data != &fetched) {
      // Cache hit: charge the page-cache copy.
      clock_.Advance(take * clock_.costs().cache_per_byte_tenth_ns / 10);
    }
    out.append(*data, in_block, take);
    pos += take;
    remaining -= take;
    if (data->size() < kBlk) {
      break;  // short block: EOF
    }
  }
  of.offset += out.size();
  return out;
}

Result<size_t> Kernel::Write(Pid pid, Fd fd, const std::string& data) {
  WITOS_RETURN_IF_ERROR(CheckAlive(pid));
  ChargeSyscall();
  Process& p = Proc(pid);
  auto it = p.fds.find(fd);
  if (it == p.fds.end()) {
    return Err::kBadf;
  }
  OpenFile& of = it->second;
  if ((of.flags & (kOpenWrite | kOpenAppend)) == 0) {
    return Err::kBadf;
  }
  if (of.rdev != 0) {
    return data.size();  // devices swallow writes
  }
  WITOS_ASSIGN_OR_RETURN(Credentials cred, HostCredentials(pid));
  if ((of.flags & kOpenAppend) != 0) {
    WITOS_ASSIGN_OR_RETURN(Stat st, of.fs->GetAttr(of.fs_path, cred));
    of.offset = st.size;
  }
  // Write-back model: the data lands in the page cache now and is flushed
  // to the filesystem stack asynchronously. The synchronous write-through
  // below keeps the simulation correct but charges no foreground time;
  // the foreground pays only the cache copy.
  size_t n = 0;
  {
    ClockPause pause(&clock_);
    WITOS_ASSIGN_OR_RETURN(n, of.fs->WriteAt(of.fs_path, of.offset, data, cred));
  }
  clock_.Advance(n * clock_.costs().cache_per_byte_tenth_ns / 10);

  // Cache maintenance: fully covered blocks are refreshed in place,
  // partially covered ones are invalidated.
  constexpr uint64_t kBlk = PageCache::kBlockSize;
  uint64_t write_start = of.offset;
  uint64_t write_end = of.offset + n;
  for (uint64_t block = write_start / kBlk; block * kBlk < write_end; ++block) {
    uint64_t block_start = block * kBlk;
    if (write_start <= block_start && write_end >= block_start + kBlk) {
      page_cache_.Insert(of.fs.get(), of.fs_path, block,
                         data.substr(static_cast<size_t>(block_start - write_start),
                                     static_cast<size_t>(kBlk)));
    } else {
      page_cache_.InvalidateRange(of.fs.get(), of.fs_path, block_start, kBlk);
    }
  }
  of.offset += n;
  return n;
}

Result<uint64_t> Kernel::Lseek(Pid pid, Fd fd, uint64_t offset) {
  WITOS_RETURN_IF_ERROR(CheckAlive(pid));
  Process& p = Proc(pid);
  auto it = p.fds.find(fd);
  if (it == p.fds.end()) {
    return Err::kBadf;
  }
  it->second.offset = offset;
  return offset;
}

Result<Stat> Kernel::StatPath(Pid pid, const std::string& path) {
  WITOS_RETURN_IF_ERROR(CheckAlive(pid));
  ChargeSyscall();
  WITOS_ASSIGN_OR_RETURN(VfsContext ctx, ContextFor(pid));
  WITOS_ASSIGN_OR_RETURN(ResolvedPath rp, vfs_.Resolve(ctx, path, true));
  return rp.fs->GetAttr(rp.fs_path, ctx.cred);
}

Result<Stat> Kernel::LstatPath(Pid pid, const std::string& path) {
  WITOS_RETURN_IF_ERROR(CheckAlive(pid));
  ChargeSyscall();
  WITOS_ASSIGN_OR_RETURN(VfsContext ctx, ContextFor(pid));
  WITOS_ASSIGN_OR_RETURN(ResolvedPath rp, vfs_.Resolve(ctx, path, false));
  return rp.fs->GetAttr(rp.fs_path, ctx.cred);
}

Result<std::vector<DirEntry>> Kernel::ReadDir(Pid pid, const std::string& path) {
  WITOS_RETURN_IF_ERROR(CheckAlive(pid));
  ChargeSyscall();
  WITOS_ASSIGN_OR_RETURN(VfsContext ctx, ContextFor(pid));
  WITOS_ASSIGN_OR_RETURN(ResolvedPath rp, vfs_.Resolve(ctx, path, true));
  return rp.fs->ReadDir(rp.fs_path, ctx.cred);
}

Status Kernel::MkDir(Pid pid, const std::string& path, Mode mode) {
  WITOS_RETURN_IF_ERROR(CheckAlive(pid));
  ChargeSyscall();
  WITOS_ASSIGN_OR_RETURN(VfsContext ctx, ContextFor(pid));
  WITOS_ASSIGN_OR_RETURN(ResolvedPath rp, vfs_.Resolve(ctx, path, false, true));
  if (rp.exists) {
    return Err::kExist;
  }
  if (rp.read_only) {
    return Err::kRoFs;
  }
  WITOS_RETURN_IF_ERROR(GuardWrite(Proc(pid), rp.vfs_path, ctx.cred));
  return rp.fs->MkDir(rp.fs_path, mode, ctx.cred);
}

Status Kernel::RmDir(Pid pid, const std::string& path) {
  WITOS_RETURN_IF_ERROR(CheckAlive(pid));
  ChargeSyscall();
  WITOS_ASSIGN_OR_RETURN(VfsContext ctx, ContextFor(pid));
  WITOS_ASSIGN_OR_RETURN(ResolvedPath rp, vfs_.Resolve(ctx, path, false));
  if (rp.read_only) {
    return Err::kRoFs;
  }
  WITOS_RETURN_IF_ERROR(GuardWrite(Proc(pid), rp.vfs_path, ctx.cred));
  return rp.fs->RmDir(rp.fs_path, ctx.cred);
}

Status Kernel::Unlink(Pid pid, const std::string& path) {
  WITOS_RETURN_IF_ERROR(CheckAlive(pid));
  ChargeSyscall();
  WITOS_ASSIGN_OR_RETURN(VfsContext ctx, ContextFor(pid));
  WITOS_ASSIGN_OR_RETURN(ResolvedPath rp, vfs_.Resolve(ctx, path, false));
  if (rp.read_only) {
    return Err::kRoFs;
  }
  WITOS_RETURN_IF_ERROR(GuardWrite(Proc(pid), rp.vfs_path, ctx.cred));
  page_cache_.InvalidateFile(rp.fs.get(), rp.fs_path);
  return rp.fs->Unlink(rp.fs_path, ctx.cred);
}

Status Kernel::Rename(Pid pid, const std::string& from, const std::string& to) {
  WITOS_RETURN_IF_ERROR(CheckAlive(pid));
  ChargeSyscall();
  WITOS_ASSIGN_OR_RETURN(VfsContext ctx, ContextFor(pid));
  WITOS_ASSIGN_OR_RETURN(ResolvedPath rp_from, vfs_.Resolve(ctx, from, false));
  WITOS_ASSIGN_OR_RETURN(ResolvedPath rp_to, vfs_.Resolve(ctx, to, false, true));
  if (rp_from.fs != rp_to.fs) {
    return Err::kXdev;
  }
  if (rp_from.read_only || rp_to.read_only) {
    return Err::kRoFs;
  }
  WITOS_RETURN_IF_ERROR(GuardWrite(Proc(pid), rp_from.vfs_path, ctx.cred));
  WITOS_RETURN_IF_ERROR(GuardWrite(Proc(pid), rp_to.vfs_path, ctx.cred));
  page_cache_.InvalidateFile(rp_from.fs.get(), rp_from.fs_path);
  page_cache_.InvalidateFile(rp_to.fs.get(), rp_to.fs_path);
  return rp_from.fs->Rename(rp_from.fs_path, rp_to.fs_path, ctx.cred);
}

Status Kernel::Chmod(Pid pid, const std::string& path, Mode mode) {
  WITOS_RETURN_IF_ERROR(CheckAlive(pid));
  ChargeSyscall();
  WITOS_ASSIGN_OR_RETURN(VfsContext ctx, ContextFor(pid));
  WITOS_ASSIGN_OR_RETURN(ResolvedPath rp, vfs_.Resolve(ctx, path, true));
  if (rp.read_only) {
    return Err::kRoFs;
  }
  WITOS_RETURN_IF_ERROR(GuardWrite(Proc(pid), rp.vfs_path, ctx.cred));
  return rp.fs->Chmod(rp.fs_path, mode, ctx.cred);
}

Status Kernel::Chown(Pid pid, const std::string& path, Uid uid, Gid gid) {
  WITOS_RETURN_IF_ERROR(CheckAlive(pid));
  ChargeSyscall();
  WITOS_ASSIGN_OR_RETURN(VfsContext ctx, ContextFor(pid));
  WITOS_ASSIGN_OR_RETURN(ResolvedPath rp, vfs_.Resolve(ctx, path, true));
  if (rp.read_only) {
    return Err::kRoFs;
  }
  WITOS_RETURN_IF_ERROR(GuardWrite(Proc(pid), rp.vfs_path, ctx.cred));
  return rp.fs->Chown(rp.fs_path, uid, gid, ctx.cred);
}

Status Kernel::Truncate(Pid pid, const std::string& path, uint64_t size) {
  WITOS_RETURN_IF_ERROR(CheckAlive(pid));
  ChargeSyscall();
  WITOS_ASSIGN_OR_RETURN(VfsContext ctx, ContextFor(pid));
  WITOS_ASSIGN_OR_RETURN(ResolvedPath rp, vfs_.Resolve(ctx, path, true));
  if (rp.read_only) {
    return Err::kRoFs;
  }
  WITOS_RETURN_IF_ERROR(GuardWrite(Proc(pid), rp.vfs_path, ctx.cred));
  page_cache_.InvalidateFile(rp.fs.get(), rp.fs_path);
  return rp.fs->Truncate(rp.fs_path, size, ctx.cred);
}

Status Kernel::Link(Pid pid, const std::string& oldpath, const std::string& newpath) {
  WITOS_RETURN_IF_ERROR(CheckAlive(pid));
  ChargeSyscall();
  WITOS_ASSIGN_OR_RETURN(VfsContext ctx, ContextFor(pid));
  WITOS_ASSIGN_OR_RETURN(ResolvedPath rp_old, vfs_.Resolve(ctx, oldpath, false));
  WITOS_ASSIGN_OR_RETURN(ResolvedPath rp_new, vfs_.Resolve(ctx, newpath, false, true));
  if (rp_new.exists) {
    return Err::kExist;
  }
  if (rp_old.fs != rp_new.fs) {
    return Err::kXdev;
  }
  if (rp_new.read_only) {
    return Err::kRoFs;
  }
  WITOS_RETURN_IF_ERROR(GuardWrite(Proc(pid), rp_new.vfs_path, ctx.cred));
  return rp_old.fs->Link(rp_old.fs_path, rp_new.fs_path, ctx.cred);
}

Status Kernel::SymLink(Pid pid, const std::string& target, const std::string& linkpath) {
  WITOS_RETURN_IF_ERROR(CheckAlive(pid));
  ChargeSyscall();
  WITOS_ASSIGN_OR_RETURN(VfsContext ctx, ContextFor(pid));
  WITOS_ASSIGN_OR_RETURN(ResolvedPath rp, vfs_.Resolve(ctx, linkpath, false, true));
  if (rp.exists) {
    return Err::kExist;
  }
  if (rp.read_only) {
    return Err::kRoFs;
  }
  WITOS_RETURN_IF_ERROR(GuardWrite(Proc(pid), rp.vfs_path, ctx.cred));
  return rp.fs->SymLink(target, rp.fs_path, ctx.cred);
}

Result<std::string> Kernel::ReadLink(Pid pid, const std::string& path) {
  WITOS_RETURN_IF_ERROR(CheckAlive(pid));
  ChargeSyscall();
  WITOS_ASSIGN_OR_RETURN(VfsContext ctx, ContextFor(pid));
  WITOS_ASSIGN_OR_RETURN(ResolvedPath rp, vfs_.Resolve(ctx, path, false));
  return rp.fs->ReadLink(rp.fs_path, ctx.cred);
}

Status Kernel::MkNod(Pid pid, const std::string& path, FileType type, DeviceId rdev, Mode mode) {
  WITOS_RETURN_IF_ERROR(CheckAlive(pid));
  ChargeSyscall();
  Process& p = Proc(pid);
  if (type == FileType::kCharDevice || type == FileType::kBlockDevice) {
    // Attack 3 defence: raw-disk mounting starts with mknod of a device.
    WITOS_RETURN_IF_ERROR(RequireCap(p, Capability::kMknod, "mknod"));
  }
  WITOS_ASSIGN_OR_RETURN(VfsContext ctx, ContextFor(pid));
  WITOS_ASSIGN_OR_RETURN(ResolvedPath rp, vfs_.Resolve(ctx, path, false, true));
  if (rp.exists) {
    return Err::kExist;
  }
  if (rp.read_only) {
    return Err::kRoFs;
  }
  WITOS_RETURN_IF_ERROR(GuardWrite(p, rp.vfs_path, ctx.cred));
  return rp.fs->MkNod(rp.fs_path, type, rdev, mode, ctx.cred);
}

Result<std::string> Kernel::ReadFile(Pid pid, const std::string& path) {
  WITOS_ASSIGN_OR_RETURN(Fd fd, Open(pid, path, kOpenRead));
  std::string out;
  for (;;) {
    auto chunk = Read(pid, fd, 1 << 20);
    if (!chunk.ok()) {
      (void)Close(pid, fd);
      return chunk.error();
    }
    if (chunk->empty()) {
      break;
    }
    out += *chunk;
  }
  (void)Close(pid, fd);
  return out;
}

Status Kernel::WriteFile(Pid pid, const std::string& path, const std::string& data,
                         bool append) {
  uint32_t flags = kOpenWrite | kOpenCreate | (append ? kOpenAppend : kOpenTrunc);
  WITOS_ASSIGN_OR_RETURN(Fd fd, Open(pid, path, flags));
  auto written = Write(pid, fd, data);
  (void)Close(pid, fd);
  if (!written.ok()) {
    return written.error();
  }
  return Status::Ok();
}

// --- Mounts, chroot, cwd ------------------------------------------------------

Status Kernel::Mount(Pid pid, std::shared_ptr<Filesystem> fs, const std::string& mountpoint,
                     const std::string& source, bool read_only) {
  return BindMount(pid, std::move(fs), "/", mountpoint, source, read_only);
}

Status Kernel::BindMount(Pid pid, std::shared_ptr<Filesystem> fs, const std::string& fs_root,
                         const std::string& mountpoint, const std::string& source,
                         bool read_only) {
  WITOS_RETURN_IF_ERROR(CheckAlive(pid));
  Process& p = Proc(pid);
  WITOS_RETURN_IF_ERROR(RequireCap(p, Capability::kSysAdmin, "mount"));
  WITOS_ASSIGN_OR_RETURN(VfsContext ctx, ContextFor(pid));
  WITOS_ASSIGN_OR_RETURN(ResolvedPath rp, vfs_.Resolve(ctx, mountpoint, true));
  WITOS_ASSIGN_OR_RETURN(Stat st, rp.fs->GetAttr(rp.fs_path, ctx.cred));
  if (st.type != FileType::kDirectory) {
    return Err::kNotDir;
  }
  MountEntry entry;
  entry.source = source;
  entry.mountpoint = rp.vfs_path;
  entry.fs = std::move(fs);
  entry.fs_root = fs_root;
  entry.read_only = read_only;
  return vfs_.AddMount(p.ns.Get(NsType::kMnt), std::move(entry));
}

Status Kernel::Umount(Pid pid, const std::string& mountpoint) {
  WITOS_RETURN_IF_ERROR(CheckAlive(pid));
  Process& p = Proc(pid);
  WITOS_RETURN_IF_ERROR(RequireCap(p, Capability::kSysAdmin, "umount"));
  WITOS_ASSIGN_OR_RETURN(VfsContext ctx, ContextFor(pid));
  WITOS_ASSIGN_OR_RETURN(ResolvedPath rp, vfs_.Resolve(ctx, mountpoint, true));
  return vfs_.RemoveMount(p.ns.Get(NsType::kMnt), rp.vfs_path);
}

Result<std::vector<MountEntry>> Kernel::MountTable(Pid pid) const {
  const Process* p = FindProcess(pid);
  if (p == nullptr) {
    return Err::kSrch;
  }
  const auto& table = const_cast<NamespaceRegistry&>(registry_).Mnt(p->ns.Get(NsType::kMnt)).table;
  std::vector<MountEntry> out;
  for (const auto& entry : table) {
    if (!PathIsUnder(entry.mountpoint, p->root)) {
      continue;  // invisible from inside the chroot
    }
    MountEntry view = entry;
    // Present mountpoints in jail-space, like /proc/mounts in a container.
    view.mountpoint = p->root == "/" ? entry.mountpoint
                                     : (entry.mountpoint == p->root
                                            ? "/"
                                            : entry.mountpoint.substr(p->root.size()));
    out.push_back(std::move(view));
  }
  return out;
}

Status Kernel::Chroot(Pid pid, const std::string& path) {
  WITOS_RETURN_IF_ERROR(CheckAlive(pid));
  ChargeSyscall();
  Process& p = Proc(pid);
  // Attack 1 defence: double-chroot escapes require this capability.
  WITOS_RETURN_IF_ERROR(RequireCap(p, Capability::kSysChroot, "chroot"));
  WITOS_ASSIGN_OR_RETURN(VfsContext ctx, ContextFor(pid));
  WITOS_ASSIGN_OR_RETURN(ResolvedPath rp, vfs_.Resolve(ctx, path, true));
  WITOS_ASSIGN_OR_RETURN(Stat st, rp.fs->GetAttr(rp.fs_path, ctx.cred));
  if (st.type != FileType::kDirectory) {
    return Err::kNotDir;
  }
  p.root = rp.vfs_path;
  p.cwd.assign(1, '/');  // not `= "/"`: GCC 12 at -O3 flags that (-Wrestrict)
  return Status::Ok();
}

Status Kernel::Chdir(Pid pid, const std::string& path) {
  WITOS_RETURN_IF_ERROR(CheckAlive(pid));
  Process& p = Proc(pid);
  WITOS_ASSIGN_OR_RETURN(VfsContext ctx, ContextFor(pid));
  WITOS_ASSIGN_OR_RETURN(ResolvedPath rp, vfs_.Resolve(ctx, path, true));
  WITOS_ASSIGN_OR_RETURN(Stat st, rp.fs->GetAttr(rp.fs_path, ctx.cred));
  if (st.type != FileType::kDirectory) {
    return Err::kNotDir;
  }
  p.cwd = rp.jail_path;
  return Status::Ok();
}

Result<std::string> Kernel::GetCwd(Pid pid) const {
  const Process* p = FindProcess(pid);
  if (p == nullptr) {
    return Err::kSrch;
  }
  return p->cwd;
}

// --- UTS / IPC -----------------------------------------------------------------

Result<std::string> Kernel::GetHostname(Pid pid) const {
  const Process* p = FindProcess(pid);
  if (p == nullptr) {
    return Err::kSrch;
  }
  return const_cast<NamespaceRegistry&>(registry_).Uts(p->ns.Get(NsType::kUts)).hostname;
}

Status Kernel::SetHostname(Pid pid, const std::string& hostname) {
  WITOS_RETURN_IF_ERROR(CheckAlive(pid));
  Process& p = Proc(pid);
  WITOS_RETURN_IF_ERROR(RequireCap(p, Capability::kSysAdmin, "sethostname"));
  registry_.Uts(p.ns.Get(NsType::kUts)).hostname = hostname;
  return Status::Ok();
}

Result<UnameInfo> Kernel::Uname(Pid pid) const {
  WITOS_ASSIGN_OR_RETURN(std::string hostname, GetHostname(pid));
  UnameInfo info;
  info.hostname = hostname;
  return info;
}

Status Kernel::ShmPut(Pid pid, const std::string& key, const std::string& value) {
  WITOS_RETURN_IF_ERROR(CheckAlive(pid));
  Process& p = Proc(pid);
  registry_.Ipc(p.ns.Get(NsType::kIpc)).shm[key] = value;
  return Status::Ok();
}

Result<std::string> Kernel::ShmGet(Pid pid, const std::string& key) {
  WITOS_RETURN_IF_ERROR(CheckAlive(pid));
  Process& p = Proc(pid);
  auto& shm = registry_.Ipc(p.ns.Get(NsType::kIpc)).shm;
  auto it = shm.find(key);
  if (it == shm.end()) {
    return Err::kNoEnt;
  }
  return it->second;
}

// --- XCL namespace ---------------------------------------------------------------

Status Kernel::XclAdd(Pid pid, const std::string& vfs_path) {
  WITOS_RETURN_IF_ERROR(CheckAlive(pid));
  Process& p = Proc(pid);
  WITOS_RETURN_IF_ERROR(RequireCap(p, Capability::kSysAdmin, "xcl_add"));
  auto& excluded = registry_.Xcl(p.ns.Get(NsType::kXcl)).excluded;
  std::string norm = NormalizePath(vfs_path);
  // Adding the same subtree twice must stay idempotent: otherwise one
  // XclRemove peels off only one of N duplicate entries and the exclusion
  // silently survives its own removal.
  if (std::find(excluded.begin(), excluded.end(), norm) == excluded.end()) {
    excluded.push_back(std::move(norm));
  }
  return Status::Ok();
}

Status Kernel::XclRemove(Pid pid, const std::string& vfs_path) {
  WITOS_RETURN_IF_ERROR(CheckAlive(pid));
  Process& p = Proc(pid);
  WITOS_RETURN_IF_ERROR(RequireCap(p, Capability::kSysAdmin, "xcl_remove"));
  auto& excluded = registry_.Xcl(p.ns.Get(NsType::kXcl)).excluded;
  std::string norm = NormalizePath(vfs_path);
  auto it = std::find(excluded.begin(), excluded.end(), norm);
  if (it == excluded.end()) {
    return Err::kNoEnt;
  }
  excluded.erase(it);
  return Status::Ok();
}

Result<std::vector<std::string>> Kernel::XclList(Pid pid) const {
  const Process* p = FindProcess(pid);
  if (p == nullptr) {
    return Err::kSrch;
  }
  return const_cast<NamespaceRegistry&>(registry_).Xcl(p->ns.Get(NsType::kXcl)).excluded;
}

// --- Dangerous operations ---------------------------------------------------------

Status Kernel::Ptrace(Pid pid, Pid target_local) {
  WITOS_RETURN_IF_ERROR(CheckAlive(pid));
  ChargeSyscall();
  Process& p = Proc(pid);
  // Attack 2 defence: bind-shell injection requires ptrace.
  WITOS_RETURN_IF_ERROR(RequireCap(p, Capability::kSysPtrace, "ptrace"));
  WITOS_ASSIGN_OR_RETURN(Pid target_host, LocalToHostPid(pid, target_local));
  WITOS_RETURN_IF_ERROR(CheckAlive(target_host));
  const Process& target = Proc(target_host);
  if (!registry_.PidNsIsDescendant(target.ns.Get(NsType::kPid), p.ns.Get(NsType::kPid))) {
    return Err::kSrch;
  }
  return Status::Ok();
}

Status Kernel::Reboot(Pid pid) {
  WITOS_RETURN_IF_ERROR(CheckAlive(pid));
  Process& p = Proc(pid);
  WITOS_RETURN_IF_ERROR(RequireCap(p, Capability::kSysBoot, "reboot"));
  audit_.Append(AuditEvent::kSessionEvent, pid, p.cred.uid, "reboot", clock_.now_ns());
  if (reboot_hook_) {
    reboot_hook_();
  }
  return Status::Ok();
}

Status Kernel::LoadModule(Pid pid, const std::string& name) {
  WITOS_RETURN_IF_ERROR(CheckAlive(pid));
  Process& p = Proc(pid);
  WITOS_RETURN_IF_ERROR(RequireCap(p, Capability::kSysModule, "init_module"));
  WITOS_ASSIGN_OR_RETURN(Credentials cred, HostCredentials(pid));
  // Loading a module rewrites the TCB: route through the write guard.
  WITOS_RETURN_IF_ERROR(GuardWrite(p, "/lib/modules/" + name, cred));
  loaded_modules_.push_back(name);
  return Status::Ok();
}

}  // namespace witos
