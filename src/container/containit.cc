#include "src/container/containit.h"

#include <charconv>
#include <utility>

#include "src/fs/fuse.h"
#include "src/os/path.h"
#include "src/os/procfs.h"

namespace witcontain {

ContainIt::ContainIt(witos::Kernel* kernel, witnet::NetStack* net)
    : kernel_(kernel), net_(net) {
  kernel_->AddDeathHook([this](witos::Pid pid) { OnProcessDeath(pid); });
}

void ContainIt::AttachBroker(witbroker::PermissionBroker* broker) {
  broker_ = broker;
  broker->RegisterVerb(witbroker::kVerbMountVolume,
                       [this](const witbroker::RpcRequest& request) {
                         witbroker::RpcResponse resp;
                         if (request.args.size() != 2) {
                           resp.err = witos::Err::kInval;
                           return resp;
                         }
                         Session* session = FindSessionByTicket(request.ticket_id);
                         if (session == nullptr) {
                           resp.err = witos::Err::kSrch;
                           return resp;
                         }
                         witos::Status status =
                             ShareDirectory(session->id, request.args[0], request.args[1]);
                         if (!status.ok()) {
                           resp.err = status.error();
                           return resp;
                         }
                         resp.ok = true;
                         resp.payload = "mounted " + request.args[0] + " at " + request.args[1];
                         return resp;
                       });
  broker->RegisterVerb(
      witbroker::kVerbNetAllow, [this](const witbroker::RpcRequest& request) {
        witbroker::RpcResponse resp;
        if (request.args.empty()) {
          resp.err = witos::Err::kInval;
          return resp;
        }
        auto addr = witnet::Ipv4Addr::Parse(request.args[0]);
        // A given port is a whole number in 1-65535; none is 0, every port.
        uint16_t port = 0;
        bool port_ok = true;
        if (request.args.size() > 1) {
          const std::string& text = request.args[1];
          auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), port);
          port_ok = ec == std::errc() && end == text.data() + text.size() && port != 0;
        }
        if (!addr.has_value() || !port_ok) {
          resp.err = witos::Err::kInval;
          return resp;
        }
        Session* session = FindSessionByTicket(request.ticket_id);
        if (session == nullptr) {
          resp.err = witos::Err::kSrch;
          return resp;
        }
        witos::Status status =
            AllowNetworkEndpoint(session->id, *addr, port, "broker-granted");
        if (!status.ok()) {
          resp.err = status.error();
          return resp;
        }
        resp.ok = true;
        resp.payload = "network view extended to " + request.args[0];
        return resp;
      });
}

std::shared_ptr<witfs::Itfs> ContainIt::MakeItfs(Session* session,
                                                 std::shared_ptr<witos::Filesystem> lower) {
  // An image from the repository arrives compiled, and all its sessions and
  // mounts share that policy. A hand-built or edited spec is compiled here,
  // once per session, and only that compile is observed.
  if (session->spec.fs.Compile() && itfs_metrics_ != nullptr) {
    itfs_metrics_->compile_ns->Observe(session->spec.fs.compiled()->compile_ns());
  }
  std::shared_ptr<const witfs::CompiledPolicy> policy = session->spec.fs.compiled();
  // ITFS runs with the privileges of the host user who mounts it: root for
  // admin containers, an unprivileged service uid in rootless mode. Its
  // records carry the pid of the session's host-side worker: it exists
  // before the view is mounted and lives as long as the session, unlike
  // the nsenter helper that makes a ShareDirectory mount.
  witos::Credentials invoker;
  if (!session->spec.map_root_to_host_root) {
    invoker.uid = kRootlessHostUid;
    invoker.gid = kRootlessHostUid;
    invoker.caps = witos::CapabilitySet::Empty();
  }
  auto itfs = std::make_shared<witfs::Itfs>(std::move(lower), std::move(policy), invoker,
                                            &kernel_->clock(), &kernel_->audit(),
                                            session->host_worker);
  itfs->set_tally(session->itfs_tally);
  itfs->EnableMetrics(itfs_metrics_);
  if (session->spec.fs.shadow != nullptr) {
    itfs->SetShadowPolicy(session->spec.fs.shadow);
  }
  return itfs;
}

void ContainIt::EnableMetrics(witobs::MetricsRegistry* registry) {
  itfs_metrics_ = registry != nullptr ? std::make_shared<const witfs::ItfsMetrics>(registry)
                                      : nullptr;
}

witos::Status ContainIt::SetupFilesystemView(Session* session) {
  const PerforatedContainerSpec& spec = session->spec;
  witos::Pid worker = session->host_worker;

  // Recorded only once created, so a failed deploy never removes a
  // mountpoint it does not own.
  std::string confs_path = "/ConFS-" + std::to_string(session->id);
  WITOS_RETURN_IF_ERROR(kernel_->MkDir(worker, confs_path));
  session->confs_path = std::move(confs_path);

  switch (spec.fs.kind) {
    case FsView::Kind::kWholeRoot: {
      // Figure 5: mount the host's root filesystem through ITFS at /ConFS.
      std::shared_ptr<witos::Filesystem> top = kernel_->root_fs_ptr();
      if (spec.fs.monitor) {
        std::shared_ptr<witos::Filesystem> lower = top;
        session->itfs = MakeItfs(session, top);
        auto fuse = std::make_shared<witfs::FuseMount>(session->itfs, &kernel_->clock());
        if (spec.fs.passthrough) {
          fuse->EnablePassthrough(lower);
        }
        top = fuse;
        session->mounted.push_back(top.get());
      }
      WITOS_RETURN_IF_ERROR(kernel_->Mount(worker, top, session->confs_path, "itfs"));
      break;
    }
    case FsView::Kind::kPrivate:
    case FsView::Kind::kDirs: {
      // A fresh private root; for kDirs, selected host directories are then
      // bind-mounted into it through ITFS.
      session->private_root = std::make_shared<witos::MemFs>("tmpfs", &kernel_->clock());
      for (const char* dir : {"/etc", "/home", "/tmp", "/usr", "/var", "/proc"}) {
        session->private_root->ProvisionDir(dir);
      }
      std::shared_ptr<witos::Filesystem> top = session->private_root;
      if (spec.fs.kind == FsView::Kind::kPrivate && spec.fs.monitor) {
        // T-11 style: even the fully isolated container is logged.
        std::shared_ptr<witos::Filesystem> lower = top;
        session->itfs = MakeItfs(session, top);
        auto fuse = std::make_shared<witfs::FuseMount>(session->itfs, &kernel_->clock());
        if (spec.fs.passthrough) {
          fuse->EnablePassthrough(lower);
        }
        top = fuse;
      }
      session->mounted.push_back(top.get());
      WITOS_RETURN_IF_ERROR(kernel_->Mount(worker, top, session->confs_path, "tmpfs"));
      if (spec.fs.kind == FsView::Kind::kDirs) {
        std::shared_ptr<witos::Filesystem> view = kernel_->root_fs_ptr();
        if (spec.fs.monitor) {
          std::shared_ptr<witos::Filesystem> lower = view;
          session->itfs = MakeItfs(session, view);
          auto fuse = std::make_shared<witfs::FuseMount>(session->itfs, &kernel_->clock());
          if (spec.fs.passthrough) {
            fuse->EnablePassthrough(lower);
          }
          view = fuse;
          session->mounted.push_back(view.get());
        }
        for (const std::string& dir : spec.fs.visible_dirs) {
          std::string norm = witos::NormalizePath(dir);
          // Create the mountpoint path inside the private root.
          std::string cur;
          for (const auto& comp : witos::SplitPath(norm)) {
            cur += "/" + comp;
            (void)kernel_->MkDir(worker, session->confs_path + cur);
          }
          WITOS_RETURN_IF_ERROR(kernel_->BindMount(worker, view, norm,
                                                   session->confs_path + norm, "itfs-bind"));
        }
      }
      break;
    }
  }
  return witos::Status::Ok();
}

witos::Status ContainIt::SetupNetworkView(Session* session) {
  if (net_ == nullptr) {
    return witos::Status::Ok();
  }
  const PerforatedContainerSpec& spec = session->spec;
  const witos::Process* proc = kernel_->FindProcess(session->container_init);
  witos::NsId net_ns = proc->ns.Get(witos::NsType::kNet);

  auto make_sniffer = [&]() {
    auto sniffer = std::make_unique<witnet::Sniffer>();
    sniffer->AddRule(witnet::Sniffer::BlockFileSignatures());
    sniffer->AddRule(witnet::Sniffer::BlockEncrypted());
    std::vector<witnet::Cidr> whitelist = spec.net.sniffer_whitelist;
    for (const auto& ep : spec.net.allowed) {
      whitelist.push_back(witnet::Cidr::Host(ep.addr));
    }
    if (!whitelist.empty()) {
      sniffer->AddRule(witnet::Sniffer::RestrictDestinations(std::move(whitelist)));
    }
    for (const auto& rule : spec.net.extra_sniffer_rules) {
      sniffer->AddRule(rule);
    }
    return sniffer;
  };

  if (!spec.IsolatesNs(witos::NsType::kNet)) {
    // NET shared with the host (Figure 1b). Tap the host namespace if asked.
    if (spec.net.sniff) {
      witnet::NetNsPayload& host_ns =
          net_->namespaces().GetOrCreate(kernel_->namespaces().initial(witos::NsType::kNet));
      if (host_ns.sniffer == nullptr) {
        host_ns.sniffer = make_sniffer();
      }
    }
    return witos::Status::Ok();
  }

  witnet::NetNsPayload& payload = net_->namespaces().GetOrCreate(net_ns);
  witnet::Ipv4Addr container_addr(10, 200,
                                  static_cast<uint8_t>((next_container_addr_ >> 8) & 0xff),
                                  static_cast<uint8_t>(next_container_addr_ & 0xff));
  ++next_container_addr_;
  payload.AddDevice("eth0", container_addr);
  payload.firewall.set_default_policy(witnet::FwAction::kDrop);
  for (const auto& ep : spec.net.allowed) {
    payload.AllowEndpoint(ep.addr, ep.port, ep.name);
  }
  for (const auto& cidr : spec.net.sniffer_whitelist) {
    payload.AddRoute(cidr, "eth0", "whitelisted");
    payload.firewall.Append({witnet::FwDirection::kEgress, cidr, 0,
                             witnet::FwAction::kAccept, "whitelisted"});
  }
  if (spec.net.sniff) {
    payload.sniffer = make_sniffer();
  }
  return witos::Status::Ok();
}

witos::Result<SessionId> ContainIt::Deploy(const PerforatedContainerSpec& spec,
                                           const std::string& ticket_id,
                                           const std::string& admin) {
  uint64_t start_ns = kernel_->clock().now_ns();
  auto session = std::make_unique<Session>();
  session->id = next_id_++;
  session->spec = spec;
  session->ticket_id = ticket_id;
  session->admin = admin;

  witos::Status built = BuildSession(session.get());
  if (!built.ok()) {
    TearDown(session.get());
    kernel_->audit().Append(witos::AuditEvent::kContainerTerminated, session->container_init,
                            witos::kRootUid, spec.name + ": deploy aborted",
                            kernel_->clock().now_ns());
    return built.error();
  }

  session->deploy_duration_ns = kernel_->clock().now_ns() - start_ns;
  kernel_->audit().Append(witos::AuditEvent::kContainerDeployed, session->container_init,
                          witos::kRootUid,
                          spec.name + " ticket=" + ticket_id + " admin=" + admin,
                          kernel_->clock().now_ns());
  SessionId id = session->id;
  live_.emplace(id, std::move(session));
  return id;
}

witos::Status ContainIt::BuildSession(Session* session) {
  const PerforatedContainerSpec& spec = session->spec;

  WITOS_ASSIGN_OR_RETURN(session->host_worker,
                         kernel_->Clone(kernel_->init_pid(), "ContainIT", 0));

  bool mnt_isolated = spec.IsolatesNs(witos::NsType::kMnt);
  if (mnt_isolated) {
    WITOS_RETURN_IF_ERROR(SetupFilesystemView(session));
  }

  uint32_t clone_flags = 0;
  for (witos::NsType type : spec.isolate) {
    clone_flags |= witos::CloneFlagFor(type);
  }
  if (!spec.xcl_exclusions.empty()) {
    clone_flags |= witos::kCloneNewXcl;  // CLONE_XCL (paper §5.6)
  }
  WITOS_ASSIGN_OR_RETURN(session->container_init,
                         kernel_->Clone(session->host_worker, "containIT", clone_flags));

  // Resource confinement: the whole session lives in its own pids cgroup.
  session->cgroup = kernel_->cgroups().Create("session-" + std::to_string(session->id),
                                              spec.max_processes);
  WITOS_RETURN_IF_ERROR(kernel_->AssignCgroup(session->container_init, session->cgroup));

  if (mnt_isolated) {
    WITOS_RETURN_IF_ERROR(kernel_->Chroot(session->container_init, session->confs_path));
    // The container's own /proc, bound to its PID namespace.
    const witos::Process* proc = kernel_->FindProcess(session->container_init);
    auto procfs =
        std::make_shared<witos::ProcFs>(kernel_, proc->ns.Get(witos::NsType::kPid));
    WITOS_RETURN_IF_ERROR(kernel_->Mount(session->container_init, procfs, "/proc", "proc"));
  }

  if (spec.IsolatesNs(witos::NsType::kUts)) {
    WITOS_RETURN_IF_ERROR(kernel_->SetHostname(session->container_init, spec.hostname));
  }
  if (spec.IsolatesNs(witos::NsType::kUid)) {
    // Map contained root to host root: required for service restarts and
    // reboots (paper §6.1), with the risk mitigated by the cap drops below.
    const witos::Process* proc = kernel_->FindProcess(session->container_init);
    witos::UidNamespace& uid_ns =
        kernel_->namespaces().Uidns(proc->ns.Get(witos::NsType::kUid));
    if (spec.map_root_to_host_root) {
      uid_ns.uid_map = {{0, 0, 1}, {1000, 1000, 64535}};
    } else {
      // Rootless: contained root becomes an unprivileged host uid.
      uid_ns.uid_map = {{0, kRootlessHostUid, 1}, {1000, 1000, 64535}};
    }
    uid_ns.gid_map = uid_ns.uid_map;
  }

  WITOS_RETURN_IF_ERROR(SetupNetworkView(session));

  for (const std::string& exclusion : spec.xcl_exclusions) {
    WITOS_RETURN_IF_ERROR(kernel_->XclAdd(session->container_init, exclusion));
  }

  // Strip the escape capabilities (Table 1, attacks 1-4) plus the two that
  // would let the contained root undo the sandbox.
  witos::CapabilitySet to_drop = ForbiddenCaps();
  if (!spec.process_mgmt && !spec.extra_caps.Has(witos::Capability::kSysBoot)) {
    to_drop.Add(witos::Capability::kSysBoot);
  }
  WITOS_RETURN_IF_ERROR(kernel_->CapDrop(session->container_init, to_drop));

  WITOS_ASSIGN_OR_RETURN(session->shell, kernel_->Clone(session->container_init, "bash", 0));

  // Host-side peer daemons: killing either tears the session down.
  if (session->itfs != nullptr) {
    WITOS_ASSIGN_OR_RETURN(session->itfs_daemon,
                           kernel_->Clone(kernel_->init_pid(), "itfs", 0));
  }
  if (net_ != nullptr && spec.net.sniff) {  // exactly when a tap is installed
    WITOS_ASSIGN_OR_RETURN(session->sniffer_daemon,
                           kernel_->Clone(kernel_->init_pid(), "snort", 0));
  }
  return witos::Status::Ok();
}

void ContainIt::TearDown(Session* session) {
  const witos::Pid pids[] = {session->shell, session->container_init, session->itfs_daemon,
                             session->sniffer_daemon, session->host_worker};
  for (witos::Pid pid : pids) {
    if (pid != witos::kNoPid && kernel_->ProcessAlive(pid)) {
      (void)kernel_->Exit(pid, -1);
    }
  }
  // An isolated network namespace dies with the session; so does its
  // witnet state, its sniffer included.
  const witos::Process* init = kernel_->FindProcess(session->container_init);
  if (net_ != nullptr && init != nullptr && session->spec.IsolatesNs(witos::NsType::kNet)) {
    net_->namespaces().Erase(init->ns.Get(witos::NsType::kNet));
  }
  // Every session process is a zombie now; reaping them keeps the process
  // table, init's children and the pid maps bounded by live sessions.
  for (witos::Pid pid : pids) {
    if (pid != witos::kNoPid) {
      (void)kernel_->Reap(pid);
    }
  }
  if (!session->confs_path.empty()) {
    (void)kernel_->vfs().RemoveMountsUnder(
        kernel_->namespaces().initial(witos::NsType::kMnt), session->confs_path);
    (void)kernel_->RmDir(kernel_->init_pid(), session->confs_path);
  }
  // Cached blocks are keyed by filesystem address; drop them before a later
  // mount can be allocated at a freed one.
  for (const witos::Filesystem* fs : session->mounted) {
    kernel_->page_cache().DropFilesystem(fs);
  }
  if (session->cgroup != witos::kRootCgroup) {
    kernel_->cgroups().Remove(session->cgroup);
  }
}

Session* ContainIt::FindSession(SessionId id) {
  return const_cast<Session*>(std::as_const(*this).FindSession(id));
}

const Session* ContainIt::FindSession(SessionId id) const {
  auto it = live_.find(id);
  return it != live_.end() ? it->second.get() : nullptr;
}

const SessionRecord* ContainIt::FindRetired(SessionId id) const {
  auto it = retired_.find(id);
  return it != retired_.end() ? &it->second : nullptr;
}

Session* ContainIt::FindSessionByTicket(const std::string& ticket_id) {
  for (auto& [id, session] : live_) {
    if (session->ticket_id == ticket_id) {
      return session.get();
    }
  }
  return nullptr;
}

SessionRecord ContainIt::RecordOf(const Session& session) const {
  SessionRecord record;
  record.id = session.id;
  record.ticket_id = session.ticket_id;
  record.admin = session.admin;
  record.container_class = session.spec.name;
  record.host_worker = session.host_worker;
  record.shell = session.shell;
  record.container_init = session.container_init;
  record.fs_ops = session.itfs_tally->Read();
  return record;
}

witos::Status ContainIt::Terminate(SessionId id, const std::string& reason) {
  auto node = live_.extract(id);
  if (node.empty()) {
    return witos::Err::kSrch;
  }
  // Out of live_ first: the Exits in TearDown re-enter the watchdog, which
  // scans live sessions only.
  std::unique_ptr<Session> session = std::move(node.mapped());
  // Figure 5c teardown: processes, mounts, mountpoint, cached blocks, cgroup.
  TearDown(session.get());
  SessionRecord record = RecordOf(*session);
  record.termination_reason = reason;
  retired_.emplace(id, std::move(record));
  kernel_->audit().Append(witos::AuditEvent::kContainerTerminated, session->container_init,
                          witos::kRootUid, session->spec.name + ": " + reason,
                          kernel_->clock().now_ns());
  return witos::Status::Ok();
}

void ContainIt::OnProcessDeath(witos::Pid pid) {
  if (terminating_) {
    return;
  }
  terminating_ = true;
  bool broker_died = broker_ != nullptr && pid == broker_->host_pid();
  // Collected first: Terminate moves sessions out of live_.
  std::vector<SessionId> doomed;
  for (const auto& [id, session] : live_) {
    if (broker_died || pid == session->itfs_daemon || pid == session->sniffer_daemon ||
        pid == session->host_worker) {
      doomed.push_back(id);
    }
  }
  for (SessionId id : doomed) {
    // Attack 7 defence: "ContainIT terminates the session if any of its
    // peer processes are killed."
    (void)Terminate(id, "peer process " + std::to_string(pid) + " died");
  }
  terminating_ = false;
}

witos::Status ContainIt::ShareDirectory(SessionId id, const std::string& host_dir,
                                        const std::string& container_path) {
  Session* session = FindSession(id);
  if (session == nullptr) {
    return witos::Err::kSrch;
  }
  if (!session->spec.IsolatesNs(witos::NsType::kMnt)) {
    return witos::Err::kInval;  // shares the host table already
  }
  // Stage 1: validate the real path on the host.
  WITOS_ASSIGN_OR_RETURN(witos::Stat st, kernel_->StatPath(kernel_->init_pid(), host_dir));
  if (st.type != witos::FileType::kDirectory) {
    return witos::Err::kNotDir;
  }
  // Stage 2: nsenter — a root helper joins the container's MNT namespace.
  WITOS_ASSIGN_OR_RETURN(witos::Pid helper, kernel_->Clone(kernel_->init_pid(), "nsenter", 0));
  witos::Status status = kernel_->Setns(helper, session->container_init, witos::NsType::kMnt);
  if (!status.ok()) {
    (void)kernel_->Exit(helper, -1);
    (void)kernel_->Reap(helper);
    return status.error();
  }
  // Stage 3: an independent ITFS bind mount, created from within the
  // namespace, so the newly shared files are supervised too (§5.5).
  std::string norm = witos::NormalizePath(container_path);
  std::string cur;
  for (const auto& comp : witos::SplitPath(norm)) {
    cur += "/" + comp;
    (void)kernel_->MkDir(helper, cur);
  }
  std::shared_ptr<witos::Filesystem> view = kernel_->root_fs_ptr();
  auto itfs = MakeItfs(session, view);
  auto fuse = std::make_shared<witfs::FuseMount>(itfs, &kernel_->clock());
  status = kernel_->BindMount(helper, fuse, witos::NormalizePath(host_dir), norm, "itfs-bind");
  (void)kernel_->Exit(helper, 0);
  (void)kernel_->Reap(helper);
  if (!status.ok()) {
    return status.error();
  }
  session->mounted.push_back(fuse.get());
  if (session->itfs == nullptr) {
    // An unmonitored view's first ITFS mount: its policy and caches stay
    // reachable through the session. Its records are chained under
    // host_worker like the view's.
    session->itfs = itfs;
  }
  return witos::Status::Ok();
}

witos::Status ContainIt::AllowNetworkEndpoint(SessionId id, witnet::Ipv4Addr addr,
                                              uint16_t port, const std::string& name) {
  Session* session = FindSession(id);
  if (session == nullptr || net_ == nullptr) {
    return witos::Err::kSrch;
  }
  if (!session->spec.IsolatesNs(witos::NsType::kNet)) {
    return witos::Status::Ok();  // host view already includes everything
  }
  const witos::Process* proc = kernel_->FindProcess(session->container_init);
  witnet::NetNsPayload& payload =
      net_->namespaces().GetOrCreate(proc->ns.Get(witos::NsType::kNet));
  payload.AllowEndpoint(addr, port, name);
  if (payload.sniffer != nullptr) {
    payload.sniffer->WidenWhitelist(witnet::Cidr::Host(addr));
  }
  return witos::Status::Ok();
}

}  // namespace witcontain
