// ContainIT: WatchIT's dedicated container software (paper §5.2).
//
// Deploying a perforated container executes the Figure 5 recipe on the
// simulated kernel:
//   1. a host-side worker mounts the container's filesystem view at a
//      dedicated /ConFS-<n> mountpoint — the host's whole root through
//      FUSE+ITFS, a private root, or selected host directories;
//   2. the container init process is cloned with new namespaces for every
//      type the spec isolates (the types left out are the holes);
//   3. init chroots to the mountpoint, mounts its own /proc (bound to its
//      PID namespace), and the network view / XCL exclusions are installed;
//   4. the capabilities behind the four container-escape techniques are
//      stripped (Table 1, attacks 1-4), plus CAP_SYS_ADMIN and
//      CAP_SYS_MODULE;
//   5. host-side peer daemons (itfs, snort) are spawned, and a kernel death
//      hook terminates the whole session if any peer — or the permission
//      broker — is killed (Attack 7).
//
// When the spec shares the host MNT namespace, filesystem monitoring is
// impossible by construction (§5.6); the deploy skips ITFS/chroot and
// installs the spec's XCL exclusions instead.

#ifndef SRC_CONTAINER_CONTAINIT_H_
#define SRC_CONTAINER_CONTAINIT_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/broker/broker.h"
#include "src/container/spec.h"
#include "src/fs/itfs.h"
#include "src/net/socket.h"
#include "src/os/kernel.h"

namespace witcontain {

using SessionId = uint64_t;

// The host uid contained root maps to in rootless mode.
inline constexpr witos::Uid kRootlessHostUid = 100000;

// A deployed session's working state. It exists only while the session is
// live: Terminate reduces it to a SessionRecord and frees it, so a Session*
// is valid only until the session's termination.
struct Session {
  SessionId id = 0;
  PerforatedContainerSpec spec;
  std::string ticket_id;
  std::string admin;

  witos::Pid host_worker = witos::kNoPid;     // host-side ContainIT process
  witos::Pid container_init = witos::kNoPid;  // pid 1 inside the container
  witos::Pid shell = witos::kNoPid;           // admin's shell
  witos::Pid itfs_daemon = witos::kNoPid;     // host-side peer (watchdogged)
  witos::Pid sniffer_daemon = witos::kNoPid;  // host-side peer (watchdogged)

  std::string confs_path;  // vfs-space mountpoint, e.g. "/ConFS-1"
  // The view's ITFS, or an unmonitored view's first shared mount's; null
  // while nothing of the session is monitored.
  std::shared_ptr<witfs::Itfs> itfs;
  std::shared_ptr<witos::MemFs> private_root;  // for kPrivate / kDirs views
  // Gate totals of every ITFS instance of the session.
  std::shared_ptr<witobs::OutcomeTally> itfs_tally = std::make_shared<witobs::OutcomeTally>();
  // Every filesystem mounted for this session alone (the view, its bind
  // mounts, file-sharing mounts): TearDown drops their page-cache blocks.
  std::vector<const witos::Filesystem*> mounted;

  witos::CgroupId cgroup = witos::kRootCgroup;

  uint64_t deploy_duration_ns = 0;
};

// What a session leaves behind once it is closed: exactly the evidence
// ForensicReporter reads, a few hundred bytes.
struct SessionRecord {
  SessionId id = 0;
  std::string ticket_id;
  std::string admin;
  std::string container_class;
  std::string termination_reason;  // empty while the session is live
  // Kernel audit records are attributed to the session by these pids
  // (pids are never reused). Every ITFS record of the session, on its view
  // and on every shared directory, carries host_worker; every network
  // record carries the pid of the process that made the call.
  witos::Pid host_worker = witos::kNoPid;
  witos::Pid shell = witos::kNoPid;
  witos::Pid container_init = witos::kNoPid;
  // ITFS decisions over every mount of the session. (Its broker requests
  // are the chain's broker records naming its ticket.)
  witobs::OutcomeCounts fs_ops;
};

class ContainIt {
 public:
  // `net` may be null for filesystem-only tests.
  ContainIt(witos::Kernel* kernel, witnet::NetStack* net);

  // Watches the broker's process (Attack 7) and registers the on-line
  // file-sharing and network-widening verbs with it.
  void AttachBroker(witbroker::PermissionBroker* broker);

  witos::Result<SessionId> Deploy(const PerforatedContainerSpec& spec,
                                  const std::string& ticket_id, const std::string& admin);

  // The live session `id`, or null.
  Session* FindSession(SessionId id);
  const Session* FindSession(SessionId id) const;
  // The record a terminated session left, or null.
  const SessionRecord* FindRetired(SessionId id) const;
  // The live session serving `ticket_id`, or null.
  Session* FindSessionByTicket(const std::string& ticket_id);

  // A live session's evidence so far, in the form Terminate keeps.
  SessionRecord RecordOf(const Session& session) const;

  // Ends a live session: kills and reaps its processes, removes its mounts,
  // mountpoint and cgroup, drops its cached blocks, keeps its SessionRecord
  // and frees the Session.
  witos::Status Terminate(SessionId id, const std::string& reason);

  // On-line file sharing (paper §5.5): exposes `host_dir` at
  // `container_path` inside a *running* container via nsenter + an ITFS
  // bind mount. Requires the session to have an isolated MNT namespace.
  witos::Status ShareDirectory(SessionId id, const std::string& host_dir,
                               const std::string& container_path);

  // Widens a running container's network view (permission broker mechanism
  // two: "grant the perforated container additional permissions").
  witos::Status AllowNetworkEndpoint(SessionId id, witnet::Ipv4Addr addr, uint16_t port,
                                     const std::string& name);

  using SessionMap = std::map<SessionId, std::unique_ptr<Session>>;
  using RecordMap = std::map<SessionId, SessionRecord>;
  size_t active_sessions() const { return live_.size(); }
  const SessionMap& live_sessions() const { return live_; }
  const RecordMap& retired_sessions() const { return retired_; }

  // Observability wiring: resolves the machine's shared ITFS handles in
  // `registry` once, here; every ITFS instance deployed after this call
  // shares them and adds no series.
  void EnableMetrics(witobs::MetricsRegistry* registry);

 private:
  // Runs the Figure 5 recipe into `session` (clones, mounts, cgroup,
  // namespaces, peer daemons). On failure the session is only partially
  // built; Deploy() unwinds it with TearDown.
  witos::Status BuildSession(Session* session);
  // Reverses whatever BuildSession managed to do: kills and reaps the cloned
  // processes, removes the session's mounts from the host table and its
  // mountpoint from the host root, drops the page-cache blocks of every
  // filesystem mounted for it, and frees its cgroup. Safe on any prefix of
  // the recipe; Terminate uses it on a fully built session.
  void TearDown(Session* session);
  witos::Status SetupFilesystemView(Session* session);
  witos::Status SetupNetworkView(Session* session);
  void OnProcessDeath(witos::Pid pid);
  std::shared_ptr<witfs::Itfs> MakeItfs(Session* session,
                                        std::shared_ptr<witos::Filesystem> lower);

  witos::Kernel* kernel_;
  witnet::NetStack* net_;
  witbroker::PermissionBroker* broker_ = nullptr;
  std::shared_ptr<const witfs::ItfsMetrics> itfs_metrics_;  // null: metrics off
  // Active sessions: the only ones the watchdog, ticket lookup and
  // active_sessions() scan, so their cost is bounded by live load.
  SessionMap live_;
  // What each terminated session left, for forensic reports.
  RecordMap retired_;
  SessionId next_id_ = 1;
  uint32_t next_container_addr_ = 1;
  bool terminating_ = false;  // re-entrancy guard for the watchdog
};

}  // namespace witcontain

#endif  // SRC_CONTAINER_CONTAINIT_H_
