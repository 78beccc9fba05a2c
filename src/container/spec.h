// PerforatedContainerSpec: the declarative description of one perforated
// container — which namespaces are isolated vs. shared with the host (the
// "holes"), what the filesystem and network views contain, which
// capabilities the contained superuser keeps, and how the boundary is
// monitored (paper §4, §5.2, Table 3).

#ifndef SRC_CONTAINER_SPEC_H_
#define SRC_CONTAINER_SPEC_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/fs/compiled_policy.h"
#include "src/fs/itfs_policy.h"
#include "src/net/ip.h"
#include "src/net/sniffer.h"
#include "src/os/credentials.h"
#include "src/os/namespaces.h"

namespace witcontain {

// The container's view of the filesystem.
struct FsView {
  enum class Kind {
    kPrivate,    // fully isolated: fresh private root (T-11 style)
    kWholeRoot,  // the host's entire root filesystem through ITFS (T-6 style)
    kDirs,       // private root + selected host directories through ITFS
  };

  Kind kind = Kind::kPrivate;
  // For kDirs: host directories exposed (vfs-space paths).
  std::vector<std::string> visible_dirs;
  // ITFS rules applied on the exposed view.
  witfs::ItfsPolicy policy;
  // Extension-only vs. content-signature inspection.
  witfs::InspectionMode inspection = witfs::InspectionMode::kExtensionOnly;
  // When false the exposure bypasses ITFS (never used by WatchIT policy;
  // kept for the Figure 9 baseline).
  bool monitor = true;
  // Pass-through read/write (paper §7.3): after ITFS approves an open, data
  // operations bypass the userspace daemon. Faster, but individual
  // reads/writes are no longer in the ITFS log.
  bool passthrough = false;

  // Optional mined shadow policy (witmine, DESIGN.md §17): evaluated by
  // ITFS beside the installed policy on every gated operation, counting
  // would-block / would-allow divergences without ever changing a verdict.
  // Null = no shadow. Installed per class via witmine::InstallShadow.
  std::shared_ptr<const witfs::CompiledPolicy> shadow;

  // The compile-then-install flow: folds `inspection` into a copy of
  // `policy`, compiles it, and keeps the result with the view, tagged with
  // the policy revision and inspection mode it was built from. Returns
  // false, compiling nothing, when the kept policy is still current. The
  // builder `policy` above stays the declarative source of truth. Compile
  // warnings (duplicate names, shadowed rules) land in `diagnostics` when
  // non-null.
  //
  // ImageRepository compiles every image this way at set-up, so each
  // session and file-sharing mount of an image runs the one CompiledPolicy
  // that travels with the spec. A spec edited after lookup, or built by
  // hand, no longer matches its tags and ContainIT compiles it on deploy.
  bool Compile(std::vector<witfs::CompileDiagnostic>* diagnostics = nullptr);

  // The kept compiled policy when it was built from the current `policy`
  // and `inspection`, else null: a stale policy is never handed out.
  std::shared_ptr<const witfs::CompiledPolicy> compiled() const {
    bool current = compiled_revision_ == policy.revision() && compiled_inspection_ == inspection;
    return current ? compiled_ : nullptr;
  }

 private:
  std::shared_ptr<const witfs::CompiledPolicy> compiled_;
  uint64_t compiled_revision_ = 0;
  witfs::InspectionMode compiled_inspection_ = witfs::InspectionMode::kExtensionOnly;
};

struct AllowedEndpoint {
  witnet::Ipv4Addr addr;
  uint16_t port = 0;  // 0 = any
  std::string name;   // "license-server", "software-repo", ...
};

// The container's view of the network.
struct NetView {
  // True: the NET namespace is shared with the host — the perforation of
  // Figure 1b (useful for repairing connectivity, T-4).
  bool share_host = false;
  // When not shared: the endpoints the container may reach (Table 3's
  // network-access columns). Empty = fully isolated.
  std::vector<AllowedEndpoint> allowed;
  // Attach the IDS sniffer to the container's devices.
  bool sniff = true;
  // Destinations exempt from the sniffer's whitelist rule (e.g. the
  // whitelisted software-download websites of T-6).
  std::vector<witnet::Cidr> sniffer_whitelist;
  // Organization-specific IDS rules (from /etc/watchit/ids.rules) appended
  // to the canned exfiltration defences.
  std::vector<witnet::SnifferRule> extra_sniffer_rules;
};

struct PerforatedContainerSpec {
  std::string name;
  std::string hostname = "ITContainer";

  // Namespace types that get a NEW namespace. Types absent from this set
  // are shared with the host — those are the holes. (A traditional
  // container isolates all of them; Figure 1.)
  std::set<witos::NsType> isolate = {witos::NsType::kUts,  witos::NsType::kMnt,
                                     witos::NsType::kNet,  witos::NsType::kPid,
                                     witos::NsType::kIpc,  witos::NsType::kUid};

  FsView fs;
  NetView net;

  // The process-management permission set (Table 3): (1) see and kill the
  // host's processes, (2) restart system services, (3) reboot the machine.
  // Implemented as: PID namespace shared + CAP_KILL + CAP_SYS_BOOT.
  bool process_mgmt = false;

  // When the host MNT namespace is shared, these host subtrees are excluded
  // via the XCL namespace (paper §5.6).
  std::vector<std::string> xcl_exclusions;

  // "A perforated container may map a contained user to a privileged one on
  // the host, since it may be required to perform operations like service
  // restarts or system reboots" (§6.1). When false, contained root maps to
  // an unprivileged host uid instead (rootless mode): the blast radius of a
  // container compromise shrinks to world-accessible files, at the price of
  // losing privileged host operations.
  bool map_root_to_host_root = true;

  // pids-cgroup limit for the whole session: a contained admin cannot
  // fork-bomb the host. 0 = unlimited.
  uint32_t max_processes = 64;

  // Extra capabilities granted beyond the safe base set. ContainIT always
  // strips CAP_SYS_CHROOT, CAP_SYS_PTRACE, CAP_MKNOD, CAP_SYS_RAWMEM,
  // CAP_SYS_MODULE and CAP_SYS_ADMIN regardless (Table 1 defences 1-4).
  witos::CapabilitySet extra_caps;

  bool IsolatesNs(witos::NsType type) const { return isolate.count(type) > 0; }

  // A traditional (fully isolated) container, for comparison baselines.
  static PerforatedContainerSpec Traditional(std::string name);
};

// The capabilities ContainIT removes from every contained user.
const witos::CapabilitySet& ForbiddenCaps();

}  // namespace witcontain

#endif  // SRC_CONTAINER_SPEC_H_
