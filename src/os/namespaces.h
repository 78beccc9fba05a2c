// The namespace subsystem: identity, payloads and lifecycle for all seven
// namespace types (the six Linux namespaces plus the paper's new XCL
// exclusion namespace, §5.6).
//
// The registry owns namespace *identity* (ids, refcounts, parentage) for all
// types and the in-kernel payloads for UTS/MNT/PID/IPC/UID/XCL. NET
// semantics live in `witnet`, keyed by the NsId issued here — mirroring how
// the real network stack hangs its state off `struct net`.

#ifndef SRC_OS_NAMESPACES_H_
#define SRC_OS_NAMESPACES_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/os/credentials.h"
#include "src/os/result.h"
#include "src/os/types.h"

namespace witos {

class Filesystem;

enum class NsType : uint8_t {
  kUts = 0,
  kMnt,
  kNet,
  kPid,
  kIpc,
  kUid,
  kXcl,  // exclusion namespace (WatchIT, paper §5.6)
  kMaxValue,
};

inline constexpr size_t kNsTypeCount = static_cast<size_t>(NsType::kMaxValue);

std::string NsTypeName(NsType type);

// clone(2) flags requesting new namespaces.
enum CloneFlags : uint32_t {
  kCloneNewUts = 1u << 0,
  kCloneNewMnt = 1u << 1,
  kCloneNewNet = 1u << 2,
  kCloneNewPid = 1u << 3,
  kCloneNewIpc = 1u << 4,
  kCloneNewUser = 1u << 5,
  kCloneNewXcl = 1u << 6,  // CLONE_XCL from the paper
};

uint32_t CloneFlagFor(NsType type);

// The per-process vector of namespace memberships.
struct NsSet {
  NsId ids[kNsTypeCount] = {};

  NsId Get(NsType type) const { return ids[static_cast<size_t>(type)]; }
  void Set(NsType type, NsId id) { ids[static_cast<size_t>(type)] = id; }
};

// ---------------------------------------------------------------------------
// Payloads

struct UtsNamespace {
  std::string hostname = "localhost";
  std::string domainname = "(none)";
};

// One entry in a mount namespace's mounted-filesystem table (Figure 5 in the
// paper). `fs_root` supports bind mounts: the mount exposes the subtree of
// `fs` rooted at `fs_root` at `mountpoint`.
struct MountEntry {
  std::string source;      // device or fs identifier, for display
  std::string mountpoint;  // normalized absolute VFS path
  std::shared_ptr<Filesystem> fs;
  std::string fs_root = "/";
  bool read_only = false;
};

struct MountNamespace {
  std::vector<MountEntry> table;
};

struct PidNamespace {
  NsId parent = kNoNs;  // kNoNs for the initial namespace
  uint32_t level = 0;
  Pid next_local_pid = 1;
  // host pid -> pid as seen inside this namespace.
  std::map<Pid, Pid> host_to_local;
};

struct IpcNamespace {
  // Named shared-memory segments, keyed by IPC name.
  std::map<std::string, std::string> shm;
};

struct UidMapRange {
  Uid inside_start = 0;
  Uid outside_start = 0;
  uint32_t count = 0;
};

struct UidNamespace {
  NsId parent = kNoNs;
  std::vector<UidMapRange> uid_map;
  std::vector<UidMapRange> gid_map;

  // Maps an in-namespace uid to the host uid; unmapped ids become the
  // overflow uid (65534), as on Linux.
  Uid MapUidToHost(Uid inside) const;
  Gid MapGidToHost(Gid inside) const;
};

inline constexpr Uid kOverflowUid = 65534;

// Exclusion namespace (paper §5.6): a table of excluded directory subtrees
// that member processes cannot access regardless of privileges. A child XCL
// namespace inherits its parent's table at creation.
struct XclNamespace {
  NsId parent = kNoNs;
  std::vector<std::string> excluded;  // normalized absolute VFS paths

  bool IsExcluded(std::string_view normalized_path) const;
};

// ---------------------------------------------------------------------------
// Registry

class NamespaceRegistry {
 public:
  NamespaceRegistry();

  // The initial (host) namespace of each type.
  NsId initial(NsType type) const { return initial_[static_cast<size_t>(type)]; }
  NsSet InitialSet() const;

  // Creates a new namespace of `type`. For MNT the new table is a copy of
  // `copy_from`'s; for PID/UID/XCL the parent linkage (and the XCL exclusion
  // table) comes from `copy_from`. Pass the creator's current namespace.
  NsId Create(NsType type, NsId copy_from);

  // Refcounting: a namespace with no member processes is destroyed.
  void Ref(NsId id);
  void Unref(NsId id);
  bool Exists(NsId id) const;
  NsType TypeOf(NsId id) const;

  // Payload accessors; the id must exist and be of the right type.
  UtsNamespace& Uts(NsId id);
  MountNamespace& Mnt(NsId id);
  PidNamespace& Pidns(NsId id);
  IpcNamespace& Ipc(NsId id);
  UidNamespace& Uidns(NsId id);
  XclNamespace& Xcl(NsId id);
  const XclNamespace& Xcl(NsId id) const;

  // True if `maybe_descendant` is `ancestor` or transitively below it in the
  // PID namespace hierarchy.
  bool PidNsIsDescendant(NsId maybe_descendant, NsId ancestor) const;

  size_t live_count() const { return entries_.size(); }

 private:
  struct Entry {
    NsType type;
    int refcount = 0;
    std::unique_ptr<UtsNamespace> uts;
    std::unique_ptr<MountNamespace> mnt;
    std::unique_ptr<PidNamespace> pid;
    std::unique_ptr<IpcNamespace> ipc;
    std::unique_ptr<UidNamespace> uid;
    std::unique_ptr<XclNamespace> xcl;
  };

  Entry& Lookup(NsId id, NsType type);
  const Entry& Lookup(NsId id, NsType type) const;

  std::map<NsId, Entry> entries_;
  NsId next_id_ = 1;
  NsId initial_[kNsTypeCount] = {};
};

}  // namespace witos

#endif  // SRC_OS_NAMESPACES_H_
