// Process credentials: user/group identity plus a Linux-style capability set.
//
// The capability list is the subset relevant to WatchIT's threat analysis
// (Section 6 of the paper): CAP_SYS_CHROOT, CAP_SYS_PTRACE and CAP_MKNOD are
// the capabilities ContainIT strips from contained superusers, and
// CAP_SYS_RAWMEM is the *new* capability the paper introduces to gate
// /dev/mem and /dev/kmem.

#ifndef SRC_OS_CREDENTIALS_H_
#define SRC_OS_CREDENTIALS_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "src/os/types.h"

namespace witos {

enum class Capability : uint32_t {
  kSysChroot = 0,   // chroot(2)
  kSysPtrace,       // ptrace(2)
  kMknod,           // mknod(2): create device special files
  kSysRawMem,       // NEW (paper §6.1): open /dev/mem, /dev/kmem
  kSysAdmin,        // mount(2), umount(2), setns(2)
  kSysBoot,         // reboot(2)
  kSysModule,       // load kernel modules (TCB change)
  kKill,            // signal processes owned by other users
  kNetAdmin,        // modify routes/firewall
  kChown,           // change file ownership arbitrarily
  kDacOverride,     // bypass file permission checks
  kSetuid,          // change uids
  kSysNice,         // scheduling
  kAuditWrite,      // append to the kernel audit log
  kMaxValue,        // sentinel: number of capabilities
};

std::string CapabilityName(Capability cap);

// A fixed-size capability bitset.
class CapabilitySet {
 public:
  CapabilitySet() = default;
  CapabilitySet(std::initializer_list<Capability> caps);

  // The full capability set a host root process holds.
  static CapabilitySet Full();
  static CapabilitySet Empty();

  bool Has(Capability cap) const;
  void Add(Capability cap);
  void Remove(Capability cap);

  // Set difference: the capabilities present here but absent in `other`.
  CapabilitySet Minus(const CapabilitySet& other) const;
  // Set intersection.
  CapabilitySet Intersect(const CapabilitySet& other) const;
  // True if every capability in this set is present in `other`.
  bool IsSubsetOf(const CapabilitySet& other) const;

  bool empty() const { return bits_ == 0; }
  size_t count() const;
  std::vector<Capability> ToList() const;
  std::string ToString() const;

  friend bool operator==(const CapabilitySet&, const CapabilitySet&) = default;

 private:
  uint32_t bits_ = 0;
};

// Identity + capabilities of a process. In a user-namespaced process, `uid`
// and `gid` are the in-namespace values; the UID namespace maps them to host
// values for permission checks against host-owned objects.
struct Credentials {
  Uid uid = kRootUid;
  Gid gid = kRootGid;
  std::vector<Gid> supplementary_gids;
  CapabilitySet caps = CapabilitySet::Full();

  bool HasCap(Capability cap) const { return caps.Has(cap); }
  bool InGroup(Gid g) const;
};

// POSIX rwx permission check of `cred` against an object owned by
// (owner, group) with `mode`, requesting `want` (AccessBits mask).
// CAP_DAC_OVERRIDE bypasses the check, as on Linux.
bool CheckPosixAccess(const Credentials& cred, Uid owner, Gid group, Mode mode, uint32_t want);

}  // namespace witos

#endif  // SRC_OS_CREDENTIALS_H_
