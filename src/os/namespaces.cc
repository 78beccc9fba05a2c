#include "src/os/namespaces.h"

#include <cassert>

#include "src/os/path.h"

namespace witos {

std::string NsTypeName(NsType type) {
  switch (type) {
    case NsType::kUts:
      return "uts";
    case NsType::kMnt:
      return "mnt";
    case NsType::kNet:
      return "net";
    case NsType::kPid:
      return "pid";
    case NsType::kIpc:
      return "ipc";
    case NsType::kUid:
      return "user";
    case NsType::kXcl:
      return "xcl";
    case NsType::kMaxValue:
      break;
  }
  return "?";
}

uint32_t CloneFlagFor(NsType type) {
  switch (type) {
    case NsType::kUts:
      return kCloneNewUts;
    case NsType::kMnt:
      return kCloneNewMnt;
    case NsType::kNet:
      return kCloneNewNet;
    case NsType::kPid:
      return kCloneNewPid;
    case NsType::kIpc:
      return kCloneNewIpc;
    case NsType::kUid:
      return kCloneNewUser;
    case NsType::kXcl:
      return kCloneNewXcl;
    case NsType::kMaxValue:
      break;
  }
  return 0;
}

Uid UidNamespace::MapUidToHost(Uid inside) const {
  for (const auto& range : uid_map) {
    if (inside >= range.inside_start && inside < range.inside_start + range.count) {
      return range.outside_start + (inside - range.inside_start);
    }
  }
  return kOverflowUid;
}

Gid UidNamespace::MapGidToHost(Gid inside) const {
  for (const auto& range : gid_map) {
    if (inside >= range.inside_start && inside < range.inside_start + range.count) {
      return range.outside_start + (inside - range.inside_start);
    }
  }
  return kOverflowUid;
}

bool XclNamespace::IsExcluded(std::string_view normalized_path) const {
  for (const auto& prefix : excluded) {
    if (PathIsUnder(normalized_path, prefix)) {
      return true;
    }
  }
  return false;
}

NamespaceRegistry::NamespaceRegistry() {
  for (size_t i = 0; i < kNsTypeCount; ++i) {
    auto type = static_cast<NsType>(i);
    initial_[i] = Create(type, kNoNs);
    // The initial namespaces are permanent: pin them.
    Ref(initial_[i]);
  }
  // The initial UID namespace is the identity mapping over all uids.
  Uidns(initial(NsType::kUid)).uid_map = {{0, 0, 4294000000u}};
  Uidns(initial(NsType::kUid)).gid_map = {{0, 0, 4294000000u}};
}

NsSet NamespaceRegistry::InitialSet() const {
  NsSet set;
  for (size_t i = 0; i < kNsTypeCount; ++i) {
    set.ids[i] = initial_[i];
  }
  return set;
}

NsId NamespaceRegistry::Create(NsType type, NsId copy_from) {
  NsId id = next_id_++;
  Entry entry;
  entry.type = type;
  switch (type) {
    case NsType::kUts: {
      entry.uts = std::make_unique<UtsNamespace>();
      if (copy_from != kNoNs) {
        *entry.uts = Uts(copy_from);
      }
      break;
    }
    case NsType::kMnt: {
      entry.mnt = std::make_unique<MountNamespace>();
      if (copy_from != kNoNs) {
        // CLONE_NEWNS semantics: the new namespace starts as a copy of the
        // creator's mount table and diverges from there.
        entry.mnt->table = Mnt(copy_from).table;
      }
      break;
    }
    case NsType::kNet: {
      // Identity only; witnet owns the payload.
      break;
    }
    case NsType::kPid: {
      entry.pid = std::make_unique<PidNamespace>();
      if (copy_from != kNoNs) {
        entry.pid->parent = copy_from;
        entry.pid->level = Pidns(copy_from).level + 1;
      }
      break;
    }
    case NsType::kIpc: {
      entry.ipc = std::make_unique<IpcNamespace>();
      break;
    }
    case NsType::kUid: {
      entry.uid = std::make_unique<UidNamespace>();
      if (copy_from != kNoNs) {
        entry.uid->parent = copy_from;
      }
      break;
    }
    case NsType::kXcl: {
      entry.xcl = std::make_unique<XclNamespace>();
      if (copy_from != kNoNs) {
        // "A newly created namespace instance inherits its parent's
        // exclusion table." (paper §5.6)
        entry.xcl->parent = copy_from;
        entry.xcl->excluded = Xcl(copy_from).excluded;
      }
      break;
    }
    case NsType::kMaxValue:
      assert(false);
  }
  entries_.emplace(id, std::move(entry));
  return id;
}

void NamespaceRegistry::Ref(NsId id) {
  auto it = entries_.find(id);
  assert(it != entries_.end());
  ++it->second.refcount;
}

void NamespaceRegistry::Unref(NsId id) {
  auto it = entries_.find(id);
  assert(it != entries_.end());
  if (--it->second.refcount <= 0) {
    entries_.erase(it);
  }
}

bool NamespaceRegistry::Exists(NsId id) const { return entries_.count(id) > 0; }

NsType NamespaceRegistry::TypeOf(NsId id) const {
  auto it = entries_.find(id);
  assert(it != entries_.end());
  return it->second.type;
}

NamespaceRegistry::Entry& NamespaceRegistry::Lookup(NsId id, NsType type) {
  auto it = entries_.find(id);
  assert(it != entries_.end() && it->second.type == type);
  (void)type;
  return it->second;
}

const NamespaceRegistry::Entry& NamespaceRegistry::Lookup(NsId id, NsType type) const {
  auto it = entries_.find(id);
  assert(it != entries_.end() && it->second.type == type);
  (void)type;
  return it->second;
}

UtsNamespace& NamespaceRegistry::Uts(NsId id) { return *Lookup(id, NsType::kUts).uts; }
MountNamespace& NamespaceRegistry::Mnt(NsId id) { return *Lookup(id, NsType::kMnt).mnt; }
PidNamespace& NamespaceRegistry::Pidns(NsId id) { return *Lookup(id, NsType::kPid).pid; }
IpcNamespace& NamespaceRegistry::Ipc(NsId id) { return *Lookup(id, NsType::kIpc).ipc; }
UidNamespace& NamespaceRegistry::Uidns(NsId id) { return *Lookup(id, NsType::kUid).uid; }
XclNamespace& NamespaceRegistry::Xcl(NsId id) { return *Lookup(id, NsType::kXcl).xcl; }
const XclNamespace& NamespaceRegistry::Xcl(NsId id) const {
  return *Lookup(id, NsType::kXcl).xcl;
}

bool NamespaceRegistry::PidNsIsDescendant(NsId maybe_descendant, NsId ancestor) const {
  NsId cur = maybe_descendant;
  while (cur != kNoNs) {
    if (cur == ancestor) {
      return true;
    }
    auto it = entries_.find(cur);
    if (it == entries_.end() || it->second.type != NsType::kPid) {
      return false;
    }
    cur = it->second.pid->parent;
  }
  return false;
}

}  // namespace witos
