// VFS property tests: longest-prefix mount resolution against an oracle,
// bind-mount aliasing, chroot confinement over randomized path walks, and
// Vfs::Resolve checked call for call against the reference resolver.

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <random>
#include <sstream>
#include <vector>

#include "src/os/kernel.h"
#include "src/os/path.h"
#include "tests/vfs_reference.h"

namespace witos {
namespace {

// Builds a nested mount tree; every mounted fs carries a marker file naming
// it. The oracle: for any path P, the serving fs is the mount with the
// longest mountpoint prefix of P.
class MountTreeTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(MountTreeTest, LongestPrefixWinsEverywhere) {
  Kernel kernel("host");
  std::mt19937 rng(GetParam());

  // Candidate mountpoints, nested several levels deep.
  std::vector<std::string> mountpoints = {"/a",          "/a/b",     "/a/b/c", "/a/x",
                                          "/d",          "/d/e",     "/f",     "/a/b/c/g",
                                          "/d/e/h",      "/f/i"};
  std::shuffle(mountpoints.begin(), mountpoints.end(), rng);
  // Mount a random prefix-subset (keeping parents before children so the
  // mountpoint directories exist at mount time).
  std::uniform_int_distribution<size_t> count_dist(3, mountpoints.size());
  size_t count = count_dist(rng);
  std::vector<std::string> chosen(mountpoints.begin(),
                                  mountpoints.begin() + static_cast<long>(count));
  std::sort(chosen.begin(), chosen.end(),
            [](const std::string& a, const std::string& b) { return a.size() < b.size(); });

  std::map<std::string, std::shared_ptr<MemFs>> mounted;  // mountpoint -> fs
  for (const auto& mp : chosen) {
    // Ensure the mountpoint directory exists in whatever fs currently serves
    // the parent path.
    std::string cur;
    for (const auto& comp : SplitPath(mp)) {
      cur += "/" + comp;
      (void)kernel.MkDir(1, cur);
    }
    auto fs = std::make_shared<MemFs>("tmpfs");
    fs->ProvisionFile("/marker", "fs:" + mp);
    // Provision nested mountpoint dirs inside this fs too.
    for (const auto& other : mountpoints) {
      if (PathIsUnder(other, mp) && other != mp) {
        fs->ProvisionDir(RebasePath(other, mp, "/"));
      }
    }
    ASSERT_TRUE(kernel.Mount(1, fs, mp, "tmpfs").ok()) << mp;
    mounted[mp] = fs;
  }

  // Oracle check: for every mountpoint, the marker visible at
  // <mp>/marker must be the one of the longest mounted prefix of that path.
  for (const auto& probe : mountpoints) {
    std::string marker_path = probe + "/marker";
    std::string best;
    for (const auto& [mp, fs] : mounted) {
      if (PathIsUnder(marker_path, mp) && mp.size() > best.size()) {
        best = mp;
      }
    }
    auto content = kernel.ReadFile(1, marker_path);
    if (best.empty()) {
      // Served by the root fs: no marker file there.
      EXPECT_FALSE(content.ok()) << marker_path;
      continue;
    }
    std::string expected_rel = RebasePath(marker_path, best, "/");
    if (expected_rel == "/marker") {
      ASSERT_TRUE(content.ok()) << marker_path;
      EXPECT_EQ(*content, "fs:" + best) << marker_path;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MountTreeTest, ::testing::Range(1u, 11u));

TEST(VfsPropertyTest, BindMountAliasesSourceExactly) {
  Kernel kernel("host");
  std::mt19937 rng(99);
  kernel.root_fs().ProvisionDir("/src/a/b");
  kernel.root_fs().ProvisionDir("/view");
  ASSERT_TRUE(kernel.BindMount(1, kernel.root_fs_ptr(), "/src", "/view", "bind").ok());
  // Any write through either name is visible through the other.
  std::uniform_int_distribution<int> coin(0, 1);
  for (int i = 0; i < 30; ++i) {
    std::string rel = "/a/b/f" + std::to_string(i);
    std::string via_src = "/src" + rel;
    std::string via_view = "/view" + rel;
    std::string content = "round-" + std::to_string(i);
    if (coin(rng) == 0) {
      ASSERT_TRUE(kernel.WriteFile(1, via_src, content).ok());
    } else {
      ASSERT_TRUE(kernel.WriteFile(1, via_view, content).ok());
    }
    EXPECT_EQ(*kernel.ReadFile(1, via_src), content);
    EXPECT_EQ(*kernel.ReadFile(1, via_view), content);
  }
}

// Chroot confinement property: no path expression a jailed process can
// utter resolves outside its jail subtree.
class JailEscapeSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(JailEscapeSweep, PathNeverEscapes) {
  Kernel kernel("host");
  kernel.root_fs().ProvisionFile("/jail/inside.txt", "in");
  kernel.root_fs().ProvisionFile("/host-secret.txt", "out");
  // A symlink inside the jail pointing above it (absolute + relative).
  kernel.root_fs().ProvisionSymlink("/jail/abs-up", "/host-secret.txt");
  kernel.root_fs().ProvisionSymlink("/jail/rel-up", "../host-secret.txt");
  Pid jailed = *kernel.Clone(1, "jailed", 0);
  ASSERT_TRUE(kernel.Chroot(jailed, "/jail").ok());

  auto content = kernel.ReadFile(jailed, GetParam());
  // Either the path fails to resolve, or it resolves to in-jail content —
  // never to the host secret.
  if (content.ok()) {
    EXPECT_NE(*content, "out") << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Expressions, JailEscapeSweep,
    ::testing::Values("/../host-secret.txt", "/../../host-secret.txt",
                      "/./../host-secret.txt", "/abs-up", "/rel-up",
                      "/inside.txt/../../host-secret.txt", "/..", "//../host-secret.txt",
                      "/a/../../host-secret.txt"));

// Filesystem decorator that logs every call's method, path and uid into a
// log shared by all mounted filesystems, so two resolvers can be compared
// call for call.
class RecordingFs : public Filesystem {
 public:
  RecordingFs(std::shared_ptr<Filesystem> lower, std::string name, std::vector<std::string>* log)
      : lower_(std::move(lower)), name_(std::move(name)), log_(log) {}

  std::string FsType() const override { return lower_->FsType(); }
  Result<Stat> Open(const std::string& path, uint32_t flags, Mode mode,
                    const Credentials& cred) override {
    Note("open", path, cred);
    return lower_->Open(path, flags, mode, cred);
  }
  Result<size_t> ReadAt(const std::string& path, uint64_t offset, size_t size, std::string* out,
                        const Credentials& cred) override {
    Note("read", path, cred);
    return lower_->ReadAt(path, offset, size, out, cred);
  }
  Result<size_t> WriteAt(const std::string& path, uint64_t offset, const std::string& data,
                         const Credentials& cred) override {
    Note("write", path, cred);
    return lower_->WriteAt(path, offset, data, cred);
  }
  Status Truncate(const std::string& path, uint64_t size, const Credentials& cred) override {
    Note("truncate", path, cred);
    return lower_->Truncate(path, size, cred);
  }
  Result<Stat> GetAttr(const std::string& path, const Credentials& cred) override {
    Note("getattr", path, cred);
    return lower_->GetAttr(path, cred);
  }
  Result<std::vector<DirEntry>> ReadDir(const std::string& path,
                                        const Credentials& cred) override {
    Note("readdir", path, cred);
    return lower_->ReadDir(path, cred);
  }
  Status MkDir(const std::string& path, Mode mode, const Credentials& cred) override {
    Note("mkdir", path, cred);
    return lower_->MkDir(path, mode, cred);
  }
  Status Unlink(const std::string& path, const Credentials& cred) override {
    Note("unlink", path, cred);
    return lower_->Unlink(path, cred);
  }
  Status RmDir(const std::string& path, const Credentials& cred) override {
    Note("rmdir", path, cred);
    return lower_->RmDir(path, cred);
  }
  Status Rename(const std::string& from, const std::string& to,
                const Credentials& cred) override {
    Note("rename", from + " " + to, cred);
    return lower_->Rename(from, to, cred);
  }
  Status Chmod(const std::string& path, Mode mode, const Credentials& cred) override {
    Note("chmod", path, cred);
    return lower_->Chmod(path, mode, cred);
  }
  Status Chown(const std::string& path, Uid uid, Gid gid, const Credentials& cred) override {
    Note("chown", path, cred);
    return lower_->Chown(path, uid, gid, cred);
  }
  Status MkNod(const std::string& path, FileType type, DeviceId rdev, Mode mode,
               const Credentials& cred) override {
    Note("mknod", path, cred);
    return lower_->MkNod(path, type, rdev, mode, cred);
  }
  Status SymLink(const std::string& target, const std::string& linkpath,
                 const Credentials& cred) override {
    Note("symlink", linkpath, cred);
    return lower_->SymLink(target, linkpath, cred);
  }
  Result<std::string> ReadLink(const std::string& path, const Credentials& cred) override {
    Note("readlink", path, cred);
    return lower_->ReadLink(path, cred);
  }
  Result<FsStats> StatFs() const override { return lower_->StatFs(); }

 private:
  void Note(const char* method, const std::string& path, const Credentials& cred) {
    log_->push_back(name_ + " " + method + " " + path + " uid=" + std::to_string(cred.uid));
  }

  std::shared_ptr<Filesystem> lower_;
  std::string name_;
  std::vector<std::string>* log_;
};

// Components the generated trees and expressions draw from. "l*" names are
// symlinks when the tree generator places them.
const std::vector<std::string> kTreeNames = {"a", "b", "c", "jail", "m", "f", "g", "l1", "l2"};
const std::vector<std::string> kExprNames = {"a", "b",  "c",  "jail", "m",      "f", "g",
                                             "l1", "l2", "..", "..",   "missing", ".", ""};

std::string RandomExpr(std::mt19937& rng, size_t max_len) {
  std::string out = rng() % 10 < 6 ? "/" : "";
  size_t len = rng() % (max_len + 1);
  for (size_t i = 0; i < len; ++i) {
    if (i > 0) {
      out += '/';
    }
    out += kExprNames[rng() % kExprNames.size()];
  }
  if (rng() % 8 == 0) {
    out += '/';
  }
  return out;
}

// Random directories, files and symlinks down to depth 3. Symlink targets
// are random expressions, so they come out absolute or relative, chained,
// dangling, looping, or climbing past any root.
void Populate(MemFs& fs, std::mt19937& rng, const std::string& dir, int depth) {
  for (const auto& name : kTreeNames) {
    std::string path = dir == "/" ? "/" + name : dir + "/" + name;
    const auto roll = rng() % 10;
    if (name[0] == 'l') {
      if (roll < 8) {
        fs.ProvisionSymlink(path, RandomExpr(rng, 4));
      }
    } else if (name == "f" || name == "g") {
      if (roll < 7) {
        fs.ProvisionFile(path, name);
      }
    } else if (depth < 3 && roll < 6) {
      fs.ProvisionDir(path);
      if (rng() % 6 == 0) {
        // Search permission for root only: uid 1000 walks fail here.
        (void)fs.Chmod(path, 0700, Credentials{});
      }
      Populate(fs, rng, path, depth + 1);
    }
  }
}

std::string Describe(const Result<ResolvedPath>& r,
                     const std::map<const Filesystem*, std::string>& names) {
  if (!r.ok()) {
    return "error " + ErrName(r.error());
  }
  auto it = names.find(r->fs.get());
  std::ostringstream out;
  out << "jail=" << r->jail_path << " vfs=" << r->vfs_path
      << " fs=" << (it == names.end() ? "?" : it->second) << " fs_path=" << r->fs_path
      << " ro=" << r->read_only << " exists=" << r->exists;
  return out.str();
}

std::string DescribeAudit(const AuditLog& audit, size_t from) {
  std::string out;
  const std::vector<AuditRecord> records = audit.Snapshot();
  for (size_t i = from; i < records.size(); ++i) {
    const AuditRecord& rec = records[i];
    out += AuditEventName(rec.event) + " pid=" + std::to_string(rec.pid) +
           " uid=" + std::to_string(rec.uid) + " " + rec.detail + "\n";
  }
  return out;
}

// Vfs::Resolve against the reference resolver over seeded random worlds:
// nested and bind mounts (a non-"/" fs_root, one inside the chroot root, a
// namespace without a root mount), chroot roots, XCL exclusions, search
// permissions, and symlink chains longer than the 40-link limit. Both must
// agree on the outcome, the audit records appended and the exact sequence
// of filesystem calls — which is what keeps the sim-time charges, FUSE
// crossings and op counts of every path syscall unchanged.
TEST(VfsDifferentialTest, ResolveMatchesReferenceCallForCall) {
  constexpr uint32_t kSeeds = 8;
  constexpr int kExprsPerSeed = 700;
  size_t resolutions = 0;
  size_t mismatches = 0;
  std::map<std::string, size_t> outcomes;
  for (uint32_t seed = 1; seed <= kSeeds; ++seed) {
    std::mt19937 rng(seed);
    NamespaceRegistry registry;
    AuditLog audit;
    SimClock clock;
    Vfs vfs(&registry, &audit, &clock);
    std::vector<std::string> calls;

    std::vector<std::shared_ptr<MemFs>> disks;
    std::vector<std::shared_ptr<RecordingFs>> fses;
    std::map<const Filesystem*, std::string> names;
    for (int i = 0; i < 3; ++i) {
      disks.push_back(std::make_shared<MemFs>());
      Populate(*disks.back(), rng, "/", 0);
      fses.push_back(std::make_shared<RecordingFs>(disks.back(), "fs" + std::to_string(i),
                                                   &calls));
      names[fses.back().get()] = "fs" + std::to_string(i);
    }
    // A chain of 45 relative links: /chain/c0 crosses the 40-link limit,
    // /chain/c5 lands exactly on it.
    disks[0]->ProvisionDir("/chain");
    for (int i = 0; i < 45; ++i) {
      disks[0]->ProvisionSymlink("/chain/c" + std::to_string(i),
                                 i == 44 ? "/a" : "c" + std::to_string(i + 1));
    }
    disks[0]->ProvisionSymlink("/loop1", "loop2");
    disks[0]->ProvisionSymlink("/loop2", "/loop1");

    struct Candidate {
      const char* mountpoint;
      size_t disk;
      const char* fs_root;
    };
    const std::vector<Candidate> candidates = {
        {"/a/m", 1, "/"},    {"/a/m/b", 2, "/"},  {"/jail/m", 1, "/a"},
        {"/c", 0, "/jail"},  {"/jail/a/m", 2, "/b"}, {"/m", 2, "/a/b"}};
    const NsId mnt = registry.initial(NsType::kMnt);
    const NsId bare_mnt = registry.Create(NsType::kMnt, kNoNs);  // no root mount
    registry.Ref(bare_mnt);
    ASSERT_TRUE(vfs.AddMount(mnt, {"disk0", "/", fses[0], "/", false}).ok());
    for (const auto& c : candidates) {
      for (NsId ns : {mnt, bare_mnt}) {
        if (rng() % 3 != 0) {
          ASSERT_TRUE(
              vfs.AddMount(ns, {"bind", c.mountpoint, fses[c.disk], c.fs_root, rng() % 4 == 0})
                  .ok());
        }
      }
    }
    const NsId xcl = registry.Create(NsType::kXcl, registry.initial(NsType::kXcl));
    registry.Ref(xcl);
    for (const char* excluded : {"/a/b", "/jail/c", "/a/m/b", "/jail", "/c/a", "/jail/m/f"}) {
      if (rng() % 3 == 0) {
        registry.Xcl(xcl).excluded.push_back(excluded);
      }
    }

    const std::vector<std::string> roots = {"/", "/", "/jail", "/a/m", "/jail/m"};
    const std::vector<std::string> cwds = {"/", "/a", "/a/b", "/missing", "/f", "/jail", "/l1"};
    const std::vector<std::string> specials = {"/chain/c0", "/chain/c4", "/chain/c5",
                                               "/chain/c30/x", "/loop1", "loop2/x",
                                               "/../../..", "..//./../f", "//", ""};
    Credentials user;
    user.uid = 1000;
    user.gid = 1000;
    user.caps = CapabilitySet::Empty();
    for (int e = 0; e < kExprsPerSeed; ++e) {
      VfsContext ctx;
      ctx.mnt_ns = rng() % 6 == 0 ? bare_mnt : mnt;
      ctx.xcl_ns = rng() % 3 == 0 ? kNoNs : xcl;
      ctx.root = roots[rng() % roots.size()];
      ctx.cwd = cwds[rng() % cwds.size()];
      ctx.cred = rng() % 3 == 0 ? user : Credentials{};
      ctx.pid = 7;
      const std::string expr =
          rng() % 12 == 0 ? specials[rng() % specials.size()] : RandomExpr(rng, 7);
      for (int flags = 0; flags < 4; ++flags) {
        const bool follow_final = (flags & 1) != 0;
        const bool allow_missing = (flags & 2) != 0;
        calls.clear();
        const size_t audit_before = audit.size();
        auto want = reference::Resolve(&registry, &audit, ctx, expr, follow_final, allow_missing);
        const std::vector<std::string> want_calls = calls;
        const std::string want_audit = DescribeAudit(audit, audit_before);
        calls.clear();
        const size_t audit_mid = audit.size();
        auto got = vfs.Resolve(ctx, expr, follow_final, allow_missing);
        const std::string got_audit = DescribeAudit(audit, audit_mid);
        resolutions += 2;
        const std::string want_text = Describe(want, names);
        const std::string got_text = Describe(got, names);
        const bool same = want_text == got_text && (!want.ok() || want->fs == got->fs) &&
                          want_calls == calls && want_audit == got_audit;
        ++outcomes[want.ok() ? (want->exists ? "resolved" : "resolved-missing")
                             : ErrName(want.error())];
        if (!want_audit.empty()) {
          ++outcomes["xcl-audited"];
        }
        for (const auto& call : want_calls) {
          if (call.find(" readlink ") != std::string::npos) {
            ++outcomes["readlink"];
          }
        }
        if (!same && ++mismatches <= 5) {
          std::string want_log;
          std::string got_log;
          for (const auto& c : want_calls) want_log += "  " + c + "\n";
          for (const auto& c : calls) got_log += "  " + c + "\n";
          ADD_FAILURE() << "seed " << seed << " root=" << ctx.root << " cwd=" << ctx.cwd
                        << " uid=" << ctx.cred.uid << " expr='" << expr
                        << "' follow=" << follow_final << " allow_missing=" << allow_missing
                        << "\n reference: " << want_text << "\n" << want_log << want_audit
                        << " resolver:  " << got_text << "\n" << got_log << got_audit;
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_GE(resolutions, 20000u);
  // The generators must reach every outcome class, or agreement is vacuous.
  for (const char* outcome : {"resolved", "resolved-missing", "ENOENT", "ENOTDIR", "ELOOP",
                              "EACCES", "xcl-audited", "readlink"}) {
    EXPECT_GT(outcomes[outcome], 0u) << outcome;
  }
  std::string summary;
  for (const auto& [outcome, count] : outcomes) {
    summary += " " + outcome + "=" + std::to_string(count);
  }
  std::printf("resolutions=%zu outcomes:%s\n", resolutions, summary.c_str());
}

}  // namespace
}  // namespace witos
