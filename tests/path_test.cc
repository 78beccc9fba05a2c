#include "src/os/path.h"

#include <gtest/gtest.h>

#include <random>
#include <vector>

namespace witos {
namespace {

TEST(PathTest, SplitDropsDotAndEmpty) {
  EXPECT_EQ(SplitPath("/a//b/./c"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(SplitPath("/").empty());
  EXPECT_TRUE(SplitPath("").empty());
  EXPECT_EQ(SplitPath("a/b"), (std::vector<std::string>{"a", "b"}));
}

TEST(PathTest, SplitKeepsDotDot) {
  EXPECT_EQ(SplitPath("/a/../b"), (std::vector<std::string>{"a", "..", "b"}));
}

TEST(PathTest, ComponentsReadInPlaceWithTheUnreadRest) {
  PathComponents comps("//a/./.hidden/..//...//");
  ASSERT_FALSE(comps.done());
  EXPECT_EQ(comps.Next(), "a");
  EXPECT_EQ(comps.rest(), ".hidden/..//...//");
  EXPECT_EQ(comps.Next(), ".hidden");
  EXPECT_EQ(comps.Next(), "..");
  EXPECT_EQ(comps.Next(), "...");
  EXPECT_TRUE(comps.done());
  EXPECT_TRUE(comps.rest().empty());
  EXPECT_TRUE(PathComponents("/././/").done());
  EXPECT_TRUE(PathComponents().done());
}

TEST(PathTest, NormalizeBasics) {
  EXPECT_EQ(NormalizePath("/"), "/");
  EXPECT_EQ(NormalizePath(""), "/");
  EXPECT_EQ(NormalizePath("/a/b/"), "/a/b");
  EXPECT_EQ(NormalizePath("//a///b"), "/a/b");
  EXPECT_EQ(NormalizePath("/a/./b"), "/a/b");
}

TEST(PathTest, NormalizeClampsDotDotAtRoot) {
  EXPECT_EQ(NormalizePath("/.."), "/");
  EXPECT_EQ(NormalizePath("/../../etc"), "/etc");
  EXPECT_EQ(NormalizePath("/a/../../b"), "/b");
  EXPECT_EQ(NormalizePath("/a/b/../c"), "/a/c");
}

TEST(PathTest, ResolveRelativeAgainstCwd) {
  EXPECT_EQ(ResolvePath("/home/user", "docs"), "/home/user/docs");
  EXPECT_EQ(ResolvePath("/home/user", "../other"), "/home/other");
  EXPECT_EQ(ResolvePath("/home/user", "/abs"), "/abs");
}

TEST(PathTest, JoinHandlesSlashes) {
  EXPECT_EQ(JoinPath("/a", "b"), "/a/b");
  EXPECT_EQ(JoinPath("/a/", "/b"), "/a/b");
  EXPECT_EQ(JoinPath("/a/", "b"), "/a/b");
  EXPECT_EQ(JoinPath("/a", "/b"), "/a/b");
  EXPECT_EQ(JoinPath("", "b"), "b");
  EXPECT_EQ(JoinPath("/a", ""), "/a");
}

TEST(PathTest, PathIsUnder) {
  EXPECT_TRUE(PathIsUnder("/a/b", "/a"));
  EXPECT_TRUE(PathIsUnder("/a", "/a"));
  EXPECT_TRUE(PathIsUnder("/anything", "/"));
  EXPECT_FALSE(PathIsUnder("/ab", "/a"));  // no partial-component match
  EXPECT_FALSE(PathIsUnder("/a", "/a/b"));
}

TEST(PathTest, RebasePath) {
  EXPECT_EQ(RebasePath("/ConFS/etc/passwd", "/ConFS", "/"), "/etc/passwd");
  EXPECT_EQ(RebasePath("/etc/passwd", "/", "/jail"), "/jail/etc/passwd");
  EXPECT_EQ(RebasePath("/ConFS", "/ConFS", "/"), "/");
  EXPECT_EQ(RebasePath("/a/x", "/a", "/b/c"), "/b/c/x");
}

TEST(PathTest, RebasePathIntoOverwritesTheBuffer) {
  std::string buf = "/stale/contents/longer/than/the/result";
  RebasePathInto(&buf, "/mnt/x/y", "/mnt", "/data");
  EXPECT_EQ(buf, "/data/x/y");
  RebasePathInto(&buf, "/mnt", "/mnt", "/");
  EXPECT_EQ(buf, "/");
  RebasePathInto(&buf, "/other", "/mnt", "/data");
  EXPECT_EQ(buf, "");
}

TEST(PathTest, RebasePathRejectsPathNotUnderOldPrefix) {
  // Pre-fix these silently grafted unrelated components onto new_prefix
  // ("/abc" from "/a" became "/jail/c"); the contract is now an empty result.
  EXPECT_EQ(RebasePath("/abc", "/a", "/jail"), "");           // partial-component
  EXPECT_EQ(RebasePath("/b/x", "/a", "/jail"), "");           // disjoint subtree
  EXPECT_EQ(RebasePath("/ab", "/cd", "/jail"), "");           // equal length, different
  EXPECT_EQ(RebasePath("/a", "/a/b", "/jail"), "");           // path above the prefix
  EXPECT_EQ(RebasePath("relative", "/a", "/jail"), "");       // not absolute
  EXPECT_EQ(RebasePath("", "/", "/jail"), "");                // empty path
}

TEST(PathTest, RebasePathRootPrefixCases) {
  EXPECT_EQ(RebasePath("/x", "/", "/jail"), "/jail/x");
  EXPECT_EQ(RebasePath("/", "/", "/jail"), "/jail");
  EXPECT_EQ(RebasePath("/", "/", "/"), "/");
  EXPECT_EQ(RebasePath("/jail/x", "/jail", "/"), "/x");
}

TEST(PathTest, BasenameDirname) {
  EXPECT_EQ(Basename("/a/b/c"), "c");
  EXPECT_EQ(Basename("/"), "/");
  EXPECT_EQ(Dirname("/a/b/c"), "/a/b");
  EXPECT_EQ(Dirname("/a"), "/");
  EXPECT_EQ(Dirname("/"), "/");
}

TEST(PathTest, ExtensionLowercasesAndHandlesEdgeCases) {
  EXPECT_EQ(Extension("/x/report.PDF"), "pdf");
  EXPECT_EQ(Extension("/x/archive.tar.gz"), "gz");
  EXPECT_EQ(Extension("/x/noext"), "");
  EXPECT_EQ(Extension("/x/.hidden"), "");
  EXPECT_EQ(Extension("/x/trailing."), "");
}

// Property sweep: normalization is idempotent and always yields an absolute
// path without dot components.
class NormalizeProperty : public ::testing::TestWithParam<std::string> {};

TEST_P(NormalizeProperty, IdempotentAbsoluteClean) {
  std::string norm = NormalizePath(GetParam());
  EXPECT_TRUE(IsAbsolutePath(norm));
  EXPECT_EQ(NormalizePath(norm), norm);
  for (const auto& comp : SplitPath(norm)) {
    EXPECT_NE(comp, ".");
    EXPECT_NE(comp, "..");
  }
  if (norm != "/") {
    EXPECT_NE(norm.back(), '/');
  }
}

INSTANTIATE_TEST_SUITE_P(Paths, NormalizeProperty,
                         ::testing::Values("/", "", "a/b/c", "/a/../../../b", "/./././x",
                                           "////", "/a/b/c/../../../..", "x/../y/../z",
                                           "/etc//passwd/", "../..", "/a/./b/./c/./"));

// --- Seeded randomized property sweeps (witfault tentpole, part c) ----------

// Random raw path expressions over a hostile alphabet: empty components,
// ".", "..", doubled slashes, trailing slashes.
std::string RandomRawPath(std::mt19937& rng) {
  static const std::vector<std::string> kAtoms = {"a",  "b",   "etc", "user1", ".",
                                                  "..", "x.y", "..",  "jail"};
  std::uniform_int_distribution<int> len_dist(0, 8);
  std::uniform_int_distribution<size_t> atom_dist(0, kAtoms.size() - 1);
  std::uniform_int_distribution<int> coin(0, 3);
  std::string path = coin(rng) == 0 ? "" : "/";
  int len = len_dist(rng);
  for (int i = 0; i < len; ++i) {
    path += kAtoms[atom_dist(rng)];
    path += coin(rng) == 0 ? "//" : "/";
  }
  if (coin(rng) != 0 && !path.empty() && path.back() == '/') {
    path.pop_back();
  }
  return path;
}

// A random already-normalized absolute path with components from a small pool
// (small so that prefix relationships actually occur).
std::string RandomNormalizedPath(std::mt19937& rng) {
  static const std::vector<std::string> kComps = {"a", "b", "c", "d"};
  std::uniform_int_distribution<int> len_dist(0, 4);
  std::uniform_int_distribution<size_t> comp_dist(0, kComps.size() - 1);
  std::string path;
  int len = len_dist(rng);
  for (int i = 0; i < len; ++i) {
    path += "/" + kComps[comp_dist(rng)];
  }
  return path.empty() ? "/" : path;
}

TEST(PathPropertySweep, NormalizeIsIdempotentAbsoluteAndClean) {
  std::mt19937 rng(0xA11CE);
  for (int i = 0; i < 4000; ++i) {
    std::string raw = RandomRawPath(rng);
    std::string norm = NormalizePath(raw);
    ASSERT_TRUE(IsAbsolutePath(norm)) << raw;
    ASSERT_EQ(NormalizePath(norm), norm) << raw;
    for (const auto& comp : SplitPath(norm)) {
      ASSERT_NE(comp, ".") << raw;
      ASSERT_NE(comp, "..") << raw;
    }
    if (norm != "/") {
      ASSERT_NE(norm.back(), '/') << raw;
    }
  }
}

TEST(PathPropertySweep, PathIsUnderAndRebaseAgree) {
  std::mt19937 rng(0xBEEF);
  for (int i = 0; i < 4000; ++i) {
    std::string path = RandomNormalizedPath(rng);
    std::string old_prefix = RandomNormalizedPath(rng);
    std::string new_prefix = RandomNormalizedPath(rng);
    std::string rebased = RebasePath(path, old_prefix, new_prefix);
    if (!PathIsUnder(path, old_prefix)) {
      // The guard contract: no usable path comes back from a mis-rebase.
      ASSERT_EQ(rebased, "") << path << " from " << old_prefix;
      continue;
    }
    // A legitimate rebase lands under the new prefix, stays normalized, and
    // rebasing back is the identity.
    ASSERT_TRUE(PathIsUnder(rebased, new_prefix))
        << path << " from " << old_prefix << " to " << new_prefix << " -> " << rebased;
    ASSERT_EQ(NormalizePath(rebased), rebased) << rebased;
    ASSERT_EQ(RebasePath(rebased, new_prefix, old_prefix), path)
        << path << " via " << rebased;
  }
}

TEST(PathPropertySweep, ResolveNeverEscapesRoot) {
  std::mt19937 rng(0xD00F);
  for (int i = 0; i < 4000; ++i) {
    std::string cwd = RandomNormalizedPath(rng);
    std::string raw = RandomRawPath(rng);
    std::string resolved = ResolvePath(cwd, raw);
    ASSERT_TRUE(IsAbsolutePath(resolved)) << cwd << " + " << raw;
    ASSERT_EQ(NormalizePath(resolved), resolved) << cwd << " + " << raw;
    for (const auto& comp : SplitPath(resolved)) {
      ASSERT_NE(comp, "..") << cwd << " + " << raw;  // ".." clamps at "/"
    }
  }
}

}  // namespace
}  // namespace witos
