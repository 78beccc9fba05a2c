// Path manipulation helpers shared by the VFS, filesystems and ITFS.
//
// All VFS-visible paths are absolute, '/'-separated, and normalized: no "."
// or ".." components, no duplicate slashes, no trailing slash (except the
// root itself). Normalization clamps ".." at the root, matching how path
// walking behaves in a chroot jail.

#ifndef SRC_OS_PATH_H_
#define SRC_OS_PATH_H_

#include <string>
#include <string_view>
#include <vector>

namespace witos {

// Reads a path's components in place ("/a//b/./c" -> "a", "b", "c"): empty
// and "." components are skipped, ".." components are kept. The reader holds
// a view, so the path must outlive it.
class PathComponents {
 public:
  explicit PathComponents(std::string_view path = {}) : rest_(path) { SkipEmpty(); }

  bool done() const { return rest_.empty(); }
  // The next component; requires !done().
  std::string_view Next();
  // The unread part of the path: empty, or starting at the next component.
  std::string_view rest() const { return rest_; }

 private:
  void SkipEmpty();

  std::string_view rest_;
};

// Splits a path into its components, by PathComponents' rules.
std::vector<std::string> SplitPath(std::string_view path);

// Normalizes to an absolute canonical form, resolving "." and ".." lexically
// and clamping ".." at "/". A relative input is interpreted against "/".
std::string NormalizePath(std::string_view path);

// Normalizes `path` against base directory `cwd` (both interpreted inside
// the same root). `cwd` must be absolute.
std::string ResolvePath(std::string_view cwd, std::string_view path);

// Joins two path fragments with exactly one separator.
std::string JoinPath(std::string_view a, std::string_view b);

// True if `path` equals `prefix` or is located underneath it. Both inputs
// must be normalized absolute paths.
bool PathIsUnder(std::string_view path, std::string_view prefix);

// Rebases `path` from under `old_prefix` onto `new_prefix`. If
// !PathIsUnder(path, old_prefix) the rebase is meaningless and the result is
// the empty string — callers must treat "" as "not under the old prefix"
// rather than a usable path. ("" is never a valid normalized path, so a
// silent mis-rebase cannot masquerade as success.)
std::string RebasePath(std::string_view path, std::string_view old_prefix,
                       std::string_view new_prefix);
// RebasePath into `*out`, reusing its capacity.
void RebasePathInto(std::string* out, std::string_view path, std::string_view old_prefix,
                    std::string_view new_prefix);

// Final component ("/a/b/c" -> "c", "/" -> "/").
std::string Basename(std::string_view path);

// Parent directory ("/a/b/c" -> "/a/b", "/a" -> "/", "/" -> "/").
std::string Dirname(std::string_view path);

// Lower-cased extension without the dot ("/x/report.PDF" -> "pdf"); empty if
// there is none.
std::string Extension(std::string_view path);

bool IsAbsolutePath(std::string_view path);

}  // namespace witos

#endif  // SRC_OS_PATH_H_
