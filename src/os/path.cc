#include "src/os/path.h"

#include <algorithm>
#include <cctype>

namespace witos {

void PathComponents::SkipEmpty() {
  while (!rest_.empty()) {
    if (rest_.front() == '/') {
      rest_.remove_prefix(1);
    } else if (rest_.front() == '.' && (rest_.size() == 1 || rest_[1] == '/')) {
      rest_.remove_prefix(1);
    } else {
      return;
    }
  }
}

std::string_view PathComponents::Next() {
  size_t end = rest_.find('/');
  if (end == std::string_view::npos) {
    end = rest_.size();
  }
  std::string_view comp = rest_.substr(0, end);
  rest_.remove_prefix(end);
  SkipEmpty();
  return comp;
}

std::vector<std::string> SplitPath(std::string_view path) {
  std::vector<std::string> parts;
  for (PathComponents comps(path); !comps.done();) {
    parts.emplace_back(comps.Next());
  }
  return parts;
}

std::string NormalizePath(std::string_view path) {
  std::string out;
  out.reserve(path.size() + 1);
  for (PathComponents comps(path); !comps.done();) {
    std::string_view comp = comps.Next();
    if (comp == "..") {
      // ".." at the root is clamped, as in a chroot jail.
      out.resize(out.empty() ? 0 : out.rfind('/'));
    } else {
      out += '/';
      out += comp;
    }
  }
  if (out.empty()) {
    out.push_back('/');
  }
  return out;
}

std::string ResolvePath(std::string_view cwd, std::string_view path) {
  if (IsAbsolutePath(path)) {
    return NormalizePath(path);
  }
  return NormalizePath(JoinPath(cwd, path));
}

std::string JoinPath(std::string_view a, std::string_view b) {
  if (a.empty()) {
    return std::string(b);
  }
  if (b.empty()) {
    return std::string(a);
  }
  std::string out(a);
  if (out.back() == '/' && b.front() == '/') {
    out.append(b.substr(1));
  } else if (out.back() != '/' && b.front() != '/') {
    out += '/';
    out.append(b);
  } else {
    out.append(b);
  }
  return out;
}

bool PathIsUnder(std::string_view path, std::string_view prefix) {
  if (prefix == "/") {
    return IsAbsolutePath(path);
  }
  if (path == prefix) {
    return true;
  }
  return path.size() > prefix.size() && path.substr(0, prefix.size()) == prefix &&
         path[prefix.size()] == '/';
}

std::string RebasePath(std::string_view path, std::string_view old_prefix,
                       std::string_view new_prefix) {
  std::string out;
  RebasePathInto(&out, path, old_prefix, new_prefix);
  return out;
}

void RebasePathInto(std::string* out, std::string_view path, std::string_view old_prefix,
                    std::string_view new_prefix) {
  out->clear();
  if (!PathIsUnder(path, old_prefix)) {
    // A rebase of a path that is not under the old prefix has no meaningful
    // answer; returning any path here would silently graft unrelated
    // components onto new_prefix (e.g. "/abc" rebased from "/a").
    return;
  }
  std::string_view rest;
  if (old_prefix == "/") {
    rest = path.substr(1);
  } else if (path.size() > old_prefix.size()) {
    rest = path.substr(old_prefix.size() + 1);  // skip the separating '/'
  }
  if (rest.empty()) {
    out->append(new_prefix);
    return;
  }
  if (new_prefix != "/") {
    out->append(new_prefix);
  }
  out->push_back('/');
  out->append(rest);
}

std::string Basename(std::string_view path) {
  if (path == "/" || path.empty()) {
    return "/";
  }
  size_t pos = path.find_last_of('/');
  if (pos == std::string_view::npos) {
    return std::string(path);
  }
  return std::string(path.substr(pos + 1));
}

std::string Dirname(std::string_view path) {
  if (path == "/" || path.empty()) {
    return "/";
  }
  size_t pos = path.find_last_of('/');
  if (pos == std::string_view::npos || pos == 0) {
    return "/";
  }
  return std::string(path.substr(0, pos));
}

std::string Extension(std::string_view path) {
  std::string base = Basename(path);
  size_t pos = base.find_last_of('.');
  if (pos == std::string::npos || pos == 0 || pos + 1 == base.size()) {
    return "";
  }
  std::string ext = base.substr(pos + 1);
  std::transform(ext.begin(), ext.end(), ext.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return ext;
}

bool IsAbsolutePath(std::string_view path) { return !path.empty() && path.front() == '/'; }

}  // namespace witos
