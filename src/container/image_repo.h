// The image repository: pre-built perforated-container specs keyed by
// ticket class, "held in a dedicated image repository for quick deployment"
// (paper §5.1, Figure 3). Pre-built includes the ITFS policy: each image's
// effective policy is compiled at Register and after ForEach, and every
// deploy of the image on any machine shares that CompiledPolicy
// (FsView::Compile). Register and ForEach are set-up-time only; Lookup may
// run from many deploy workers at once.

#ifndef SRC_CONTAINER_IMAGE_REPO_H_
#define SRC_CONTAINER_IMAGE_REPO_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/container/spec.h"
#include "src/os/result.h"

namespace witcontain {

class ImageRepository {
 public:
  void Register(const std::string& ticket_class, PerforatedContainerSpec spec);
  witos::Result<PerforatedContainerSpec> Lookup(const std::string& ticket_class) const;
  bool Has(const std::string& ticket_class) const { return images_.count(ticket_class) > 0; }
  std::vector<std::string> Classes() const;
  size_t size() const { return images_.size(); }

  // Applies `fn` to every registered image (policy loaders use this to
  // append organization-wide constraints).
  void ForEach(const std::function<void(const std::string&, PerforatedContainerSpec*)>& fn);

 private:
  std::map<std::string, PerforatedContainerSpec> images_;
};

}  // namespace witcontain

#endif  // SRC_CONTAINER_IMAGE_REPO_H_
