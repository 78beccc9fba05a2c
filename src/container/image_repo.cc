#include "src/container/image_repo.h"

namespace witcontain {

void ImageRepository::Register(const std::string& ticket_class, PerforatedContainerSpec spec) {
  (void)spec.fs.Compile();
  images_[ticket_class] = std::move(spec);
}

witos::Result<PerforatedContainerSpec> ImageRepository::Lookup(
    const std::string& ticket_class) const {
  auto it = images_.find(ticket_class);
  if (it == images_.end()) {
    return witos::Err::kNoEnt;
  }
  return it->second;
}

void ImageRepository::ForEach(
    const std::function<void(const std::string&, PerforatedContainerSpec*)>& fn) {
  for (auto& [name, spec] : images_) {
    fn(name, &spec);
    (void)spec.fs.Compile();  // recompiles only a policy `fn` changed
  }
}

std::vector<std::string> ImageRepository::Classes() const {
  std::vector<std::string> out;
  out.reserve(images_.size());
  for (const auto& [name, spec] : images_) {
    out.push_back(name);
  }
  return out;
}

}  // namespace witcontain
