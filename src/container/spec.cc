#include "src/container/spec.h"

namespace witcontain {

bool FsView::Compile(std::vector<witfs::CompileDiagnostic>* diagnostics) {
  if (compiled() != nullptr) {
    return false;
  }
  witfs::ItfsPolicy effective = policy;
  effective.set_inspection_mode(inspection);
  compiled_ = effective.Compile(diagnostics);
  compiled_revision_ = policy.revision();
  compiled_inspection_ = inspection;
  return true;
}

PerforatedContainerSpec PerforatedContainerSpec::Traditional(std::string name) {
  PerforatedContainerSpec spec;
  spec.name = std::move(name);
  spec.isolate = {witos::NsType::kUts, witos::NsType::kMnt, witos::NsType::kNet,
                  witos::NsType::kPid, witos::NsType::kIpc, witos::NsType::kUid};
  spec.fs.kind = FsView::Kind::kPrivate;
  spec.net.allowed.clear();
  return spec;
}

const witos::CapabilitySet& ForbiddenCaps() {
  static const witos::CapabilitySet kForbidden = {
      witos::Capability::kSysChroot, witos::Capability::kSysPtrace,
      witos::Capability::kMknod,     witos::Capability::kSysRawMem,
      witos::Capability::kSysModule, witos::Capability::kSysAdmin,
  };
  return kForbidden;
}

}  // namespace witcontain
