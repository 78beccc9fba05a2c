#include "src/os/audit.h"

#include <utility>

namespace witos {

namespace {

// Little-endian field bytes, so the chain's hashes do not depend on the
// host's byte order.
template <typename T>
unsigned char* PutLe(unsigned char* out, T value) {
  for (size_t i = 0; i < sizeof(T); ++i) {
    *out++ = static_cast<unsigned char>((static_cast<uint64_t>(value) >> (8 * i)) & 0xff);
  }
  return out;
}

}  // namespace

uint64_t Fnv1a(std::string_view data, uint64_t seed) {
  uint64_t hash = seed;
  for (char c : data) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string AuditEventName(AuditEvent ev) {
  switch (ev) {
    case AuditEvent::kSyscallDenied:
      return "SYSCALL_DENIED";
    case AuditEvent::kCapabilityDenied:
      return "CAPABILITY_DENIED";
    case AuditEvent::kXclDenied:
      return "XCL_DENIED";
    case AuditEvent::kFileAccess:
      return "FILE_ACCESS";
    case AuditEvent::kFileDenied:
      return "FILE_DENIED";
    case AuditEvent::kNetworkFlow:
      return "NETWORK_FLOW";
    case AuditEvent::kNetworkBlocked:
      return "NETWORK_BLOCKED";
    case AuditEvent::kBrokerRequest:
      return "BROKER_REQUEST";
    case AuditEvent::kBrokerDenied:
      return "BROKER_DENIED";
    case AuditEvent::kContainerDeployed:
      return "CONTAINER_DEPLOYED";
    case AuditEvent::kContainerTerminated:
      return "CONTAINER_TERMINATED";
    case AuditEvent::kTcbViolation:
      return "TCB_VIOLATION";
    case AuditEvent::kSessionEvent:
      return "SESSION_EVENT";
  }
  return "UNKNOWN";
}

uint64_t AuditRecord::ComputeHash(const AuditRecord& record, uint64_t prev_hash) {
  unsigned char header[33];
  unsigned char* out = PutLe(header, record.seq);
  out = PutLe(out, record.time_ns);
  out = PutLe(out, prev_hash);
  out = PutLe(out, static_cast<uint32_t>(record.pid));
  out = PutLe(out, record.uid);
  *out = static_cast<unsigned char>(record.event);
  return Fnv1a(record.detail,
               Fnv1a(std::string_view(reinterpret_cast<const char*>(header), sizeof(header))));
}

uint64_t EpochRoot::ComputeHash(const EpochRoot& root) {
  unsigned char material[40];
  unsigned char* out = PutLe(material, root.epoch);
  out = PutLe(out, root.time_ns);
  out = PutLe(out, root.prev_root_hash);
  out = PutLe(out, root.size);
  PutLe(out, root.head);
  return Fnv1a(std::string_view(reinterpret_cast<const char*>(material), sizeof(material)));
}

void AuditLog::AppendLocked(AuditRecord record, bool notify) {
  record.seq = records_.size() + 1;
  record.hash = AuditRecord::ComputeHash(record, records_.empty() ? 0 : records_.back().hash);
  records_.push_back(std::move(record));
  if (notify && append_listener_) {
    append_listener_(records_.back());
  }
}

void AuditLog::CountAppendsLocked(size_t count, uint64_t time_ns) {
  // The append that reaches the interval seals, and the countdown restarts
  // from the full interval.
  if (appends_until_seal_ <= count) {
    appends_until_seal_ = kEpochInterval;
    SealLocked(time_ns);
  } else {
    appends_until_seal_ -= count;
  }
}

void AuditLog::Append(AuditEvent event, Pid pid, Uid uid, std::string detail, uint64_t time_ns) {
  AuditRecord record{
      .time_ns = time_ns, .event = event, .pid = pid, .uid = uid, .detail = std::move(detail)};
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  AppendLocked(std::move(record), /*notify=*/true);
  CountAppendsLocked(1, time_ns);
}

void AuditLog::AppendBatch(std::vector<AuditRecord> records, uint64_t time_ns) {
  if (records.empty()) {
    return;
  }
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  for (AuditRecord& record : records) {
    record.time_ns = time_ns;
    AppendLocked(std::move(record), /*notify=*/true);
  }
  CountAppendsLocked(records.size(), time_ns);
}

size_t AuditLog::size() const {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  return records_.size();
}

std::vector<AuditRecord> AuditLog::Filter(
    const std::function<bool(const AuditRecord&)>& pred) const {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  std::vector<AuditRecord> out;
  for (const auto& rec : records_) {
    if (pred(rec)) {
      out.push_back(rec);
    }
  }
  return out;
}

size_t AuditLog::CountEvent(AuditEvent event) const {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  size_t n = 0;
  for (const auto& rec : records_) {
    if (rec.event == event) {
      ++n;
    }
  }
  return n;
}

std::vector<AuditRecord> AuditLog::Snapshot() const {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  return records_;
}

Result<std::vector<AuditRecord>> AuditLog::VerifiedSnapshot() const {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  if (!VerifyLocked()) {
    return Err::kIo;
  }
  return records_;
}

bool AuditLog::VerifyChain(const std::vector<AuditRecord>& records) {
  uint64_t prev = 0;
  for (size_t i = 0; i < records.size(); ++i) {
    const AuditRecord& record = records[i];
    if (record.seq != i + 1 || record.hash != AuditRecord::ComputeHash(record, prev)) {
      return false;
    }
    prev = record.hash;
  }
  return true;
}

bool AuditLog::VerifyLocked() const {
  if (!VerifyChain(records_)) {
    return false;
  }
  // The chain verified, so each record's stored hash is the chain's head at
  // that length.
  uint64_t prev_root = 0;
  uint64_t prev_size = 0;
  for (size_t r = 0; r < epoch_roots_.size(); ++r) {
    const EpochRoot& root = epoch_roots_[r];
    if (root.epoch != r + 1 || root.prev_root_hash != prev_root ||
        root.root_hash != EpochRoot::ComputeHash(root)) {
      return false;
    }
    if (root.size < prev_size || root.size > records_.size()) {
      return false;  // a sealed chain shrank: append-only violated
    }
    if (root.head != (root.size == 0 ? 0 : records_[root.size - 1].hash)) {
      return false;
    }
    prev_size = root.size;
    prev_root = root.root_hash;
  }
  return true;
}

bool AuditLog::Verify() const {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  return VerifyLocked();
}

void AuditLog::SealLocked(uint64_t time_ns) {
  EpochRoot root;
  root.epoch = epoch_roots_.size() + 1;
  root.time_ns = time_ns;
  root.size = records_.size();
  root.head = records_.empty() ? 0 : records_.back().hash;
  root.prev_root_hash = epoch_roots_.empty() ? 0 : epoch_roots_.back().root_hash;
  root.root_hash = EpochRoot::ComputeHash(root);
  epoch_roots_.push_back(root);
  if (seal_listener_) {
    seal_listener_(root);
  }
}

void AuditLog::SealEpoch(uint64_t time_ns) {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  SealLocked(time_ns);
}

std::vector<EpochRoot> AuditLog::EpochRootsSnapshot() const {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  return epoch_roots_;
}

size_t AuditLog::epoch_count() const {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  return epoch_roots_.size();
}

Status AuditLog::Restore(AuditRecord record) {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  const uint64_t expected_hash = record.hash;
  AppendLocked(std::move(record), /*notify=*/false);
  if (records_.back().hash != expected_hash) {
    records_.pop_back();
    return Err::kInval;
  }
  return Status::Ok();
}

bool AuditLog::RestoreEpochRoots(std::vector<EpochRoot> roots) {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  std::swap(epoch_roots_, roots);
  if (VerifyLocked()) {
    return true;
  }
  std::swap(epoch_roots_, roots);
  return false;
}

void AuditLog::TamperForTest(size_t index, std::string new_detail, bool rechain) {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  if (index >= records_.size()) {
    return;
  }
  records_[index].detail = std::move(new_detail);
  if (!rechain) {
    return;
  }
  for (size_t i = index; i < records_.size(); ++i) {
    records_[i].hash = AuditRecord::ComputeHash(records_[i], i == 0 ? 0 : records_[i - 1].hash);
  }
}

void AuditLog::EnableLockMetrics(witobs::MetricsRegistry* registry) {
  mu_.EnableMetrics(registry);
}

}  // namespace witos
