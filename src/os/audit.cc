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

// The hash of one chain record: its typed fields and the previous record's
// hash, then its detail bytes.
uint64_t ChainHash(uint64_t seq, uint64_t time_ns, AuditEvent event, Pid pid, Uid uid,
                   std::string_view detail, uint64_t prev_hash) {
  unsigned char header[33];
  unsigned char* out = PutLe(header, seq);
  out = PutLe(out, time_ns);
  out = PutLe(out, prev_hash);
  out = PutLe(out, static_cast<uint32_t>(pid));
  out = PutLe(out, uid);
  *out = static_cast<unsigned char>(event);
  return Fnv1a(detail,
               Fnv1a(std::string_view(reinterpret_cast<const char*>(header), sizeof(header))));
}

// Arena integers are LEB128 varints, as in the journal: times are large,
// but events, pids, uids and detail lengths are small.
char* PutVarint(char* out, uint64_t value) {
  while (value >= 0x80) {
    *out++ = static_cast<char>((value & 0x7f) | 0x80);
    value >>= 7;
  }
  *out++ = static_cast<char>(value);
  return out;
}

// Reads one varint the arena holds (PutVarint wrote it, so it ends within
// ten bytes) and advances `in` past it.
uint64_t GetVarint(const char** in) {
  uint64_t value = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    const auto byte = static_cast<unsigned char>(*(*in)++);
    value |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      break;
    }
  }
  return value;
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
  return ChainHash(record.seq, record.time_ns, record.event, record.pid, record.uid,
                   record.detail, prev_hash);
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

void AuditLog::StoreLocked(const AuditRecord& record) {
  index_.push_back(IndexEntry{.offset = arena_.size(), .hash = record.hash});
  char header[4 * 10 + 1];
  char* out = PutVarint(header, record.time_ns);
  *out++ = static_cast<char>(record.event);
  out = PutVarint(out, static_cast<uint32_t>(record.pid));
  out = PutVarint(out, record.uid);
  out = PutVarint(out, record.detail.size());
  arena_.append(header, static_cast<size_t>(out - header)).append(record.detail);
}

AuditLog::EncodedRecord AuditLog::DecodeLocked(size_t index) const {
  const char* in = arena_.data() + index_[index].offset;
  EncodedRecord record;
  record.time_ns = GetVarint(&in);
  record.event = static_cast<AuditEvent>(static_cast<unsigned char>(*in++));
  record.pid = static_cast<Pid>(static_cast<uint32_t>(GetVarint(&in)));
  record.uid = static_cast<Uid>(GetVarint(&in));
  const uint64_t size = GetVarint(&in);
  record.detail = std::string_view(in, size);
  return record;
}

void AuditLog::CopyLocked(size_t index, AuditRecord* out) const {
  const EncodedRecord record = DecodeLocked(index);
  out->seq = index + 1;
  out->time_ns = record.time_ns;
  out->event = record.event;
  out->pid = record.pid;
  out->uid = record.uid;
  out->detail.assign(record.detail);
  out->hash = index_[index].hash;
}

std::vector<AuditRecord> AuditLog::CopyAllLocked() const {
  std::vector<AuditRecord> out(index_.size());
  for (size_t i = 0; i < out.size(); ++i) {
    CopyLocked(i, &out[i]);
  }
  return out;
}

void AuditLog::AppendLocked(AuditRecord* record, bool notify) {
  record->seq = index_.size() + 1;
  record->hash = AuditRecord::ComputeHash(*record, HeadLocked());
  StoreLocked(*record);
  if (notify && append_listener_) {
    append_listener_(*record);
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
  AppendLocked(&record, /*notify=*/true);
  CountAppendsLocked(1, time_ns);
}

void AuditLog::AppendBatch(std::vector<AuditRecord> records, uint64_t time_ns) {
  if (records.empty()) {
    return;
  }
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  for (AuditRecord& record : records) {
    record.time_ns = time_ns;
    AppendLocked(&record, /*notify=*/true);
  }
  CountAppendsLocked(records.size(), time_ns);
}

size_t AuditLog::size() const {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  return index_.size();
}

std::vector<AuditRecord> AuditLog::Filter(
    const std::function<bool(const AuditRecord&)>& pred) const {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  std::vector<AuditRecord> out;
  AuditRecord record;
  for (size_t i = 0; i < index_.size(); ++i) {
    CopyLocked(i, &record);
    if (pred(record)) {
      out.push_back(record);
    }
  }
  return out;
}

size_t AuditLog::CountEvent(AuditEvent event) const {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  size_t n = 0;
  for (size_t i = 0; i < index_.size(); ++i) {
    if (DecodeLocked(i).event == event) {
      ++n;
    }
  }
  return n;
}

std::vector<AuditRecord> AuditLog::Snapshot() const {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  return CopyAllLocked();
}

Result<std::vector<AuditRecord>> AuditLog::VerifiedSnapshot() const {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  if (!VerifyLocked()) {
    return Err::kIo;
  }
  return CopyAllLocked();
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
  // The chain: each record's stored hash, rehashed from its encoded bytes.
  uint64_t prev = 0;
  for (size_t i = 0; i < index_.size(); ++i) {
    const EncodedRecord record = DecodeLocked(i);
    if (index_[i].hash !=
        ChainHash(i + 1, record.time_ns, record.event, record.pid, record.uid, record.detail,
                  prev)) {
      return false;
    }
    prev = index_[i].hash;
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
    if (root.size < prev_size || root.size > index_.size()) {
      return false;  // a sealed chain shrank: append-only violated
    }
    if (root.head != (root.size == 0 ? 0 : index_[root.size - 1].hash)) {
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
  root.size = index_.size();
  root.head = HeadLocked();
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
  record.seq = index_.size() + 1;
  if (record.hash != AuditRecord::ComputeHash(record, HeadLocked())) {
    return Err::kInval;
  }
  StoreLocked(record);
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
  if (index >= index_.size()) {
    return;
  }
  std::vector<AuditRecord> tail(index_.size() - index);
  for (size_t i = 0; i < tail.size(); ++i) {
    CopyLocked(index + i, &tail[i]);
  }
  tail[0].detail = std::move(new_detail);
  arena_.resize(index_[index].offset);
  index_.resize(index);
  for (AuditRecord& record : tail) {
    if (rechain) {
      record.hash = AuditRecord::ComputeHash(record, HeadLocked());
    }
    StoreLocked(record);
  }
}

void AuditLog::EnableLockMetrics(witobs::MetricsRegistry* registry) {
  mu_.EnableMetrics(registry);
}

}  // namespace witos
