#include "src/broker/securelog.h"

#include <utility>

namespace witbroker {

namespace {

void AppendU64(std::string* material, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    *material += static_cast<char>((value >> (8 * i)) & 0xff);
  }
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

uint64_t SecureLogEntry::ComputeHash(uint64_t seq, uint64_t time_ns, const std::string& payload,
                                     uint64_t prev_hash) {
  std::string material;
  material.reserve(payload.size() + 24);
  AppendU64(&material, seq);
  AppendU64(&material, time_ns);
  AppendU64(&material, prev_hash);
  material += payload;
  return Fnv1a(material);
}

uint64_t EpochRoot::ComputeHash(const EpochRoot& root) {
  std::string material;
  material.reserve(40);
  AppendU64(&material, root.epoch);
  AppendU64(&material, root.time_ns);
  AppendU64(&material, root.prev_root_hash);
  AppendU64(&material, root.size);
  AppendU64(&material, root.head);
  return Fnv1a(material);
}

SecureLog::SecureLog(uint64_t epoch_interval)
    : epoch_interval_(epoch_interval), appends_until_seal_(epoch_interval) {}

void SecureLog::AppendLocked(std::string payload, uint64_t time_ns, bool notify) {
  SecureLogEntry entry;
  entry.seq = entries_.size() + 1;
  entry.time_ns = time_ns;
  entry.payload = std::move(payload);
  entry.prev_hash = entries_.empty() ? 0 : entries_.back().hash;
  entry.hash =
      SecureLogEntry::ComputeHash(entry.seq, entry.time_ns, entry.payload, entry.prev_hash);
  for (auto& replica : replicas_) {
    replica.push_back(entry);
  }
  entries_.push_back(std::move(entry));
  if (notify && append_listener_) {
    append_listener_(entries_.back());
  }
}

void SecureLog::AppendBatch(std::span<const std::string> payloads, uint64_t time_ns) {
  if (payloads.empty()) {
    return;
  }
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  for (const std::string& payload : payloads) {
    AppendLocked(payload, time_ns, /*notify=*/true);
  }
  if (epoch_interval_ == 0) {
    return;
  }
  // The batch that reaches the interval seals, and the countdown restarts
  // from the full interval.
  if (appends_until_seal_ <= payloads.size()) {
    appends_until_seal_ = epoch_interval_;
    SealLocked(time_ns);
  } else {
    appends_until_seal_ -= payloads.size();
  }
}

bool SecureLog::VerifyChain(const std::vector<SecureLogEntry>& entries) {
  uint64_t prev = 0;
  for (size_t i = 0; i < entries.size(); ++i) {
    const SecureLogEntry& entry = entries[i];
    if (entry.seq != i + 1 || entry.prev_hash != prev) {
      return false;
    }
    if (entry.hash !=
        SecureLogEntry::ComputeHash(entry.seq, entry.time_ns, entry.payload, entry.prev_hash)) {
      return false;
    }
    prev = entry.hash;
  }
  return true;
}

bool SecureLog::VerifyLocked() const {
  if (!VerifyChain(entries_)) {
    return false;
  }
  // The chain verified, so each entry's stored hash is the chain's head at
  // that length.
  uint64_t prev_root = 0;
  uint64_t prev_size = 0;
  for (size_t r = 0; r < epoch_roots_.size(); ++r) {
    const EpochRoot& root = epoch_roots_[r];
    if (root.epoch != r + 1 || root.prev_root_hash != prev_root ||
        root.root_hash != EpochRoot::ComputeHash(root)) {
      return false;
    }
    if (root.size < prev_size || root.size > entries_.size()) {
      return false;  // a sealed chain shrank: append-only violated
    }
    if (root.head != (root.size == 0 ? 0 : entries_[root.size - 1].hash)) {
      return false;
    }
    prev_size = root.size;
    prev_root = root.root_hash;
  }
  return true;
}

bool SecureLog::Verify() const {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  return VerifyLocked();
}

std::vector<SecureLogEntry> SecureLog::SnapshotEntries() const {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  return entries_;
}

size_t SecureLog::size() const {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  return entries_.size();
}

size_t SecureLog::AddReplica() {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  replicas_.push_back(entries_);
  return replicas_.size() - 1;
}

size_t SecureLog::replica_count() const {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  return replicas_.size();
}

bool SecureLog::MatchesReplica(size_t index) const {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  if (index >= replicas_.size()) {
    return false;  // a replica we do not have can never vouch for the log
  }
  const auto& replica = replicas_[index];
  if (replica.size() != entries_.size()) {
    return false;
  }
  for (size_t i = 0; i < replica.size(); ++i) {
    if (entries_[i].hash != replica[i].hash || entries_[i].payload != replica[i].payload) {
      return false;
    }
  }
  return true;
}

std::vector<SecureLogEntry> SecureLog::ReplicaSnapshot(size_t index) const {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  return index < replicas_.size() ? replicas_[index] : std::vector<SecureLogEntry>();
}

void SecureLog::SealLocked(uint64_t time_ns) {
  EpochRoot root;
  root.epoch = epoch_roots_.size() + 1;
  root.time_ns = time_ns;
  root.size = entries_.size();
  root.head = entries_.empty() ? 0 : entries_.back().hash;
  root.prev_root_hash = epoch_roots_.empty() ? 0 : epoch_roots_.back().root_hash;
  root.root_hash = EpochRoot::ComputeHash(root);
  epoch_roots_.push_back(root);
  if (seal_listener_) {
    seal_listener_(root);
  }
}

void SecureLog::SealEpoch(uint64_t time_ns) {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  SealLocked(time_ns);
}

witos::Status SecureLog::RestoreEntry(const std::string& payload, uint64_t time_ns,
                                      uint64_t expected_hash) {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  uint64_t seq = entries_.size() + 1;
  uint64_t prev = entries_.empty() ? 0 : entries_.back().hash;
  if (SecureLogEntry::ComputeHash(seq, time_ns, payload, prev) != expected_hash) {
    return witos::Err::kInval;
  }
  AppendLocked(payload, time_ns, /*notify=*/false);
  return witos::Status::Ok();
}

bool SecureLog::RestoreEpochRoots(std::vector<EpochRoot> roots) {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  std::swap(epoch_roots_, roots);
  if (VerifyLocked()) {
    return true;
  }
  std::swap(epoch_roots_, roots);
  return false;
}

std::vector<EpochRoot> SecureLog::EpochRootsSnapshot() const {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  return epoch_roots_;
}

size_t SecureLog::epoch_count() const {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  return epoch_roots_.size();
}

void SecureLog::TamperForTest(size_t index, std::string new_payload, bool rechain) {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  if (index >= entries_.size()) {
    return;
  }
  entries_[index].payload = std::move(new_payload);
  if (!rechain) {
    return;
  }
  for (size_t i = index; i < entries_.size(); ++i) {
    SecureLogEntry& entry = entries_[i];
    entry.prev_hash = i == 0 ? 0 : entries_[i - 1].hash;
    entry.hash =
        SecureLogEntry::ComputeHash(entry.seq, entry.time_ns, entry.payload, entry.prev_hash);
  }
}

void SecureLog::EnableLockMetrics(witobs::MetricsRegistry* registry) {
  mu_.EnableMetrics(registry);
}

}  // namespace witbroker
