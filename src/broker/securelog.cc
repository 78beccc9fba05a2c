#include "src/broker/securelog.h"

#include <algorithm>

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
  material.reserve(24 + 16 * root.shard_sizes.size());
  AppendU64(&material, root.epoch);
  AppendU64(&material, root.time_ns);
  AppendU64(&material, root.prev_root_hash);
  for (size_t s = 0; s < root.shard_sizes.size(); ++s) {
    AppendU64(&material, root.shard_sizes[s]);
    AppendU64(&material, root.shard_heads[s]);
  }
  return Fnv1a(material);
}

SecureLog::SecureLog(size_t shards, uint64_t epoch_interval)
    : epoch_interval_(epoch_interval), appends_until_seal_(epoch_interval) {
  if (shards == 0) {
    shards = 1;
  }
  segments_.reserve(shards);
  for (size_t s = 0; s < shards; ++s) {
    segments_.push_back(std::make_unique<Segment>(
        shards == 1 ? "securelog" : "securelog." + std::to_string(s)));
  }
}

void SecureLog::AppendLocked(size_t shard, std::string payload, uint64_t time_ns, bool notify) {
  Segment* segment = segments_[shard].get();
  SecureLogEntry entry;
  entry.seq = segment->entries.size() + 1;
  entry.time_ns = time_ns;
  entry.payload = std::move(payload);
  entry.prev_hash = segment->entries.empty() ? 0 : segment->entries.back().hash;
  entry.hash =
      SecureLogEntry::ComputeHash(entry.seq, entry.time_ns, entry.payload, entry.prev_hash);
  for (auto& replica : segment->replicas) {
    replica.push_back(entry);
  }
  segment->entries.push_back(std::move(entry));
  if (notify && append_listener_) {
    append_listener_(shard, segment->entries.back());
  }
}

void SecureLog::MaybeAutoSeal(uint64_t time_ns, uint64_t appended) {
  if (epoch_interval_ == 0) {
    return;
  }
  // Countdown shared across shards; the appender that crosses zero seals.
  // A concurrent appender may push the counter slightly negative before the
  // reset lands — the cadence can drift by a few entries, never the roots.
  uint64_t before = appends_until_seal_.fetch_sub(appended, std::memory_order_relaxed);
  if (before <= appended) {
    appends_until_seal_.store(epoch_interval_, std::memory_order_relaxed);
    SealEpoch(time_ns);
  }
}

void SecureLog::AppendBatch(std::span<const std::string> payloads, uint64_t time_ns,
                            uint64_t shard_key) {
  if (payloads.empty()) {
    return;
  }
  size_t shard = ShardOf(shard_key);
  Segment* segment = segments_[shard].get();
  {
    std::lock_guard<witobs::ProfiledMutex> lock(segment->mu);
    for (const std::string& payload : payloads) {
      AppendLocked(shard, payload, time_ns, /*notify=*/true);
    }
  }
  MaybeAutoSeal(time_ns, payloads.size());
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

bool SecureLog::Verify() const {
  for (const auto& segment : segments_) {
    std::lock_guard<witobs::ProfiledMutex> lock(segment->mu);
    if (!VerifyChain(segment->entries)) {
      return false;
    }
  }
  return VerifyEpochRoots();
}

bool SecureLog::VerifyEpochRoots() const {
  std::lock_guard<witobs::ProfiledMutex> meta(meta_mu_);
  if (epoch_roots_.empty()) {
    return true;
  }
  // Recompute each shard's running chain head so sealed (size, head) pairs
  // can be checked at any recorded length. One shard locked at a time;
  // entries are append-only, so later roots can only need longer prefixes.
  std::vector<std::vector<uint64_t>> heads_at(segments_.size());
  for (size_t s = 0; s < segments_.size(); ++s) {
    const Segment& segment = *segments_[s];
    std::lock_guard<witobs::ProfiledMutex> lock(segment.mu);
    heads_at[s].reserve(segment.entries.size());
    uint64_t prev = 0;
    for (size_t i = 0; i < segment.entries.size(); ++i) {
      const SecureLogEntry& entry = segment.entries[i];
      if (entry.seq != i + 1 || entry.prev_hash != prev) {
        return false;
      }
      prev = SecureLogEntry::ComputeHash(entry.seq, entry.time_ns, entry.payload,
                                         entry.prev_hash);
      if (entry.hash != prev) {
        return false;
      }
      heads_at[s].push_back(prev);
    }
  }
  uint64_t prev_root = 0;
  std::vector<uint64_t> prev_sizes(segments_.size(), 0);
  for (size_t r = 0; r < epoch_roots_.size(); ++r) {
    const EpochRoot& root = epoch_roots_[r];
    if (root.epoch != r + 1 || root.prev_root_hash != prev_root ||
        root.shard_sizes.size() != segments_.size() ||
        root.shard_heads.size() != segments_.size() ||
        root.root_hash != EpochRoot::ComputeHash(root)) {
      return false;
    }
    for (size_t s = 0; s < segments_.size(); ++s) {
      uint64_t sealed_size = root.shard_sizes[s];
      if (sealed_size < prev_sizes[s] || sealed_size > heads_at[s].size()) {
        return false;  // a sealed chain shrank: append-only violated
      }
      uint64_t expected_head = sealed_size == 0 ? 0 : heads_at[s][sealed_size - 1];
      if (root.shard_heads[s] != expected_head) {
        return false;
      }
      prev_sizes[s] = sealed_size;
    }
    prev_root = root.root_hash;
  }
  return true;
}

std::vector<SecureLogEntry> SecureLog::MergeByTime(
    std::vector<std::vector<SecureLogEntry>> shards) {
  if (shards.size() == 1) {
    return std::move(shards.front());
  }
  std::vector<SecureLogEntry> merged;
  size_t total = 0;
  for (const auto& shard : shards) {
    total += shard.size();
  }
  merged.reserve(total);
  for (auto& shard : shards) {
    merged.insert(merged.end(), std::make_move_iterator(shard.begin()),
                  std::make_move_iterator(shard.end()));
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const SecureLogEntry& a, const SecureLogEntry& b) {
                     return a.time_ns < b.time_ns;
                   });
  return merged;
}

std::vector<SecureLogEntry> SecureLog::SnapshotEntries() const {
  std::vector<std::vector<SecureLogEntry>> shards;
  shards.reserve(segments_.size());
  for (const auto& segment : segments_) {
    std::lock_guard<witobs::ProfiledMutex> lock(segment->mu);
    shards.push_back(segment->entries);
  }
  return MergeByTime(std::move(shards));
}

std::vector<SecureLogEntry> SecureLog::SnapshotShard(size_t shard) const {
  if (shard >= segments_.size()) {
    return {};
  }
  const Segment& segment = *segments_[shard];
  std::lock_guard<witobs::ProfiledMutex> lock(segment.mu);
  return segment.entries;
}

size_t SecureLog::size() const {
  size_t total = 0;
  for (const auto& segment : segments_) {
    std::lock_guard<witobs::ProfiledMutex> lock(segment->mu);
    total += segment->entries.size();
  }
  return total;
}

size_t SecureLog::AddReplica() {
  std::lock_guard<witobs::ProfiledMutex> meta(meta_mu_);
  for (const auto& segment : segments_) {
    std::lock_guard<witobs::ProfiledMutex> lock(segment->mu);
    segment->replicas.push_back(segment->entries);
  }
  // Publish only once every shard mirrors: a reader passing the index
  // check below is guaranteed the per-shard vectors exist.
  return replica_count_.fetch_add(1, std::memory_order_release);
}

size_t SecureLog::replica_count() const {
  return replica_count_.load(std::memory_order_acquire);
}

bool SecureLog::MatchesReplica(size_t index) const {
  if (index >= replica_count()) {
    return false;  // a replica we do not have can never vouch for the log
  }
  for (const auto& segment : segments_) {
    std::lock_guard<witobs::ProfiledMutex> lock(segment->mu);
    const auto& replica = segment->replicas[index];
    if (replica.size() != segment->entries.size()) {
      return false;
    }
    for (size_t i = 0; i < replica.size(); ++i) {
      if (segment->entries[i].hash != replica[i].hash ||
          segment->entries[i].payload != replica[i].payload) {
        return false;
      }
    }
  }
  return true;
}

std::vector<SecureLogEntry> SecureLog::ReplicaSnapshot(size_t index) const {
  if (index >= replica_count()) {
    return {};
  }
  std::vector<std::vector<SecureLogEntry>> shards;
  shards.reserve(segments_.size());
  for (const auto& segment : segments_) {
    std::lock_guard<witobs::ProfiledMutex> lock(segment->mu);
    shards.push_back(segment->replicas[index]);
  }
  return MergeByTime(std::move(shards));
}

std::vector<SecureLogEntry> SecureLog::ReplicaShardSnapshot(size_t index, size_t shard) const {
  if (index >= replica_count() || shard >= segments_.size()) {
    return {};
  }
  const Segment& segment = *segments_[shard];
  std::lock_guard<witobs::ProfiledMutex> lock(segment.mu);
  return segment.replicas[index];
}

void SecureLog::SealEpoch(uint64_t time_ns) {
  std::lock_guard<witobs::ProfiledMutex> meta(meta_mu_);
  EpochRoot root;
  root.epoch = epoch_roots_.size() + 1;
  root.time_ns = time_ns;
  root.shard_sizes.reserve(segments_.size());
  root.shard_heads.reserve(segments_.size());
  for (const auto& segment : segments_) {
    std::lock_guard<witobs::ProfiledMutex> lock(segment->mu);
    root.shard_sizes.push_back(segment->entries.size());
    root.shard_heads.push_back(segment->entries.empty() ? 0 : segment->entries.back().hash);
  }
  root.prev_root_hash = epoch_roots_.empty() ? 0 : epoch_roots_.back().root_hash;
  root.root_hash = EpochRoot::ComputeHash(root);
  epoch_roots_.push_back(std::move(root));
  if (seal_listener_) {
    seal_listener_(epoch_roots_.back());
  }
}

witos::Status SecureLog::RestoreShardEntry(size_t shard, const std::string& payload,
                                           uint64_t time_ns, uint64_t expected_hash) {
  if (shard >= segments_.size()) {
    return witos::Err::kInval;
  }
  Segment* segment = segments_[shard].get();
  std::lock_guard<witobs::ProfiledMutex> lock(segment->mu);
  if (expected_hash != 0) {
    uint64_t seq = segment->entries.size() + 1;
    uint64_t prev = segment->entries.empty() ? 0 : segment->entries.back().hash;
    if (SecureLogEntry::ComputeHash(seq, time_ns, payload, prev) != expected_hash) {
      return witos::Err::kInval;
    }
  }
  AppendLocked(shard, payload, time_ns, /*notify=*/false);
  return witos::Status::Ok();
}

bool SecureLog::RestoreEpochRoots(std::vector<EpochRoot> roots) {
  std::vector<EpochRoot> previous;
  {
    std::lock_guard<witobs::ProfiledMutex> meta(meta_mu_);
    previous = std::move(epoch_roots_);
    epoch_roots_ = std::move(roots);
  }
  // Recovery is quiescent, so validating outside the meta lock (which
  // VerifyEpochRoots needs for itself) does not race with appenders.
  if (VerifyEpochRoots()) {
    return true;
  }
  std::lock_guard<witobs::ProfiledMutex> meta(meta_mu_);
  epoch_roots_ = std::move(previous);
  return false;
}

std::vector<EpochRoot> SecureLog::EpochRootsSnapshot() const {
  std::lock_guard<witobs::ProfiledMutex> meta(meta_mu_);
  return epoch_roots_;
}

size_t SecureLog::epoch_count() const {
  std::lock_guard<witobs::ProfiledMutex> meta(meta_mu_);
  return epoch_roots_.size();
}

void SecureLog::TamperForTest(size_t index, std::string new_payload) {
  for (size_t s = 0; s < segments_.size(); ++s) {
    Segment& segment = *segments_[s];
    std::lock_guard<witobs::ProfiledMutex> lock(segment.mu);
    if (index < segment.entries.size()) {
      segment.entries[index].payload = std::move(new_payload);
      return;
    }
    index -= segment.entries.size();
  }
}

void SecureLog::TamperShardForTest(size_t shard, size_t index, std::string new_payload,
                                   bool rechain) {
  if (shard >= segments_.size()) {
    return;
  }
  Segment& segment = *segments_[shard];
  std::lock_guard<witobs::ProfiledMutex> lock(segment.mu);
  if (index >= segment.entries.size()) {
    return;
  }
  segment.entries[index].payload = std::move(new_payload);
  if (!rechain) {
    return;
  }
  // The smarter attacker: recompute every downstream hash so the shard
  // chain stays internally consistent. Only the sealed epoch roots and the
  // replicas can still expose the rewrite.
  for (size_t i = index; i < segment.entries.size(); ++i) {
    SecureLogEntry& entry = segment.entries[i];
    entry.prev_hash = i == 0 ? 0 : segment.entries[i - 1].hash;
    entry.hash =
        SecureLogEntry::ComputeHash(entry.seq, entry.time_ns, entry.payload, entry.prev_hash);
  }
}

void SecureLog::EnableLockMetrics(witobs::MetricsRegistry* registry) {
  for (const auto& segment : segments_) {
    segment->mu.EnableMetrics(registry);
  }
  meta_mu_.EnableMetrics(registry);
}

}  // namespace witbroker
