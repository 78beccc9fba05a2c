// A hash-chained append-only log modelling the paper's "secure append-only
// storage device" for permission-broker requests (§5.4), with replication to
// remote stores (Attack 6 defence: "the log files ... can be replicated on
// a remote append-only storage").
//
// The log is *segmented* (DESIGN.md §14): S independent hash chains, each
// append routed to one shard by caller-supplied key (the broker passes the
// ticket hash, so one ticket's records stay on one chain in per-op order).
// Per-shard chains remove the single append mutex that serialized every
// serving worker, without weakening tamper evidence:
//
//  * Each entry's hash covers its per-shard sequence number, timestamp,
//    payload and the previous entry's hash — in-place tampering breaks
//    that shard's chain (VerifyChain).
//  * Epoch roots seal the cross-shard state: periodically (and on demand)
//    a root records every shard's (size, chain head) and hashes them into
//    a meta chain. An attacker who rewrites a shard entry *and* recomputes
//    the downstream hashes produces an internally consistent chain whose
//    head no longer matches any sealed root — VerifyEpochRoots() fails.
//  * Replicas mirror every shard chain; MatchesReplica() detects
//    primary-side divergence even if both chains verify.
//
// With one shard (the default) the layout, ordering and verification
// behavior are exactly the pre-segmentation single-chain log.
//
// Concurrency: every public method is internally synchronized. Appends to
// different shards proceed in parallel (per-shard ProfiledMutex, named
// "securelog.N" when sharded); SnapshotEntries()/SnapshotShard() taken
// mid-append always see a valid prefix of each shard's chain.

#ifndef SRC_BROKER_SECURELOG_H_
#define SRC_BROKER_SECURELOG_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "src/obs/profile.h"
#include "src/os/result.h"

namespace witbroker {

// 64-bit FNV-1a.
uint64_t Fnv1a(std::string_view data, uint64_t seed = 14695981039346656037ull);

struct SecureLogEntry {
  uint64_t seq = 0;  // 1-based within the entry's shard chain
  uint64_t time_ns = 0;
  std::string payload;
  uint64_t prev_hash = 0;
  uint64_t hash = 0;

  static uint64_t ComputeHash(uint64_t seq, uint64_t time_ns, const std::string& payload,
                              uint64_t prev_hash);
};

// One sealed cross-shard state: every shard's chain length and head hash,
// chained to the previous root. Conceptually the roots are what gets
// shipped to the remote append-only store between full replications.
struct EpochRoot {
  uint64_t epoch = 0;  // 1-based position in the root chain
  uint64_t time_ns = 0;
  std::vector<uint64_t> shard_sizes;  // chain length per shard at seal time
  std::vector<uint64_t> shard_heads;  // chain head hash per shard (0 = empty)
  uint64_t prev_root_hash = 0;
  uint64_t root_hash = 0;

  // Hash over every field above except root_hash itself.
  static uint64_t ComputeHash(const EpochRoot& root);
};

class SecureLog {
 public:
  // `shards` hash chains; `epoch_interval` > 0 auto-seals an epoch root
  // every that-many appends (0 = seal only via SealEpoch()).
  explicit SecureLog(size_t shards, uint64_t epoch_interval = 0);
  SecureLog() : SecureLog(1) {}

  size_t shard_count() const { return segments_.size(); }

  // Appends one entry per payload to the shard chosen by
  // `shard_key % shard_count()`, under a single shard-lock acquisition, then
  // auto-seals if the epoch interval elapsed. Callers with an affinity key
  // (the broker's ticket hash) use it so related records share a chain; a
  // batched broker request's N per-op records cost one critical-section
  // entry while staying N distinct, chain-linked entries (the audit trail
  // is per-op regardless of framing).
  void AppendBatch(std::span<const std::string> payloads, uint64_t time_ns, uint64_t shard_key);
  // The one-entry case of AppendBatch.
  void Append(const std::string& payload, uint64_t time_ns, uint64_t shard_key) {
    AppendBatch(std::span<const std::string>(&payload, 1), time_ns, shard_key);
  }

  // True if every shard chain is intact AND every sealed epoch root still
  // matches the chains (see VerifyEpochRoots).
  bool Verify() const;

  // Chain check over any entry sequence (e.g. a shard snapshot or a
  // replica shard); a snapshot taken mid-append is always a valid prefix
  // of its shard's chain and passes.
  static bool VerifyChain(const std::vector<SecureLogEntry>& entries);

  // Recomputes every shard chain and checks each sealed root's recorded
  // (size, head) against it, plus the root meta-chain links. Catches the
  // rewrite-and-rechain attack a per-shard chain check cannot.
  bool VerifyEpochRoots() const;

  // Consistent point-in-time copy, safe under concurrent appenders. With
  // one shard this IS the chain (append order); with several it is the
  // cross-shard merge ordered by time_ns (ties keep shard index order) —
  // the contract the anomaly detector and forensic reports read under.
  std::vector<SecureLogEntry> SnapshotEntries() const;
  // One shard's chain; always VerifyChain-valid. Empty on a bad index.
  std::vector<SecureLogEntry> SnapshotShard(size_t shard) const;

  size_t size() const;  // total entries across shards

  // Registers a replica; every subsequent append is mirrored per shard.
  // Returns the replica index.
  size_t AddReplica();
  size_t replica_count() const;

  // Detects divergence between the primary and a replica — evidence of
  // primary-side tampering even if the chain was recomputed. False on an
  // out-of-range index (a missing replica can never vouch for the log).
  bool MatchesReplica(size_t index) const;

  // Synchronized copy of a replica, merged like SnapshotEntries(); empty
  // on an out-of-range index.
  std::vector<SecureLogEntry> ReplicaSnapshot(size_t index) const;
  // One replica shard chain; empty on any bad index.
  std::vector<SecureLogEntry> ReplicaShardSnapshot(size_t index, size_t shard) const;

  // Seals an epoch root over the current shard heads (also invoked
  // automatically every `epoch_interval` appends).
  void SealEpoch(uint64_t time_ns);
  std::vector<EpochRoot> EpochRootsSnapshot() const;
  size_t epoch_count() const;

  // Test hooks simulating an attacker rewriting a record in place. The
  // flat-index form walks shards in index order (shard 0's entries first).
  // `rechain` additionally recomputes the downstream hashes of that shard
  // — the smarter attacker only the epoch roots / replicas can expose.
  void TamperForTest(size_t index, std::string new_payload);
  void TamperShardForTest(size_t shard, size_t index, std::string new_payload,
                          bool rechain = false);

  // Attaches every shard lock (and the meta lock) to the contention
  // profile: watchit_lock_{wait,hold}_ns{lock="securelog"} for a
  // single-chain log, lock="securelog.N" per shard when segmented.
  void EnableLockMetrics(witobs::MetricsRegistry* registry);

  // --- Durability hooks (witjournal, DESIGN.md §15) -----------------------

  // Observers for the write-ahead journal. The append listener runs under
  // the entry's shard lock, the seal listener under the meta lock — both
  // must be fast and must never call back into the log. Set before traffic
  // starts (installation itself is not synchronized against appenders).
  using AppendListener = std::function<void(size_t shard, const SecureLogEntry& entry)>;
  using SealListener = std::function<void(const EpochRoot& root)>;
  void set_append_listener(AppendListener listener) { append_listener_ = std::move(listener); }
  void set_seal_listener(SealListener listener) { seal_listener_ = std::move(listener); }

  // Recovery: re-appends one journaled entry to `shard`'s chain, bypassing
  // the listeners and the auto-seal cadence (epoch roots are restored
  // explicitly, not re-derived). The entry's seq/prev_hash/hash are
  // recomputed from the chain position; when `expected_hash` is nonzero and
  // does not match, nothing is appended and EINVAL is returned — a record
  // that cannot reproduce its own chain is corruption, not history. EINVAL
  // also on an out-of-range shard.
  witos::Status RestoreShardEntry(size_t shard, const std::string& payload, uint64_t time_ns,
                                  uint64_t expected_hash);

  // Recovery: installs the journaled sealed roots after every entry has
  // been restored, replacing any roots currently held. The roots are
  // validated against the rebuilt chains (the same checks as
  // VerifyEpochRoots); on any mismatch nothing is installed (fail closed)
  // and false is returned.
  bool RestoreEpochRoots(std::vector<EpochRoot> roots);

 private:
  struct Segment {
    explicit Segment(std::string name) : mu(std::move(name)) {}
    mutable witobs::ProfiledMutex mu;
    std::vector<SecureLogEntry> entries;
    // replicas[i] is replica i's copy of this shard's chain.
    std::vector<std::vector<SecureLogEntry>> replicas;
  };

  size_t ShardOf(uint64_t shard_key) const { return shard_key % segments_.size(); }
  void AppendLocked(size_t shard, std::string payload, uint64_t time_ns, bool notify);
  void MaybeAutoSeal(uint64_t time_ns, uint64_t appended);
  // Merge helper shared by SnapshotEntries / ReplicaSnapshot.
  static std::vector<SecureLogEntry> MergeByTime(std::vector<std::vector<SecureLogEntry>> shards);

  std::vector<std::unique_ptr<Segment>> segments_;
  const uint64_t epoch_interval_;
  // Guards epoch_roots_ and serializes replica registration; ordering is
  // meta -> (one segment at a time), so appends (segment only) never
  // deadlock against seals.
  mutable witobs::ProfiledMutex meta_mu_{"securelog.meta"};
  std::vector<EpochRoot> epoch_roots_;
  std::atomic<uint64_t> appends_until_seal_;
  std::atomic<size_t> replica_count_{0};
  AppendListener append_listener_;
  SealListener seal_listener_;
};

}  // namespace witbroker

#endif  // SRC_BROKER_SECURELOG_H_
