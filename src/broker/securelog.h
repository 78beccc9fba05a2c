// A hash-chained append-only log modelling the paper's "secure append-only
// storage device" for permission-broker requests (§5.4), with replication to
// remote stores (Attack 6 defence: "the log files ... can be replicated on
// a remote append-only storage").
//
// One chain per log (DESIGN.md §14). Tamper evidence is layered:
//
//  * Each entry's hash covers its sequence number, timestamp, payload and
//    the previous entry's hash — in-place tampering breaks the chain
//    (VerifyChain).
//  * Epoch roots seal the chain: periodically (and on demand) a root records
//    the chain's (size, head hash), chained to the previous root. An
//    attacker who rewrites an entry *and* recomputes the downstream hashes
//    produces an internally consistent chain whose head no longer matches
//    any sealed root — Verify() fails.
//  * Replicas mirror the chain; MatchesReplica() detects primary-side
//    divergence even if the chain verifies.
//
// Concurrency: every public method is internally synchronized by one
// ProfiledMutex ("securelog") guarding the chain, the replicas and the
// roots. SnapshotEntries() taken mid-append always sees a valid prefix of
// the chain.

#ifndef SRC_BROKER_SECURELOG_H_
#define SRC_BROKER_SECURELOG_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "src/obs/profile.h"
#include "src/os/result.h"

namespace witbroker {

// 64-bit FNV-1a.
uint64_t Fnv1a(std::string_view data, uint64_t seed = 14695981039346656037ull);

struct SecureLogEntry {
  uint64_t seq = 0;  // 1-based position in the chain
  uint64_t time_ns = 0;
  std::string payload;
  uint64_t prev_hash = 0;
  uint64_t hash = 0;

  static uint64_t ComputeHash(uint64_t seq, uint64_t time_ns, const std::string& payload,
                              uint64_t prev_hash);
};

// One sealed chain state, chained to the previous root. Conceptually the
// roots are what gets shipped to the remote append-only store between full
// replications.
struct EpochRoot {
  uint64_t epoch = 0;  // 1-based position in the root chain
  uint64_t time_ns = 0;
  uint64_t size = 0;  // chain length at seal time
  uint64_t head = 0;  // chain head hash at seal time (0 = empty)
  uint64_t prev_root_hash = 0;
  uint64_t root_hash = 0;

  // Hash over every field above except root_hash itself.
  static uint64_t ComputeHash(const EpochRoot& root);
};

class SecureLog {
 public:
  // `epoch_interval` > 0 auto-seals an epoch root every that-many appends
  // (0 = seal only via SealEpoch()).
  explicit SecureLog(uint64_t epoch_interval = 0);

  // Appends one entry per payload under a single lock acquisition; a batch
  // that reaches the epoch interval seals the root inside the same critical
  // section. A batched broker request's N per-op records cost one
  // critical-section entry while staying N distinct, chain-linked entries
  // (the audit trail is per-op regardless of framing).
  void AppendBatch(std::span<const std::string> payloads, uint64_t time_ns);
  // The one-entry case of AppendBatch.
  void Append(const std::string& payload, uint64_t time_ns) {
    AppendBatch(std::span<const std::string>(&payload, 1), time_ns);
  }

  // True if the chain is intact AND every sealed epoch root still matches
  // it: sealed sizes never shrink, and each sealed head is the chain's hash
  // at that length. Catches the rewrite-and-rechain attack a chain check
  // alone cannot.
  bool Verify() const;

  // Chain check over any entry sequence (a snapshot or a replica); a
  // snapshot taken mid-append is always a valid prefix and passes.
  static bool VerifyChain(const std::vector<SecureLogEntry>& entries);

  // Consistent point-in-time copy of the chain in append order, safe under
  // concurrent appenders — what the anomaly detector and forensic reports
  // read.
  std::vector<SecureLogEntry> SnapshotEntries() const;

  size_t size() const;

  // Registers a replica; every subsequent append is mirrored. Returns the
  // replica index.
  size_t AddReplica();
  size_t replica_count() const;

  // Detects divergence between the primary and a replica — evidence of
  // primary-side tampering even if the chain was recomputed. False on an
  // out-of-range index (a missing replica can never vouch for the log).
  bool MatchesReplica(size_t index) const;

  // Synchronized copy of a replica; empty on an out-of-range index.
  std::vector<SecureLogEntry> ReplicaSnapshot(size_t index) const;

  // Seals an epoch root over the current chain head (also done
  // automatically every `epoch_interval` appends).
  void SealEpoch(uint64_t time_ns);
  std::vector<EpochRoot> EpochRootsSnapshot() const;
  size_t epoch_count() const;

  // Test hook simulating an attacker rewriting entry `index` in place.
  // `rechain` additionally recomputes every downstream hash — the smarter
  // attacker only the epoch roots and replicas can expose.
  void TamperForTest(size_t index, std::string new_payload, bool rechain = false);

  // Attaches the log's lock to the contention profile:
  // watchit_lock_{wait,hold}_ns{lock="securelog"}.
  void EnableLockMetrics(witobs::MetricsRegistry* registry);

  // --- Durability hooks (witjournal, DESIGN.md §15) -----------------------

  // Observers for the write-ahead journal. Both run under the log's lock,
  // must be fast and must never call back into the log. Set before traffic
  // starts (installation itself is not synchronized against appenders).
  using AppendListener = std::function<void(const SecureLogEntry& entry)>;
  using SealListener = std::function<void(const EpochRoot& root)>;
  void set_append_listener(AppendListener listener) { append_listener_ = std::move(listener); }
  void set_seal_listener(SealListener listener) { seal_listener_ = std::move(listener); }

  // Recovery: re-appends one journaled entry, bypassing the listeners and
  // the auto-seal cadence (epoch roots are restored explicitly, not
  // re-derived). The entry's seq/prev_hash/hash are recomputed from the
  // chain position; when they do not reproduce `expected_hash`, nothing is
  // appended and EINVAL is returned — a record that cannot reproduce its
  // own chain is corruption, not history.
  witos::Status RestoreEntry(const std::string& payload, uint64_t time_ns,
                             uint64_t expected_hash);

  // Recovery: installs the journaled sealed roots after every entry has
  // been restored, replacing any roots currently held. The roots are
  // validated against the rebuilt chain (the same checks as Verify); on
  // any mismatch nothing is installed (fail closed) and false is returned.
  bool RestoreEpochRoots(std::vector<EpochRoot> roots);

 private:
  void AppendLocked(std::string payload, uint64_t time_ns, bool notify);
  void SealLocked(uint64_t time_ns);
  bool VerifyLocked() const;

  const uint64_t epoch_interval_;
  mutable witobs::ProfiledMutex mu_{"securelog"};
  std::vector<SecureLogEntry> entries_;
  // replicas_[i] is replica i's copy of the chain.
  std::vector<std::vector<SecureLogEntry>> replicas_;
  std::vector<EpochRoot> epoch_roots_;
  uint64_t appends_until_seal_;
  AppendListener append_listener_;
  SealListener seal_listener_;
};

}  // namespace witbroker

#endif  // SRC_BROKER_SECURELOG_H_
