// Kernel audit log: the machine's one evidence stream (DESIGN.md §14).
//
// Every security-relevant event on the machine is one record here:
// permission-broker grants and denials, denied syscalls, capability
// failures, XCL hits, ITFS file denials, network blocks, container and
// session lifecycle, TCB violations. The log is the paper's "secure
// append-only storage device" (§5.4): it has no mutating API besides
// append, and tamper evidence is layered.
//
//  * Each record's hash covers its seq, time, event, pid, uid, detail and
//    the previous record's hash: in-place tampering breaks the chain
//    (VerifyChain).
//  * Epoch roots seal the chain every kEpochInterval records (and on
//    demand): a root records the chain's (size, head hash), chained to the
//    previous root. An attacker who rewrites a record *and* recomputes the
//    downstream hashes produces an internally consistent chain whose head
//    no longer matches a sealed root, so Verify() fails.
//  * The write-ahead journal (witdur) persists every record and root as it
//    is written. A rewrite-and-rechain after the last sealed root passes
//    Verify() but not witdur::ChainMatchesJournal (Attack 6).
//
// Storage: each record is kept once, encoded, in one append-only byte arena
// (varint time, the event byte, varint pid, uid and detail length, then the
// detail bytes), beside a fixed-size index entry holding its offset and
// hash; its seq is its position. No record owns a heap object, and readers
// decode: Snapshot() and Filter() build AuditRecords, CountEvent() and
// Verify() read the encoded bytes in place.
//
// Concurrency: every public method is internally synchronized by one
// ProfiledMutex ("securelog") guarding the arena, the index and the roots.
// Snapshot() taken mid-append always sees a valid prefix of the chain.

#ifndef SRC_OS_AUDIT_H_
#define SRC_OS_AUDIT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/profile.h"
#include "src/os/result.h"
#include "src/os/types.h"

namespace witos {

// 64-bit FNV-1a.
uint64_t Fnv1a(std::string_view data, uint64_t seed = 14695981039346656037ull);

enum class AuditEvent : uint8_t {
  kSyscallDenied,
  kCapabilityDenied,
  kXclDenied,
  kFileAccess,
  kFileDenied,
  kNetworkFlow,
  kNetworkBlocked,
  kBrokerRequest,
  kBrokerDenied,
  kContainerDeployed,
  kContainerTerminated,
  kTcbViolation,
  kSessionEvent,
};
inline constexpr uint64_t kNumAuditEvents = static_cast<uint64_t>(AuditEvent::kSessionEvent) + 1;

std::string AuditEventName(AuditEvent ev);

struct AuditRecord {
  uint64_t seq = 0;  // 1-based position in the chain
  uint64_t time_ns = 0;
  AuditEvent event = AuditEvent::kSessionEvent;
  Pid pid = kNoPid;
  Uid uid = 0;
  std::string detail;
  uint64_t hash = 0;

  // Hash over every field above except `hash`, chained to `prev_hash` (0
  // for the first record).
  static uint64_t ComputeHash(const AuditRecord& record, uint64_t prev_hash);
  bool operator==(const AuditRecord&) const = default;
};

// One sealed chain state, chained to the previous root.
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

class AuditLog {
 public:
  // Records between auto-sealed epoch roots.
  static constexpr uint64_t kEpochInterval = 256;

  void Append(AuditEvent event, Pid pid, Uid uid, std::string detail, uint64_t time_ns);
  // Appends each record's event, pid, uid and detail under a single lock
  // acquisition, stamping `time_ns` and the chain's seq and hash; a batch
  // that reaches the epoch interval seals once, inside the same critical
  // section. A batched broker request's N per-op records cost one
  // critical-section entry while staying N distinct, chain-linked records.
  void AppendBatch(std::vector<AuditRecord> records, uint64_t time_ns);

  size_t size() const;

  // Records matching a predicate (analysis-side convenience).
  std::vector<AuditRecord> Filter(const std::function<bool(const AuditRecord&)>& pred) const;
  size_t CountEvent(AuditEvent event) const;

  // Consistent point-in-time copy of the chain in append order.
  std::vector<AuditRecord> Snapshot() const;
  // The same copy, taken only if the chain and every sealed root verify at
  // that instant; EIO otherwise. What forensic readers decode.
  Result<std::vector<AuditRecord>> VerifiedSnapshot() const;

  // True if the chain is intact AND every sealed epoch root still matches
  // it: sealed sizes never shrink, and each sealed head is the chain's hash
  // at that length.
  bool Verify() const;
  // Chain check over any record sequence (a snapshot, or a journal's copy);
  // a snapshot taken mid-append is always a valid prefix and passes.
  static bool VerifyChain(const std::vector<AuditRecord>& records);

  // Seals an epoch root over the current chain head (also done
  // automatically every kEpochInterval records).
  void SealEpoch(uint64_t time_ns);
  std::vector<EpochRoot> EpochRootsSnapshot() const;
  size_t epoch_count() const;

  // Test hook simulating an attacker rewriting record `index`'s detail in
  // place (the records from `index` on are re-encoded; each keeps its
  // stored hash). `rechain` additionally recomputes every downstream hash:
  // the smarter attacker only the epoch roots and the journal can expose.
  void TamperForTest(size_t index, std::string new_detail, bool rechain = false);

  // Attaches the log's lock to the contention profile:
  // watchit_lock_{wait,hold}_ns{lock="securelog"}.
  void EnableLockMetrics(witobs::MetricsRegistry* registry);

  // --- Durability hooks (witjournal, DESIGN.md §15) -----------------------

  // Observers for the write-ahead journal. Both run under the log's lock,
  // must be fast and must never call back into the log. Set before traffic
  // starts (installation itself is not synchronized against appenders).
  using AppendListener = std::function<void(const AuditRecord& record)>;
  using SealListener = std::function<void(const EpochRoot& root)>;
  void set_append_listener(AppendListener listener) { append_listener_ = std::move(listener); }
  void set_seal_listener(SealListener listener) { seal_listener_ = std::move(listener); }

  // Recovery: re-appends one journaled record, bypassing the listeners and
  // the auto-seal cadence (epoch roots are restored explicitly, not
  // re-derived). The record's seq is its chain position; when the hash
  // recomputed there differs from `record.hash`, nothing is appended and
  // EINVAL is returned: a record that cannot reproduce its own chain is
  // corruption, not history.
  Status Restore(AuditRecord record);

  // Recovery: installs the journaled sealed roots after every record has
  // been restored, replacing any roots currently held. The roots are
  // validated against the rebuilt chain (the same checks as Verify); on
  // any mismatch nothing is installed (fail closed) and false is returned.
  bool RestoreEpochRoots(std::vector<EpochRoot> roots);

 private:
  // Where one record's bytes start in arena_, and its chain hash.
  struct IndexEntry {
    uint64_t offset = 0;
    uint64_t hash = 0;
  };
  // One record's fields read in place from the arena.
  struct EncodedRecord {
    uint64_t time_ns = 0;
    AuditEvent event = AuditEvent::kSessionEvent;
    Pid pid = kNoPid;
    Uid uid = 0;
    std::string_view detail;
  };

  // Stamps `record`'s seq and hash at the chain's head, stores it and, when
  // `notify`, hands it to the append listener.
  void AppendLocked(AuditRecord* record, bool notify);
  // Encodes `record`, whose hash is already set, at the end of the arena.
  void StoreLocked(const AuditRecord& record);
  EncodedRecord DecodeLocked(size_t index) const;
  // Record `index` as a typed copy; `out`'s detail buffer is reused.
  void CopyLocked(size_t index, AuditRecord* out) const;
  std::vector<AuditRecord> CopyAllLocked() const;
  uint64_t HeadLocked() const { return index_.empty() ? 0 : index_.back().hash; }
  // Advances the auto-seal countdown by `count` appends.
  void CountAppendsLocked(size_t count, uint64_t time_ns);
  void SealLocked(uint64_t time_ns);
  bool VerifyLocked() const;

  mutable witobs::ProfiledMutex mu_{"securelog"};
  std::string arena_;              // every record's encoded bytes, in chain order
  std::vector<IndexEntry> index_;  // one entry per record; seq = position + 1
  std::vector<EpochRoot> epoch_roots_;
  uint64_t appends_until_seal_ = kEpochInterval;
  AppendListener append_listener_;
  SealListener seal_listener_;
};

}  // namespace witos

#endif  // SRC_OS_AUDIT_H_
