// witjournal: the write-ahead journal under WatchIT's control-plane state
// (DESIGN.md §15).
//
// Each machine's evidence chain (its records and epoch roots) and the CA's
// issue/revoke history live in memory; a crashed shard would take the
// paper's audit evidence with it.
// witjournal persists that state as a stream of length-prefixed, checksummed
// records written through a pluggable witos::Filesystem — the same interface
// the rest of the simulator mounts, so fault plans (ErrorInjectingVfs) and
// crash simulations slot underneath without the journal knowing.
//
// Frame layout (all integers little-endian, the rpc wire framing's layout):
//
//   u32  magic      'WJL5'
//   u64  checksum   FNV-1a over the payload bytes
//   u32  len        payload length (the WireWriter string prefix)
//   u8[] payload    one serialized JournalRecord
//
// The payload's integers are LEB128 varints: kind, lsn, time_ns, the
// number count and each number, the string count and each string's
// length before its bytes.
//
// A reader validates magic, bounds-checks `len` against the bytes actually
// remaining before allocating (a corrupt prefix can never trigger an
// unbounded allocation — the same discipline as WireReader::GetString), and
// recomputes the checksum. The first frame that fails any check ends the
// valid prefix: everything before it replays, everything after is rejected
// (fail closed — a torn tail is expected after a crash, an interior
// corruption is reported the same way).
//
// Durability model: Append() writes the frame through the filesystem
// immediately; Barrier() models fsync — it advances the durable frontier to
// the current end of file. A simulated crash (JournalWriter::Seal +
// DropUnsyncedTail) discards everything past the last barrier, exactly the
// bytes a real kernel could lose.

#ifndef SRC_DURABILITY_JOURNAL_H_
#define SRC_DURABILITY_JOURNAL_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/profile.h"
#include "src/os/filesystem.h"
#include "src/os/result.h"

namespace witdur {

// WJL5: WJL4's records without the two broker-binding kinds (a binding is
// volatile: every recovery unbound each one it replayed), the other kinds
// renumbered 1..7 so the decoder keeps one range check, and the recovery
// mark's second number is the certificates revoked at recovery. WJL1 to
// WJL4 files fail the magic check.
inline constexpr uint32_t kJournalMagic = 0x354c4a57u;  // "WJL5"

// Every persisted state transition is one of these. The enum values are the
// wire encoding — append only, never renumber within one magic.
enum class JournalRecordKind : uint32_t {
  kCheckpointHeader = 1,  // nums: {checkpoint_seq, next_lsn}
  kLogAppend = 2,         // strs: {machine, detail}; nums: {hash, event, pid, uid}
  kEpochSeal = 3,         // strs: {machine};
                          // nums: {epoch, prev_root_hash, root_hash, size, head}
  kCertIssue = 4,         // strs: {admin, machine, ticket_id, ticket_class};
                          // nums: {serial, issued_ns, expires_ns, signature}
  kCertRevoke = 5,        // nums: {serial}
  kRecoveryMark = 6,      // nums: {records_replayed, certs_revoked_at_recovery}
  kCertRevokeRun = 7,     // nums: {first, last}: serials first..last revoked
};
inline constexpr uint32_t kMaxJournalRecordKind =
    static_cast<uint32_t>(JournalRecordKind::kCertRevokeRun);

std::string JournalRecordKindName(JournalRecordKind kind);

// One journal record. Rather than a serializer per kind, every record is a
// kind tag plus a flat number list and string list whose meaning the kind
// defines (see the enum); the replay engine rejects records whose arity
// does not match their kind. This is what a scan returns.
struct JournalRecord {
  JournalRecordKind kind = JournalRecordKind::kCheckpointHeader;
  uint64_t lsn = 0;  // assigned by JournalWriter::Append
  uint64_t time_ns = 0;
  std::vector<uint64_t> nums;
  std::vector<std::string> strs;
};

// What a writer hands JournalWriter::Append: the same fields, borrowed from
// the caller (typically arrays on its stack), so framing a record builds no
// heap object. The writer assigns the lsn.
struct JournalRecordView {
  JournalRecordKind kind = JournalRecordKind::kCheckpointHeader;
  uint64_t time_ns = 0;
  std::span<const uint64_t> nums;
  std::span<const std::string_view> strs;
};

// The frame (header + payload) of a decoded record under its own lsn, as
// JournalWriter::Append would write it (tests and probes).
std::string EncodeRecord(const JournalRecord& record);
// Parses one record payload (the bytes inside the frame). Rejects unknown
// kinds, truncated fields, oversized count prefixes and trailing garbage.
witos::Result<JournalRecord> DecodeRecordPayload(std::string_view payload);

// The result of reading a journal (or checkpoint) file back: the records of
// the longest valid prefix, plus how the scan ended. `clean` is false when
// any byte past `valid_bytes` failed validation — a crash-torn or tampered
// tail; the prefix is still usable.
struct JournalScan {
  std::vector<JournalRecord> records;
  uint64_t valid_bytes = 0;
  uint64_t total_bytes = 0;
  bool clean = true;
  std::string error;  // why the scan stopped early (empty when clean)
};

// Reads and validates `path`. A missing file scans clean and empty (a fresh
// volume is not a corruption).
JournalScan ScanJournal(witos::Filesystem* fs, const std::string& path);

// Appends framed records through a Filesystem with an explicit durable
// frontier. Thread-safe: listeners under each machine's evidence chain lock
// and the CA lock all append concurrently; the "journal" ProfiledMutex
// serializes them (and shows up in the lock-contention profile).
//
// Failure model is fail-stop: the first filesystem error seals the writer —
// subsequent appends return EPIPE rather than continuing past a hole in the
// record stream. Seal() is also the crash switch the witcrash harness throws.
class JournalWriter {
 public:
  struct Options {
    std::string path = "/journal.wal";
    // Barrier (fsync) after every N appended records; 0 = only explicit
    // Barrier() calls advance the durable frontier.
    uint64_t barrier_interval = 1;
    // Start from an empty file (checkpoint writers); otherwise an existing
    // file is opened at its current size and everything on disk counts as
    // durable — the restart-after-crash case.
    bool truncate = false;
  };

  JournalWriter(std::shared_ptr<witos::Filesystem> fs, Options options);

  // Stamps the record's lsn, frames it into the writer's reused buffer and
  // writes it at the end of the file. EPIPE once sealed; any filesystem
  // error seals the writer.
  witos::Status Append(const JournalRecordView& record);
  // fsync: everything appended so far survives a crash.
  witos::Status Barrier();

  // Crash switch: atomically stops all future appends (EPIPE). Safe to call
  // while listeners are mid-append on other threads — they complete or fail,
  // nothing tears.
  void Seal();
  bool sealed() const;
  // Truncates the file back to the durable frontier — the bytes a crash
  // would have lost. Call after Seal() when simulating a crash.
  witos::Status DropUnsyncedTail();
  // Empties the file (post-checkpoint). The lsn sequence keeps advancing.
  witos::Status TruncateAll();

  const std::string& path() const { return options_.path; }
  uint64_t next_lsn() const;
  void set_next_lsn(uint64_t lsn);
  uint64_t records_appended() const;
  uint64_t bytes_appended() const;
  uint64_t durable_bytes() const;
  uint64_t barriers() const;
  uint64_t errors() const;

  // watchit_journal_records_total, watchit_journal_barriers_total,
  // watchit_journal_errors_total, plus the "journal" lock's watchit_lock_*
  // contention series.
  void EnableMetrics(witobs::MetricsRegistry* registry);

 private:
  witos::Status BarrierLocked();

  std::shared_ptr<witos::Filesystem> fs_;
  Options options_;
  mutable witobs::ProfiledMutex mu_{"journal"};
  bool sealed_ = false;
  witos::Err seal_reason_ = witos::Err::kPipe;
  uint64_t offset_ = 0;          // end of file
  uint64_t durable_offset_ = 0;  // last barrier
  uint64_t next_lsn_ = 1;
  uint64_t records_ = 0;
  uint64_t since_barrier_ = 0;
  uint64_t barriers_ = 0;
  uint64_t errors_ = 0;
  std::string frame_;  // the frame being written; keeps its capacity

  witobs::Counter* metric_records_ = nullptr;
  witobs::Counter* metric_barriers_ = nullptr;
  witobs::Counter* metric_errors_ = nullptr;
};

}  // namespace witdur

#endif  // SRC_DURABILITY_JOURNAL_H_
