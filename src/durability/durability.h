// DurabilityManager: checkpoint + write-ahead-journal recovery for WatchIT's
// control-plane state (DESIGN.md §15).
//
// The manager attaches listener hooks to a Cluster — each machine's
// evidence-chain appends and epoch seals, and the CA's issue/revoke
// stream — and journals every transition through a JournalWriter, fsyncing
// after each record. It journals exactly what recovery keeps: a ticket's
// container session and broker binding end with the ticket (or the
// machine), so neither is journaled, and a deploy reaches the journal only
// through its chain records and its certificate. A
// Checkpoint() compacts the full state into a snapshot file (written to a
// temp path and renamed, so a crash mid-checkpoint keeps the last good one)
// and truncates the journal; Recover() replays checkpoint + journal tail
// into a fresh cluster, re-verifies the chains' epoch roots against the
// rebuilt chains, and reconciles: every certificate still live belonged to
// a session that died with the machine, so it is revoked (journaled) —
// leaving the recovered pool, whose brokers start with no bindings, with
// the zero-leak invariant the deploy fault sweeps assert, while the audit
// history (evidence chains, sealed roots, the CA's books) survives intact.
//
// Scopes:
//  * Recover(cluster)      — pool kill: the whole process died; a fresh
//                            manager replays everything into a fresh cluster.
//  * RecoverMachine(name)  — shard kill: one machine died while the manager
//                            (the host-side journal daemon) survived; the
//                            machine is rebooted in place and only its
//                            records replay, reconciled against the live CA.
//
// Quiescence contract: Checkpoint, Recover and RecoverMachine assume no
// deploys or broker requests are in flight (the capros-style stop-the-world
// checkpoint discipline). Journaling itself is fully concurrent.

#ifndef SRC_DURABILITY_DURABILITY_H_
#define SRC_DURABILITY_DURABILITY_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/cluster.h"
#include "src/durability/journal.h"
#include "src/obs/metrics.h"
#include "src/os/audit.h"

namespace witdur {

struct RecoveryReport {
  uint64_t checkpoint_records = 0;
  uint64_t tail_records = 0;
  uint64_t records_replayed = 0;  // checkpoint + tail
  uint64_t log_entries_restored = 0;
  uint64_t epoch_roots_restored = 0;
  uint64_t certs_restored = 0;
  uint64_t revocations_restored = 0;
  // Reconciliation: certificates revoked because their sessions did not
  // survive the crash.
  uint64_t certs_revoked_at_recovery = 0;
  // Records the replay rejected (bad arity, unknown machine, hash or
  // signature mismatch). Fail closed: the record is skipped and counted,
  // never half-applied.
  uint64_t replay_errors = 0;
  bool epoch_roots_verified = true;
  // False when the journal ended in a torn/corrupt tail (rejected; the
  // valid prefix replayed).
  bool journal_tail_clean = true;
  uint64_t machines_recovered = 0;
  uint64_t recovery_wall_ns = 0;

  double ReplayRecordsPerSec() const {
    if (recovery_wall_ns == 0) {
      return 0.0;
    }
    return static_cast<double>(records_replayed) * 1e9 / static_cast<double>(recovery_wall_ns);
  }
};

class DurabilityManager {
 public:
  struct Options {
    std::string journal_path = "/journal.wal";
    std::string checkpoint_path = "/checkpoint.wcp";
    // Auto-checkpoint: after this many journaled records checkpoint_due()
    // latches and MaybeCheckpoint() compacts at the next safe point
    // (0 = manual checkpoints only).
    uint64_t checkpoint_interval = 0;
  };

  DurabilityManager(std::shared_ptr<witos::Filesystem> fs, Options options);
  explicit DurabilityManager(std::shared_ptr<witos::Filesystem> fs)
      : DurabilityManager(std::move(fs), Options()) {}

  // Installs the listener hooks on `cluster` (which must outlive the
  // manager) and starts journaling. Call on a quiescent cluster.
  void Attach(watchit::Cluster* cluster);
  bool attached() const { return cluster_ != nullptr; }

  // Compacts the full attached state into the checkpoint file and truncates
  // the journal. Quiescent callers only. Fail closed: any write error
  // aborts, keeping the previous checkpoint and the journal.
  witos::Status Checkpoint();
  // True once checkpoint_interval records have been journaled since the
  // last checkpoint.
  bool checkpoint_due() const;
  // Checkpoint() if due — the safe-point hook drivers call between waves.
  witos::Status MaybeCheckpoint();
  uint64_t checkpoints_taken() const { return checkpoints_; }

  // The crash switch: seals the journal (all further appends EPIPE) and
  // discards every byte past the last fsync barrier — exactly what a kernel
  // would lose. The attached cluster's in-memory state is then garbage by
  // definition; recovery happens through a fresh manager + Recover().
  witos::Status SimulateCrash();

  // Pool-kill recovery: replays checkpoint + journal tail into `cluster`
  // (freshly built, same machine names), attaches, reconciles orphans, and
  // folds the recovered state into a new checkpoint. ESRCH on a second
  // call (recovery is one-shot per manager — no double replay); EINVAL on
  // an already-attached manager or a corrupt checkpoint.
  witos::Result<RecoveryReport> Recover(watchit::Cluster* cluster);

  // Shard-kill recovery on a live, attached manager: reboots `machine_name`
  // in place (Cluster::ReplaceMachine), replays only its records, re-hooks
  // its listeners and revokes its certificates still live in the CA.
  // ESRCH for an unknown machine.
  witos::Result<RecoveryReport> RecoverMachine(const std::string& machine_name);

  JournalWriter& journal() { return journal_; }
  const JournalWriter& journal() const { return journal_; }

  // Attack 6's divergence check: true when `machine`'s live evidence chain
  // equals, record for record, its copy in the checkpoint plus the journal
  // tail. Catches a rewrite-and-rechain after the last sealed root, which
  // AuditLog::Verify() alone misses. Records from before the machine was
  // attached are vouched for only after the next Checkpoint(); a corrupt
  // checkpoint or journal vouches for nothing. Quiescent callers only.
  bool ChainMatchesJournal(const watchit::Machine& machine) const;

  // Journal counters plus the recovered-state gauges:
  // watchit_securelog_entries{machine}, watchit_securelog_epochs{machine},
  // watchit_broker_bound_tickets{machine}, watchit_ca_issued,
  // watchit_ca_revoked, watchit_recovery_records_replayed,
  // watchit_recovery_certs_revoked, watchit_recovery_runs_total. RefreshGauges() re-reads them from live
  // state — Attach, Checkpoint and Recover call it, so a recovered pool
  // reports its true counters, never zeros.
  void EnableMetrics(witobs::MetricsRegistry* registry);
  void RefreshGauges();

 private:
  struct ReplayState {
    // Sealed roots per machine, in journal order; installed (and verified)
    // only after every record has been restored.
    std::map<std::string, std::vector<witos::EpochRoot>> roots;
    uint64_t max_lsn = 0;
  };

  void AttachMachine(watchit::Machine* machine);
  void AttachShared();  // CA listeners
  // Tracks the auto-checkpoint cadence over the journal's appends.
  void Journaled(witos::Status appended);
  void ApplyRecord(watchit::Cluster* cluster, const JournalRecord& record,
                   const std::string* only_machine, ReplayState* state, RecoveryReport* report);
  // Scans checkpoint + journal and replays both into `cluster`.
  witos::Status Replay(watchit::Cluster* cluster, const std::string* only_machine,
                       ReplayState* state, RecoveryReport* report);
  // Revokes every live certificate (only `only_machine`'s when set).
  void Reconcile(watchit::Cluster* cluster, const std::string* only_machine,
                 RecoveryReport* report);
  // Counts a finished recovery and publishes its gauges.
  void PublishRecovery(const RecoveryReport& report);

  std::shared_ptr<witos::Filesystem> fs_;
  Options options_;
  JournalWriter journal_;
  watchit::Cluster* cluster_ = nullptr;
  bool recovered_ = false;
  uint64_t checkpoints_ = 0;

  std::atomic<uint64_t> records_since_checkpoint_{0};

  witobs::MetricsRegistry* metrics_ = nullptr;
  witobs::Counter* recovery_runs_ = nullptr;
};

}  // namespace witdur

#endif  // SRC_DURABILITY_DURABILITY_H_
