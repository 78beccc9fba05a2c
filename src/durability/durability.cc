#include "src/durability/durability.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <utility>

namespace witdur {

namespace {

// The journal daemon runs host-side with root credentials.
const witos::Credentials kDurCred{};

uint64_t ElapsedNs(std::chrono::steady_clock::time_point since) {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now() - since)
                                   .count());
}

// One writer per record kind that more than one path writes (the
// listeners, the checkpoint, recovery). Each hands `out` a view of the
// caller's fields, built on the stack.
witos::Status WriteEpochSeal(JournalWriter* out, std::string_view machine,
                             const witos::EpochRoot& root) {
  const uint64_t nums[] = {root.epoch, root.prev_root_hash, root.root_hash, root.size, root.head};
  const std::string_view strs[] = {machine};
  return out->Append({JournalRecordKind::kEpochSeal, root.time_ns, nums, strs});
}

witos::Status WriteLogAppend(JournalWriter* out, std::string_view machine,
                             const witos::AuditRecord& entry) {
  const uint64_t nums[] = {entry.hash, static_cast<uint64_t>(entry.event),
                           static_cast<uint32_t>(entry.pid), entry.uid};
  const std::string_view strs[] = {machine, entry.detail};
  return out->Append({JournalRecordKind::kLogAppend, entry.time_ns, nums, strs});
}

witos::Status WriteCertIssue(JournalWriter* out, const watchit::Certificate& cert) {
  const uint64_t nums[] = {cert.serial, cert.issued_ns, cert.expires_ns, cert.signature};
  const std::string_view strs[] = {cert.admin, cert.machine, cert.ticket_id, cert.ticket_class};
  return out->Append({JournalRecordKind::kCertIssue, cert.issued_ns, nums, strs});
}

witos::Status WriteCertRevoke(JournalWriter* out, uint64_t serial) {
  const uint64_t nums[] = {serial};
  return out->Append({JournalRecordKind::kCertRevoke, 0, nums, {}});
}

witos::Status WriteCertRevokeRun(JournalWriter* out,
                                 const watchit::CertificateAuthority::RevokedRun& run) {
  const uint64_t nums[] = {run.first, run.last};
  return out->Append({JournalRecordKind::kCertRevokeRun, 0, nums, {}});
}

witos::Status WriteRecoveryMark(JournalWriter* out, const RecoveryReport& report) {
  const uint64_t nums[] = {report.records_replayed, report.certs_revoked_at_recovery};
  return out->Append({JournalRecordKind::kRecoveryMark, 0, nums, {}});
}

// The chain record a kLogAppend journal record carries (seq unset: it is
// the record's chain position); EINVAL on a bad arity or an event, pid or
// uid out of range.
witos::Result<witos::AuditRecord> ChainRecordOf(const JournalRecord& record) {
  if (record.strs.size() != 2 || record.nums.size() != 4 ||
      record.nums[1] >= witos::kNumAuditEvents || record.nums[2] > UINT32_MAX ||
      record.nums[3] > UINT32_MAX) {
    return witos::Err::kInval;
  }
  witos::AuditRecord entry;
  entry.time_ns = record.time_ns;
  entry.event = static_cast<witos::AuditEvent>(record.nums[1]);
  entry.pid = static_cast<witos::Pid>(static_cast<uint32_t>(record.nums[2]));
  entry.uid = static_cast<witos::Uid>(record.nums[3]);
  entry.detail = record.strs[1];
  entry.hash = record.nums[0];
  return entry;
}

}  // namespace

DurabilityManager::DurabilityManager(std::shared_ptr<witos::Filesystem> fs, Options options)
    : fs_(std::move(fs)),
      options_(std::move(options)),
      journal_(fs_, JournalWriter::Options{options_.journal_path, /*barrier_interval=*/1,
                                           /*truncate=*/false}) {}

void DurabilityManager::Journaled(witos::Status appended) {
  if (!appended.ok()) {
    return;  // sealed (crash) or fail-stopped; counted by the writer
  }
  records_since_checkpoint_.fetch_add(1, std::memory_order_relaxed);
}

void DurabilityManager::AttachMachine(watchit::Machine* machine) {
  const std::string name = machine->name();
  witos::AuditLog& chain = machine->kernel().audit();
  chain.set_append_listener([this, name](const witos::AuditRecord& entry) {
    Journaled(WriteLogAppend(&journal_, name, entry));
  });
  chain.set_seal_listener([this, name](const witos::EpochRoot& root) {
    Journaled(WriteEpochSeal(&journal_, name, root));
  });
}

void DurabilityManager::AttachShared() {
  cluster_->ca().set_issue_listener(
      [this](const watchit::Certificate& cert) { Journaled(WriteCertIssue(&journal_, cert)); });
  cluster_->ca().set_revoke_listener(
      [this](uint64_t serial) { Journaled(WriteCertRevoke(&journal_, serial)); });
}

void DurabilityManager::Attach(watchit::Cluster* cluster) {
  cluster_ = cluster;
  for (size_t i = 0; i < cluster_->size(); ++i) {
    AttachMachine(&cluster_->machine(i));
  }
  AttachShared();
  RefreshGauges();
}

bool DurabilityManager::ChainMatchesJournal(const watchit::Machine& machine) const {
  std::vector<witos::AuditRecord> journaled;
  for (const std::string* path : {&options_.checkpoint_path, &options_.journal_path}) {
    JournalScan scan = ScanJournal(fs_.get(), *path);
    if (!scan.clean) {
      return false;
    }
    for (const JournalRecord& record : scan.records) {
      if (record.kind != JournalRecordKind::kLogAppend || record.strs.empty() ||
          record.strs[0] != machine.name()) {
        continue;
      }
      witos::Result<witos::AuditRecord> entry = ChainRecordOf(record);
      if (!entry.ok()) {
        return false;
      }
      entry->seq = journaled.size() + 1;
      journaled.push_back(std::move(*entry));
    }
  }
  return journaled == machine.kernel().audit().Snapshot();
}

bool DurabilityManager::checkpoint_due() const {
  return options_.checkpoint_interval != 0 &&
         records_since_checkpoint_.load(std::memory_order_relaxed) >=
             options_.checkpoint_interval;
}

witos::Status DurabilityManager::MaybeCheckpoint() {
  if (!checkpoint_due()) {
    return witos::Status::Ok();
  }
  return Checkpoint();
}

witos::Status DurabilityManager::Checkpoint() {
  if (cluster_ == nullptr) {
    return witos::Err::kInval;
  }
  if (journal_.sealed()) {
    return witos::Err::kPipe;
  }
  const std::string tmp = options_.checkpoint_path + ".tmp";
  JournalWriter snapshot(fs_, JournalWriter::Options{tmp, /*barrier_interval=*/0,
                                                     /*truncate=*/true});
  const uint64_t header[] = {checkpoints_ + 1, journal_.next_lsn()};
  WITOS_RETURN_IF_ERROR(
      snapshot.Append({JournalRecordKind::kCheckpointHeader, 0, header, {}}));

  for (size_t i = 0; i < cluster_->size(); ++i) {
    const watchit::Machine& machine = cluster_->machine(i);
    const witos::AuditLog& chain = machine.kernel().audit();
    for (const witos::AuditRecord& entry : chain.Snapshot()) {
      WITOS_RETURN_IF_ERROR(WriteLogAppend(&snapshot, machine.name(), entry));
    }
    for (const witos::EpochRoot& root : chain.EpochRootsSnapshot()) {
      WITOS_RETURN_IF_ERROR(WriteEpochSeal(&snapshot, machine.name(), root));
    }
  }
  for (const watchit::Certificate& cert : cluster_->ca().IssuedSnapshot()) {
    WITOS_RETURN_IF_ERROR(WriteCertIssue(&snapshot, cert));
  }
  for (const watchit::CertificateAuthority::RevokedRun& run :
       cluster_->ca().RevokedRunsSnapshot()) {
    WITOS_RETURN_IF_ERROR(WriteCertRevokeRun(&snapshot, run));
  }
  WITOS_RETURN_IF_ERROR(snapshot.Barrier());

  // Publish atomically: the checkpoint either is the old complete file or
  // the new complete file, never a torn hybrid.
  (void)fs_->Unlink(options_.checkpoint_path, kDurCred);
  WITOS_RETURN_IF_ERROR(fs_->Rename(tmp, options_.checkpoint_path, kDurCred));
  WITOS_RETURN_IF_ERROR(journal_.TruncateAll());
  ++checkpoints_;
  records_since_checkpoint_.store(0, std::memory_order_relaxed);
  RefreshGauges();
  return witos::Status::Ok();
}

witos::Status DurabilityManager::SimulateCrash() {
  journal_.Seal();
  return journal_.DropUnsyncedTail();
}

void DurabilityManager::ApplyRecord(watchit::Cluster* cluster, const JournalRecord& record,
                                    const std::string* only_machine, ReplayState* state,
                                    RecoveryReport* report) {
  state->max_lsn = std::max(state->max_lsn, record.lsn);
  auto reject = [report] { ++report->replay_errors; };
  switch (record.kind) {
    case JournalRecordKind::kCheckpointHeader:
      if (record.nums.size() != 2) {
        return reject();
      }
      if (record.nums[1] > 0) {
        state->max_lsn = std::max(state->max_lsn, record.nums[1] - 1);
      }
      return;
    case JournalRecordKind::kLogAppend: {
      witos::Result<witos::AuditRecord> entry = ChainRecordOf(record);
      if (!entry.ok()) {
        return reject();
      }
      if (only_machine != nullptr && record.strs[0] != *only_machine) {
        return;
      }
      watchit::Machine* machine = cluster->FindMachine(record.strs[0]);
      if (machine == nullptr || !machine->kernel().audit().Restore(std::move(*entry)).ok()) {
        return reject();
      }
      ++report->log_entries_restored;
      return;
    }
    case JournalRecordKind::kEpochSeal: {
      if (record.strs.size() != 1 || record.nums.size() != 5) {
        return reject();
      }
      if (only_machine != nullptr && record.strs[0] != *only_machine) {
        return;
      }
      witos::EpochRoot root;
      root.epoch = record.nums[0];
      root.time_ns = record.time_ns;
      root.prev_root_hash = record.nums[1];
      root.root_hash = record.nums[2];
      root.size = record.nums[3];
      root.head = record.nums[4];
      state->roots[record.strs[0]].push_back(std::move(root));
      return;
    }
    case JournalRecordKind::kCertIssue: {
      if (only_machine != nullptr) {
        return;  // the CA survived a shard kill; its books are live
      }
      if (record.strs.size() != 4 || record.nums.size() != 4) {
        return reject();
      }
      watchit::Certificate cert;
      cert.serial = record.nums[0];
      cert.admin = record.strs[0];
      cert.machine = record.strs[1];
      cert.ticket_id = record.strs[2];
      cert.ticket_class = record.strs[3];
      cert.issued_ns = record.nums[1];
      cert.expires_ns = record.nums[2];
      cert.signature = record.nums[3];
      if (!cluster->ca().RestoreIssued(cert).ok()) {
        return reject();
      }
      ++report->certs_restored;
      return;
    }
    case JournalRecordKind::kCertRevoke:
    case JournalRecordKind::kCertRevokeRun: {
      if (only_machine != nullptr) {
        return;
      }
      // A live revocation is a run of one serial.
      const size_t arity = record.kind == JournalRecordKind::kCertRevoke ? 1 : 2;
      if (record.nums.size() != arity) {
        return reject();
      }
      const uint64_t first = record.nums[0];
      const uint64_t last = record.nums[arity - 1];
      if (!cluster->ca().RestoreRevokedRun(first, last).ok()) {
        return reject();
      }
      report->revocations_restored += last - first + 1;
      return;
    }
    case JournalRecordKind::kRecoveryMark:
      return;
  }
  reject();  // unreachable for records DecodeRecordPayload accepted
}

witos::Status DurabilityManager::Replay(watchit::Cluster* cluster,
                                        const std::string* only_machine, ReplayState* state,
                                        RecoveryReport* report) {
  JournalScan checkpoint = ScanJournal(fs_.get(), options_.checkpoint_path);
  if (!checkpoint.clean) {
    // The checkpoint is published by rename: a torn one never exists, so a
    // corrupt scan means tampering or disk rot. Fail closed.
    return witos::Err::kInval;
  }
  JournalScan tail = ScanJournal(fs_.get(), options_.journal_path);
  report->journal_tail_clean = tail.clean;
  report->checkpoint_records = checkpoint.records.size();
  report->tail_records = tail.records.size();
  for (const JournalRecord& record : checkpoint.records) {
    ApplyRecord(cluster, record, only_machine, state, report);
  }
  for (const JournalRecord& record : tail.records) {
    ApplyRecord(cluster, record, only_machine, state, report);
  }
  report->records_replayed = report->checkpoint_records + report->tail_records;

  // Epoch roots install only after every record is back, then re-verify
  // against the rebuilt chains (the rewrite-and-rechain defence holds
  // across the crash).
  for (auto& [machine_name, roots] : state->roots) {
    watchit::Machine* machine = cluster->FindMachine(machine_name);
    if (machine == nullptr) {
      ++report->replay_errors;
      report->epoch_roots_verified = false;
      continue;
    }
    report->epoch_roots_restored += roots.size();
    if (!machine->kernel().audit().RestoreEpochRoots(std::move(roots))) {
      report->epoch_roots_verified = false;
    }
  }
  return witos::Status::Ok();
}

void DurabilityManager::Reconcile(watchit::Cluster* cluster, const std::string* only_machine,
                                  RecoveryReport* report) {
  // Sessions and their broker bindings died with the machine, so no Login
  // of a live certificate acts again, but the certificate is in the CA's
  // books: none may outlive its session ("revoked once the ticket time
  // expires" — a crash is the hardest expiry). The snapshot holds only live
  // certificates. Each revocation is journaled like any other.
  watchit::CertificateAuthority& ca = cluster->ca();
  for (const watchit::Certificate& cert : ca.IssuedSnapshot()) {
    if (only_machine != nullptr && cert.machine != *only_machine) {
      continue;
    }
    ca.Revoke(cert.serial);
    ++report->certs_revoked_at_recovery;
  }
}

witos::Result<RecoveryReport> DurabilityManager::Recover(watchit::Cluster* cluster) {
  if (recovered_) {
    return witos::Err::kSrch;  // one-shot: no double replay
  }
  if (cluster_ != nullptr || cluster == nullptr) {
    return witos::Err::kInval;
  }
  const auto started = std::chrono::steady_clock::now();
  RecoveryReport report;
  ReplayState state;
  WITOS_RETURN_IF_ERROR(Replay(cluster, nullptr, &state, &report));
  journal_.set_next_lsn(state.max_lsn + 1);
  Attach(cluster);
  Reconcile(cluster, nullptr, &report);
  // Fold the recovered state into a fresh checkpoint so a second crash
  // recovers from the compacted base, not the whole pre-crash journal. A
  // failure here leaves checkpoint+journal still consistent.
  (void)Checkpoint();
  Journaled(WriteRecoveryMark(&journal_, report));
  recovered_ = true;
  report.machines_recovered = cluster->size();
  report.recovery_wall_ns = ElapsedNs(started);
  PublishRecovery(report);
  return report;
}

witos::Result<RecoveryReport> DurabilityManager::RecoverMachine(const std::string& machine_name) {
  if (cluster_ == nullptr) {
    return witos::Err::kInval;
  }
  const auto started = std::chrono::steady_clock::now();
  watchit::Machine* fresh = cluster_->ReplaceMachine(machine_name);
  if (fresh == nullptr) {
    return witos::Err::kSrch;
  }
  RecoveryReport report;
  ReplayState state;
  WITOS_RETURN_IF_ERROR(Replay(cluster_, &machine_name, &state, &report));
  AttachMachine(fresh);
  Reconcile(cluster_, &machine_name, &report);
  Journaled(WriteRecoveryMark(&journal_, report));
  report.machines_recovered = 1;
  report.recovery_wall_ns = ElapsedNs(started);
  PublishRecovery(report);
  return report;
}

void DurabilityManager::PublishRecovery(const RecoveryReport& report) {
  if (recovery_runs_ != nullptr) {
    recovery_runs_->Increment();
  }
  if (metrics_ != nullptr) {
    metrics_->GetGauge("watchit_recovery_records_replayed")
        ->Set(static_cast<int64_t>(report.records_replayed));
    metrics_->GetGauge("watchit_recovery_certs_revoked")
        ->Set(static_cast<int64_t>(report.certs_revoked_at_recovery));
  }
  RefreshGauges();
}

void DurabilityManager::EnableMetrics(witobs::MetricsRegistry* registry) {
  metrics_ = registry;
  journal_.EnableMetrics(registry);
  if (registry == nullptr) {
    recovery_runs_ = nullptr;
    return;
  }
  registry->SetHelp("watchit_recovery_runs_total", "Completed crash recoveries");
  recovery_runs_ = registry->GetCounter("watchit_recovery_runs_total");
  RefreshGauges();
}

void DurabilityManager::RefreshGauges() {
  if (metrics_ == nullptr || cluster_ == nullptr) {
    return;
  }
  for (size_t i = 0; i < cluster_->size(); ++i) {
    watchit::Machine& machine = cluster_->machine(i);
    const witobs::Labels labels{{"machine", machine.name()}};
    metrics_->GetGauge("watchit_securelog_entries", labels)
        ->Set(static_cast<int64_t>(machine.kernel().audit().size()));
    metrics_->GetGauge("watchit_securelog_epochs", labels)
        ->Set(static_cast<int64_t>(machine.kernel().audit().epoch_count()));
    metrics_->GetGauge("watchit_broker_bound_tickets", labels)
        ->Set(static_cast<int64_t>(machine.broker().bound_ticket_count()));
  }
  metrics_->GetGauge("watchit_ca_issued")
      ->Set(static_cast<int64_t>(cluster_->ca().issued_count()));
  metrics_->GetGauge("watchit_ca_revoked")
      ->Set(static_cast<int64_t>(cluster_->ca().revoked_count()));
}

}  // namespace witdur
