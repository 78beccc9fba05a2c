// witjournal/witcrash end-to-end tests: journaled deploy traffic, crash
// simulation, checkpoint cadence, full-pool and single-machine recovery,
// post-recovery metrics, the FaultPlan crash-trigger regression (a crash
// point must not perturb the errno decision stream), corrupt-tail recovery,
// and the stage × scope crash sweep's zero-leak invariant.

#include "src/durability/crash.h"
#include "src/durability/durability.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/core/cluster.h"
#include "src/core/session.h"
#include "src/durability/journal.h"
#include "src/obs/metrics.h"
#include "src/os/fault.h"
#include "src/os/memfs.h"

namespace witdur {
namespace {

const witos::Credentials kRoot{};

watchit::Ticket MakeTicket(const std::string& id, const std::string& machine) {
  watchit::Ticket ticket;
  ticket.id = id;
  ticket.target_machine = machine;
  ticket.assigned_class = "T-1";
  ticket.admin = "alice";
  return ticket;
}

// A two-machine cluster with journaled deploy + evidence traffic: four
// deploys (two expired before the crash, two live), a dozen more broker
// records and one sealed epoch root per machine.
struct Workload {
  std::shared_ptr<witos::MemFs> fs = std::make_shared<witos::MemFs>();
  std::unique_ptr<watchit::Cluster> cluster;
  std::unique_ptr<DurabilityManager> manager;
  std::vector<watchit::Deployment> live;
  std::vector<size_t> log_sizes;
  size_t issued = 0;
  size_t revoked = 0;

  explicit Workload(DurabilityManager::Options options = {}) {
    cluster = std::make_unique<watchit::Cluster>();
    cluster->AddMachine("host0", witnet::Ipv4Addr(10, 0, 3, 10));
    cluster->AddMachine("host1", witnet::Ipv4Addr(10, 0, 3, 11));
    manager = std::make_unique<DurabilityManager>(fs, options);
    manager->Attach(cluster.get());
  }

  void Drive() {
    watchit::ClusterManager cm(cluster.get());
    for (int i = 0; i < 4; ++i) {
      const std::string host = i % 2 == 0 ? "host0" : "host1";
      auto deployment = cm.Deploy(MakeTicket("TKT-" + std::to_string(i), host));
      ASSERT_TRUE(deployment.ok());
      if (i < 2) {
        ASSERT_TRUE(cm.Expire(&*deployment).ok());
      } else {
        live.push_back(*deployment);
      }
    }
    for (size_t m = 0; m < cluster->size(); ++m) {
      witos::AuditLog& log = cluster->machine(m).kernel().audit();
      for (uint64_t i = 0; i < 12; ++i) {
        log.Append(witos::AuditEvent::kBrokerRequest, witos::kNoPid, 0,
                   "pb-op-" + std::to_string(i), 1000 + i);
      }
      log.SealEpoch(2000);
      log_sizes.push_back(log.size());
    }
    issued = cluster->ca().issued_count();
    revoked = cluster->ca().revoked_count();
  }
};

size_t UnrevokedCerts(watchit::Cluster* cluster) {
  size_t unrevoked = 0;
  for (const watchit::Certificate& cert : cluster->ca().IssuedSnapshot()) {
    if (!cluster->ca().IsRevoked(cert.serial)) {
      ++unrevoked;
    }
  }
  return unrevoked;
}

std::unique_ptr<watchit::Cluster> FreshTwin() {
  auto twin = std::make_unique<watchit::Cluster>();
  twin->AddMachine("host0", witnet::Ipv4Addr(10, 0, 3, 10));
  twin->AddMachine("host1", witnet::Ipv4Addr(10, 0, 3, 11));
  return twin;
}

// --- full-pool crash + recovery ----------------------------------------------

TEST(CrashRecoveryTest, PoolCrashRecoversStateAndExpiresOrphans) {
  Workload world;
  world.Drive();
  ASSERT_EQ(world.issued, 4u);
  ASSERT_EQ(world.revoked, 2u);
  ASSERT_TRUE(world.manager->SimulateCrash().ok());

  auto twin = FreshTwin();
  DurabilityManager recovered(world.fs);
  auto report = recovered.Recover(twin.get());
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->journal_tail_clean);  // every record is fsynced: nothing torn
  EXPECT_EQ(report->replay_errors, 0u);
  EXPECT_TRUE(report->epoch_roots_verified);
  EXPECT_EQ(report->certs_revoked_at_recovery, 2u);  // the two live tickets' certs
  EXPECT_GT(report->records_replayed, 0u);

  // The audit evidence survived byte-for-byte: same chains, same roots.
  for (size_t m = 0; m < twin->size(); ++m) {
    EXPECT_EQ(twin->machine(m).broker().log().size(), world.log_sizes[m]);
    EXPECT_EQ(twin->machine(m).broker().log().epoch_count(), 1u);
    EXPECT_TRUE(twin->machine(m).broker().log().Verify());
    EXPECT_EQ(twin->machine(m).broker().bound_ticket_count(), 0u);
  }
  watchit::Cluster::AuditReport audit = twin->VerifyAuditTrail();
  EXPECT_EQ(audit.failures, 0u);
  EXPECT_EQ(audit.epoch_roots, 2u);

  // Zero leaks: the crash is the hardest expiry.
  EXPECT_EQ(twin->ca().issued_count(), 4u);
  EXPECT_EQ(twin->ca().revoked_count(), 4u);
  EXPECT_EQ(UnrevokedCerts(twin.get()), 0u);
}

// A deploy and its expiry journal exactly what recovery keeps: the chain
// records they appended, one cert_issue and one cert_revoke. The broker
// binding lives and dies with the session and leaves no journal record.
TEST(CrashRecoveryTest, DeployAndExpireJournalOnlyWhatRecoveryKeeps) {
  Workload world;
  auto chain_records = [&world] {
    size_t total = 0;
    for (size_t m = 0; m < world.cluster->size(); ++m) {
      total += world.cluster->machine(m).kernel().audit().size();
    }
    return total;
  };
  const size_t chain_before = chain_records();
  const size_t journal_before = ScanJournal(world.fs.get(), "/journal.wal").records.size();
  watchit::ClusterManager cm(world.cluster.get());
  auto deployment = cm.Deploy(MakeTicket("TKT-ONE", "host0"));
  ASSERT_TRUE(deployment.ok());
  ASSERT_TRUE(cm.Expire(&*deployment).ok());
  const size_t appended = chain_records() - chain_before;
  ASSERT_GT(appended, 0u);

  JournalScan journal = ScanJournal(world.fs.get(), "/journal.wal");
  ASSERT_TRUE(journal.clean) << journal.error;
  ASSERT_GE(journal.records.size(), journal_before);
  EXPECT_EQ(journal.records.size() - journal_before, appended + 2);
  size_t log_appends = 0;
  size_t issues = 0;
  size_t revokes = 0;
  for (const JournalRecord& record : std::span(journal.records).subspan(journal_before)) {
    log_appends += record.kind == JournalRecordKind::kLogAppend ? 1 : 0;
    issues += record.kind == JournalRecordKind::kCertIssue ? 1 : 0;
    revokes += record.kind == JournalRecordKind::kCertRevoke ? 1 : 0;
  }
  EXPECT_EQ(log_appends, appended);
  EXPECT_EQ(issues, 1u);
  EXPECT_EQ(revokes, 1u);
}

// A checkpoint holds live certificates only and the revoked serials as
// runs: taken once every ticket has expired, it carries no cert_issue
// record and one run record, and a recovery from it keeps both CA counts
// and issues fresh serials past the revoked ones.
TEST(CrashRecoveryTest, CheckpointAfterEveryExpiryHoldsNoCertificates) {
  Workload world;
  watchit::ClusterManager cm(world.cluster.get());
  for (int i = 0; i < 6; ++i) {
    auto deployment =
        cm.Deploy(MakeTicket("TKT-" + std::to_string(i), i % 2 == 0 ? "host0" : "host1"));
    ASSERT_TRUE(deployment.ok());
    ASSERT_TRUE(cm.Expire(&*deployment).ok());
  }
  ASSERT_TRUE(world.manager->Checkpoint().ok());
  JournalScan checkpoint = ScanJournal(world.fs.get(), DurabilityManager::Options().checkpoint_path);
  ASSERT_TRUE(checkpoint.clean) << checkpoint.error;
  size_t issues = 0;
  size_t revokes = 0;
  std::vector<std::vector<uint64_t>> runs;
  for (const JournalRecord& record : checkpoint.records) {
    issues += record.kind == JournalRecordKind::kCertIssue ? 1 : 0;
    revokes += record.kind == JournalRecordKind::kCertRevoke ? 1 : 0;
    if (record.kind == JournalRecordKind::kCertRevokeRun) {
      runs.push_back(record.nums);
    }
  }
  EXPECT_EQ(issues, 0u);
  EXPECT_EQ(revokes, 0u);
  EXPECT_EQ(runs, (std::vector<std::vector<uint64_t>>{{1, 6}}));

  ASSERT_TRUE(world.manager->SimulateCrash().ok());
  auto twin = FreshTwin();
  DurabilityManager recovered(world.fs);
  auto report = recovered.Recover(twin.get());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->replay_errors, 0u);
  EXPECT_EQ(report->certs_restored, 0u);
  EXPECT_EQ(report->revocations_restored, 6u);
  EXPECT_EQ(twin->ca().issued_count(), 6u);
  EXPECT_EQ(twin->ca().revoked_count(), 6u);
  watchit::ClusterManager again(twin.get());
  auto redeploy = again.Deploy(MakeTicket("TKT-NEW", "host0"));
  ASSERT_TRUE(redeploy.ok());
  EXPECT_EQ(redeploy->certificate.serial, 7u);
}

TEST(CrashRecoveryTest, RecoveredPoolKeepsServing) {
  Workload world;
  world.Drive();
  ASSERT_TRUE(world.manager->SimulateCrash().ok());

  auto twin = FreshTwin();
  DurabilityManager recovered(world.fs);
  ASSERT_TRUE(recovered.Recover(twin.get()).ok());

  // New deploys issue fresh serials (next_serial advanced past the replay).
  watchit::ClusterManager cm(twin.get());
  auto deployment = cm.Deploy(MakeTicket("TKT-NEW", "host0"));
  ASSERT_TRUE(deployment.ok());
  EXPECT_GT(deployment->certificate.serial, 4u);
  EXPECT_TRUE(twin->machine(0).broker().IsTicketBound("TKT-NEW"));
  // And the new traffic is journaled: a second crash+recovery sees it.
  ASSERT_TRUE(recovered.SimulateCrash().ok());
  auto third = FreshTwin();
  DurabilityManager again(world.fs);
  auto report = again.Recover(third.get());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(third->ca().issued_count(), 5u);
  EXPECT_EQ(UnrevokedCerts(third.get()), 0u);
}

TEST(CrashRecoveryTest, SecondRecoverIsRefused) {
  Workload world;
  world.Drive();
  ASSERT_TRUE(world.manager->SimulateCrash().ok());

  auto twin = FreshTwin();
  DurabilityManager recovered(world.fs);
  ASSERT_TRUE(recovered.Recover(twin.get()).ok());
  const size_t revoked_once = twin->ca().revoked_count();

  // One-shot: a second replay would re-apply every record (double binds,
  // double revocations). ESRCH, and the CA books are untouched.
  auto twin2 = FreshTwin();
  EXPECT_EQ(recovered.Recover(twin2.get()).error(), witos::Err::kSrch);
  EXPECT_EQ(twin->ca().revoked_count(), revoked_once);
  // A manager already attached to live state refuses as well (EINVAL).
  DurabilityManager attached(world.fs);
  attached.Attach(twin2.get());
  EXPECT_EQ(attached.Recover(twin2.get()).error(), witos::Err::kInval);
}

// --- checkpoints -------------------------------------------------------------

TEST(CrashRecoveryTest, CheckpointTruncatesJournalAndRecoveryUsesIt) {
  DurabilityManager::Options options;
  options.checkpoint_interval = 8;
  Workload world(options);
  world.Drive();

  // The workload journaled well past the cadence: a checkpoint is due.
  EXPECT_TRUE(world.manager->checkpoint_due());
  ASSERT_TRUE(world.manager->MaybeCheckpoint().ok());
  EXPECT_EQ(world.manager->checkpoints_taken(), 1u);
  EXPECT_FALSE(world.manager->checkpoint_due());

  // The journal was compacted into the checkpoint file.
  JournalScan tail = ScanJournal(world.fs.get(), "/journal.wal");
  EXPECT_TRUE(tail.clean);
  EXPECT_TRUE(tail.records.empty());
  JournalScan checkpoint = ScanJournal(world.fs.get(), "/checkpoint.wcp");
  EXPECT_TRUE(checkpoint.clean);
  ASSERT_FALSE(checkpoint.records.empty());
  EXPECT_EQ(checkpoint.records[0].kind, JournalRecordKind::kCheckpointHeader);

  // Post-checkpoint traffic lands in the (fresh) journal; recovery folds
  // checkpoint + tail together.
  watchit::ClusterManager cm(world.cluster.get());
  auto extra = cm.Deploy(MakeTicket("TKT-TAIL", "host1"));
  ASSERT_TRUE(extra.ok());
  // The tail deploy's own evidence record lands in host1's chain.
  std::vector<size_t> chain_sizes;
  for (size_t m = 0; m < world.cluster->size(); ++m) {
    chain_sizes.push_back(world.cluster->machine(m).kernel().audit().size());
  }
  EXPECT_GT(chain_sizes[1], world.log_sizes[1]);
  ASSERT_TRUE(world.manager->SimulateCrash().ok());

  auto twin = FreshTwin();
  DurabilityManager recovered(world.fs, options);
  auto report = recovered.Recover(twin.get());
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->checkpoint_records, 0u);
  EXPECT_GT(report->tail_records, 0u);
  EXPECT_EQ(report->replay_errors, 0u);
  for (size_t m = 0; m < twin->size(); ++m) {
    EXPECT_EQ(twin->machine(m).broker().log().size(), chain_sizes[m]);
    EXPECT_TRUE(twin->machine(m).broker().log().Verify());
  }
  EXPECT_EQ(twin->ca().issued_count(), 5u);  // 4 + the tail deploy
  EXPECT_EQ(UnrevokedCerts(twin.get()), 0u);
  EXPECT_EQ(twin->VerifyAuditTrail().failures, 0u);
}

TEST(CrashRecoveryTest, CheckpointIsAtomicAgainstRecovery) {
  Workload world;
  world.Drive();
  ASSERT_TRUE(world.manager->Checkpoint().ok());
  // A leftover .tmp from a hypothetical torn checkpoint must be ignored —
  // only the renamed file is the checkpoint.
  world.fs->ProvisionFile("/checkpoint.wcp.tmp", "torn garbage");
  ASSERT_TRUE(world.manager->SimulateCrash().ok());

  auto twin = FreshTwin();
  DurabilityManager recovered(world.fs);
  auto report = recovered.Recover(twin.get());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->replay_errors, 0u);
  EXPECT_EQ(twin->VerifyAuditTrail().failures, 0u);
}

// --- single-machine (shard) recovery ----------------------------------------

TEST(CrashRecoveryTest, RecoverMachineRebootsOneShardInPlace) {
  Workload world;
  world.Drive();  // TKT-2 live on host0, TKT-3 live on host1
  const size_t host0_log = world.log_sizes[0];

  auto report = world.manager->RecoverMachine("host0");
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->machines_recovered, 1u);
  EXPECT_EQ(report->replay_errors, 0u);

  watchit::Machine* host0 = world.cluster->FindMachine("host0");
  ASSERT_NE(host0, nullptr);
  // host0's audit history survived the reboot; its live binding did not.
  EXPECT_EQ(host0->broker().log().size(), host0_log);
  EXPECT_TRUE(host0->broker().log().Verify());
  EXPECT_EQ(host0->broker().bound_ticket_count(), 0u);
  EXPECT_EQ(host0->containit().active_sessions(), 0u);

  // host1 was untouched: its deployment is still live, its cert valid.
  watchit::Machine* host1 = world.cluster->FindMachine("host1");
  EXPECT_TRUE(host1->broker().IsTicketBound("TKT-3"));
  size_t host1_unrevoked = 0;
  for (const watchit::Certificate& cert : world.cluster->ca().IssuedSnapshot()) {
    if (cert.machine == "host1" && !world.cluster->ca().IsRevoked(cert.serial)) {
      ++host1_unrevoked;
    }
  }
  EXPECT_EQ(host1_unrevoked, 1u);
  // host0's orphaned cert was revoked by the reconcile.
  for (const watchit::Certificate& cert : world.cluster->ca().IssuedSnapshot()) {
    if (cert.machine == "host0") {
      EXPECT_TRUE(world.cluster->ca().IsRevoked(cert.serial));
    }
  }
  EXPECT_EQ(world.cluster->VerifyAuditTrail().failures, 0u);

  // The rebooted shard keeps serving, and the journal captured the reboot:
  // a later full recovery replays a consistent history.
  watchit::ClusterManager cm(world.cluster.get());
  ASSERT_TRUE(cm.Deploy(MakeTicket("TKT-AFTER", "host0")).ok());
  EXPECT_EQ(world.manager->RecoverMachine("nosuch").error(), witos::Err::kSrch);
}

// --- post-recovery metrics (gauges re-seeded, not zeroed) --------------------

TEST(CrashRecoveryTest, RecoveredGaugesReportReplayedState) {
  Workload world;
  world.Drive();
  ASSERT_TRUE(world.manager->SimulateCrash().ok());

  auto twin = FreshTwin();
  witobs::MetricsRegistry registry;
  DurabilityManager recovered(world.fs);
  recovered.EnableMetrics(&registry);
  auto report = recovered.Recover(twin.get());
  ASSERT_TRUE(report.ok());

  for (size_t m = 0; m < twin->size(); ++m) {
    const witobs::Labels labels{{"machine", twin->machine(m).name()}};
    EXPECT_EQ(registry.GaugeValue("watchit_securelog_entries", labels),
              static_cast<int64_t>(world.log_sizes[m]));
    EXPECT_GT(registry.GaugeValue("watchit_securelog_entries", labels), 0);
    EXPECT_EQ(registry.GaugeValue("watchit_securelog_epochs", labels), 1);
    EXPECT_EQ(registry.GaugeValue("watchit_broker_bound_tickets", labels), 0);
  }
  EXPECT_EQ(registry.GaugeValue("watchit_ca_issued"), 4);
  EXPECT_EQ(registry.GaugeValue("watchit_ca_revoked"), 4);
  EXPECT_EQ(registry.GaugeValue("watchit_recovery_records_replayed"),
            static_cast<int64_t>(report->records_replayed));
  EXPECT_EQ(registry.GaugeValue("watchit_recovery_certs_revoked"), 2);
  EXPECT_EQ(registry.CounterValue("watchit_recovery_runs_total"), 1u);
  EXPECT_GT(registry.CounterValue("watchit_journal_records_total"), 0u);
}

// --- FaultPlan crash triggers ------------------------------------------------

// Satellite regression: registering a crash point must leave every errno
// decision of an otherwise-identical plan byte-for-byte unchanged — same
// injected faults, same PRNG draws, same counters.
TEST(CrashTriggerTest, CrashPointDoesNotPerturbErrnoDecisions) {
  witos::FaultPlan baseline(/*seed=*/1234);
  baseline.FailNthOp(witos::FaultOpKind::kWrite, 3, witos::Err::kIo);
  baseline.FailEveryNthCall(7, witos::Err::kNoSpc);
  baseline.FailWithProbability(0.2, witos::Err::kNoMem);

  witos::FaultPlan with_crash(/*seed=*/1234);
  with_crash.FailNthOp(witos::FaultOpKind::kWrite, 3, witos::Err::kIo);
  with_crash.FailEveryNthCall(7, witos::Err::kNoSpc);
  with_crash.FailWithProbability(0.2, witos::Err::kNoMem);
  with_crash.CrashAtNthCall(5);
  with_crash.CrashAtNthOp(witos::FaultOpKind::kRead, 4);

  const witos::FaultOpKind ops[] = {witos::FaultOpKind::kWrite, witos::FaultOpKind::kRead,
                                    witos::FaultOpKind::kOpen};
  uint64_t crash_calls = 0;
  for (int i = 0; i < 60; ++i) {
    witos::FaultOpKind op = ops[i % 3];
    witos::Err a = baseline.Decide(op);
    witos::Err b = with_crash.Decide(op);
    EXPECT_EQ(a, b) << "decision diverged at call " << i;
    if (with_crash.crash_pending()) {
      ++crash_calls;
      EXPECT_TRUE(with_crash.ConsumeCrash());
      EXPECT_FALSE(with_crash.crash_pending());
    }
  }
  EXPECT_EQ(baseline.calls(), with_crash.calls());
  EXPECT_EQ(baseline.injected(), with_crash.injected());
  EXPECT_EQ(with_crash.crashes(), 2u);  // nth-call 5 and 4th read
  EXPECT_EQ(crash_calls, 2u);

  // Rewind clears the latch and the crash count, like every other counter.
  with_crash.Rewind();
  EXPECT_FALSE(with_crash.crash_pending());
  EXPECT_EQ(with_crash.crashes(), 0u);
}

// --- corrupt journal tails ---------------------------------------------------

TEST(CrashRecoveryTest, CorruptJournalTailRecoversFailClosed) {
  Workload world;
  world.Drive();
  ASSERT_TRUE(world.manager->SimulateCrash().ok());

  // Flip a byte three quarters into the journal: the scan must reject from
  // there on and recovery must still produce a leak-free pool.
  auto raw = world.fs->SlurpForTest("/journal.wal");
  ASSERT_TRUE(raw.ok());
  const uint64_t pos = raw->size() * 3 / 4;
  std::string flipped(1, static_cast<char>((*raw)[pos] ^ 0x10));
  ASSERT_TRUE(world.fs->WriteAt("/journal.wal", pos, flipped, kRoot).ok());

  auto twin = FreshTwin();
  DurabilityManager recovered(world.fs);
  auto report = recovered.Recover(twin.get());
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->journal_tail_clean);
  // Whatever prefix replayed, the reconcile leaves no leaks behind.
  for (size_t m = 0; m < twin->size(); ++m) {
    EXPECT_EQ(twin->machine(m).broker().bound_ticket_count(), 0u);
    EXPECT_TRUE(witos::AuditLog::VerifyChain(twin->machine(m).kernel().audit().Snapshot()));
  }
  EXPECT_EQ(UnrevokedCerts(twin.get()), 0u);
}

TEST(CrashRecoveryTest, CorruptCheckpointIsRefused) {
  Workload world;
  world.Drive();
  ASSERT_TRUE(world.manager->Checkpoint().ok());
  auto raw = world.fs->SlurpForTest("/checkpoint.wcp");
  ASSERT_TRUE(raw.ok());
  std::string flipped(1, static_cast<char>((*raw)[raw->size() / 2] ^ 0x01));
  ASSERT_TRUE(world.fs->WriteAt("/checkpoint.wcp", raw->size() / 2, flipped, kRoot).ok());
  ASSERT_TRUE(world.manager->SimulateCrash().ok());

  // A checkpoint is written whole and renamed into place; one that fails
  // its own checksums is tampering, not a torn tail. Recovery fails closed.
  auto twin = FreshTwin();
  DurabilityManager recovered(world.fs);
  EXPECT_EQ(recovered.Recover(twin.get()).error(), witos::Err::kInval);
}

// --- journal format and fail-closed restore ----------------------------------

// Rewrites every frame's magic to an earlier format's (`magic`), leaving
// the checksums, lengths and payloads intact.
std::string WithOldMagic(std::string bytes, const char* magic) {
  // Frame = magic(4) + checksum(8) + len(4, little-endian) + payload.
  size_t pos = 0;
  while (pos + 16 <= bytes.size()) {
    bytes.replace(pos, 4, magic);
    uint32_t len = 0;
    for (size_t i = 0; i < 4; ++i) {
      len |= static_cast<uint32_t>(static_cast<unsigned char>(bytes[pos + 12 + i])) << (8 * i);
    }
    pos += 16 + len;
  }
  return bytes;
}

// Every earlier format fails the magic check. WJL1 and WJL2 log-append
// records carried a broker line, not the typed record the chain hashes;
// WJL3 numbered the recovery mark 12, after four deploy-trail kinds; WJL4
// had two broker-binding kinds and numbered the log append 4.
constexpr const char* kOldMagics[] = {"WJL1", "WJL2", "WJL3", "WJL4"};

// A checkpoint in an earlier format is refused whole.
TEST(CrashRecoveryTest, OldFormatCheckpointIsRefused) {
  for (const char* magic : kOldMagics) {
    SCOPED_TRACE(magic);
    Workload world;
    world.Drive();
    ASSERT_TRUE(world.manager->Checkpoint().ok());
    auto raw = world.fs->SlurpForTest("/checkpoint.wcp");
    ASSERT_TRUE(raw.ok());
    ASSERT_TRUE(world.fs->WriteAt("/checkpoint.wcp", 0, WithOldMagic(*raw, magic), kRoot).ok());
    ASSERT_TRUE(world.manager->SimulateCrash().ok());

    auto twin = FreshTwin();
    DurabilityManager recovered(world.fs);
    EXPECT_EQ(recovered.Recover(twin.get()).error(), witos::Err::kInval);
  }
}

// A journal tail in an earlier format replays nothing.
TEST(CrashRecoveryTest, OldFormatJournalTailReplaysNothing) {
  for (const char* magic : kOldMagics) {
    SCOPED_TRACE(magic);
    Workload world;
    world.Drive();
    ASSERT_TRUE(world.manager->SimulateCrash().ok());
    auto raw = world.fs->SlurpForTest("/journal.wal");
    ASSERT_TRUE(raw.ok());
    ASSERT_FALSE(raw->empty());
    ASSERT_TRUE(world.fs->WriteAt("/journal.wal", 0, WithOldMagic(*raw, magic), kRoot).ok());

    auto twin = FreshTwin();
    DurabilityManager recovered(world.fs);
    auto report = recovered.Recover(twin.get());
    ASSERT_TRUE(report.ok());
    EXPECT_FALSE(report->journal_tail_clean);
    EXPECT_EQ(report->tail_records, 0u);
    EXPECT_EQ(report->records_replayed, 0u);
    for (size_t m = 0; m < twin->size(); ++m) {
      EXPECT_EQ(twin->machine(m).broker().log().size(), 0u);
      EXPECT_EQ(twin->machine(m).broker().bound_ticket_count(), 0u);
    }
  }
}

// Regression: restore used to skip the hash check when the journaled hash
// was 0, so a forged tail record claiming hash 0 entered the chain as a
// genuine line with no replay error. Every journaled hash is checked now.
TEST(CrashRecoveryTest, ZeroHashLogRecordNeverEntersTheChain) {
  Workload world;
  world.Drive();
  ASSERT_TRUE(world.manager->SimulateCrash().ok());
  const std::string forged = "GRANT mallory TKT-3 [T-6] install netcat";
  JournalRecord record;
  record.kind = JournalRecordKind::kLogAppend;
  record.lsn = 1'000'000;
  record.time_ns = 5000;
  record.strs = {"host0", forged};
  record.nums = {0, static_cast<uint64_t>(witos::AuditEvent::kBrokerRequest), 0, 0};  // hash 0
  auto raw = world.fs->SlurpForTest("/journal.wal");
  ASSERT_TRUE(raw.ok());
  ASSERT_TRUE(world.fs->WriteAt("/journal.wal", raw->size(), EncodeRecord(record), kRoot).ok());

  auto twin = FreshTwin();
  DurabilityManager recovered(world.fs);
  auto report = recovered.Recover(twin.get());
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->journal_tail_clean);
  EXPECT_EQ(report->replay_errors, 1u);
  const witos::AuditLog& log = twin->FindMachine("host0")->kernel().audit();
  EXPECT_EQ(log.size(), world.log_sizes[0]);
  for (const witos::AuditRecord& entry : log.Snapshot()) {
    EXPECT_NE(entry.detail, forged);
  }
  EXPECT_TRUE(log.Verify());
}

// Kernel denials are evidence like broker requests: a denied document read
// (ITFS) and an XCL hit (the VFS) journaled before the crash are in the
// recovered chain, in order, and the chain verifies.
TEST(CrashRecoveryTest, KernelDenialsSurviveRecover) {
  Workload world;
  world.Drive();
  watchit::Machine* host0 = world.cluster->FindMachine("host0");
  watchit::ClusterManager cm(world.cluster.get());
  watchit::Ticket ticket = MakeTicket("TKT-DOCS", "host0");
  ticket.assigned_class = "T-6";
  auto deployment = cm.Deploy(ticket);
  ASSERT_TRUE(deployment.ok());
  watchit::AdminSession session(host0, deployment->session, deployment->certificate,
                                &world.cluster->ca());
  ASSERT_TRUE(session.Login().ok());
  EXPECT_FALSE(session.ReadFile("/home/user/documents/payroll.xlsx").ok());
  witos::Kernel& kernel = host0->kernel();
  const witos::Pid probe = *kernel.Clone(1, "probe", witos::kCloneNewXcl);
  ASSERT_TRUE(kernel.XclAdd(probe, "/home/user").ok());
  kernel.clock().Advance(12345);
  EXPECT_FALSE(kernel.ReadFile(probe, "/home/user/notes.txt").ok());
  auto is_denial = [](const witos::AuditRecord& record) {
    return record.event == witos::AuditEvent::kFileDenied ||
           record.event == witos::AuditEvent::kXclDenied;
  };
  const auto denials = kernel.audit().Filter(is_denial);
  ASSERT_GE(denials.size(), 2u);
  EXPECT_EQ(denials.front().event, witos::AuditEvent::kFileDenied);
  EXPECT_EQ(denials.back().event, witos::AuditEvent::kXclDenied);
  ASSERT_TRUE(world.manager->SimulateCrash().ok());

  auto twin = FreshTwin();
  DurabilityManager recovered(world.fs);
  auto report = recovered.Recover(twin.get());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->replay_errors, 0u);
  witos::Kernel& restored = twin->FindMachine("host0")->kernel();
  const auto restored_denials = restored.audit().Filter(is_denial);
  ASSERT_EQ(restored_denials.size(), denials.size());
  for (size_t i = 0; i < denials.size(); ++i) {
    EXPECT_EQ(restored_denials[i].seq, denials[i].seq);
    EXPECT_EQ(restored_denials[i].time_ns, denials[i].time_ns);
    EXPECT_EQ(restored_denials[i].event, denials[i].event);
    EXPECT_EQ(restored_denials[i].pid, denials[i].pid);
    EXPECT_EQ(restored_denials[i].uid, denials[i].uid);
    EXPECT_EQ(restored_denials[i].detail, denials[i].detail);
  }
  EXPECT_TRUE(twin->FindMachine("host0")->broker().log().Verify());
}

// --- the crash-point sweep ---------------------------------------------------

TEST(CrashSweepTest, EveryStageAndScopeRecoversWithZeroLeaks) {
  witcrash::CrashHarness::Options options;
  options.machines = 3;
  options.tickets = 12;
  options.checkpoint_interval = 16;
  witcrash::CrashHarness harness(options);

  const auto reports = harness.RunSweep(/*nth_arrival=*/2);
  ASSERT_EQ(reports.size(), 2 * watchit::kNumDeployStages);
  for (const auto& report : reports) {
    EXPECT_TRUE(report.ok()) << witcrash::CrashPointName(report.point) << ": "
                             << report.failure;
    EXPECT_EQ(report.bound_tickets, 0u);
    EXPECT_EQ(report.live_sessions, 0u);
    EXPECT_EQ(report.unrevoked_certs, 0u);
    EXPECT_EQ(report.audit.failures, 0u);
    EXPECT_TRUE(report.gauges_ok);
  }
}

}  // namespace
}  // namespace witdur
