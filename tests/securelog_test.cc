// Tests for the machine's evidence chain, witos::AuditLog (DESIGN.md §14):
// the hash chain and its append order, in-place tampering, the
// rewrite-and-rechain attack caught by epoch roots, the seal cadence,
// fail-closed restore, the encoded arena's edge records and re-encoded
// tails, and the concurrent-appender guarantees the serving path relies on.
// The concurrency cases double as the TSan coverage for the chain's
// "securelog" lock.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/cluster.h"
#include "src/durability/durability.h"
#include "src/os/audit.h"
#include "src/os/memfs.h"

namespace witos {
namespace {

void AppendN(AuditLog* log, uint64_t count, const std::string& prefix = "entry-") {
  for (uint64_t i = 0; i < count; ++i) {
    log->Append(AuditEvent::kSessionEvent, 7, 0, prefix + std::to_string(i), 100 + i);
  }
}

TEST(SecureLogTest, SnapshotIsTheChainInAppendOrder) {
  // The snapshot IS the chain — append order, even when the caller's
  // timestamps are not monotone. Sorting here would break every consumer
  // that replays the chain (and the prefix-validity guarantee).
  AuditLog log;
  log.Append(AuditEvent::kBrokerRequest, 3, 0, "first", 30);
  log.Append(AuditEvent::kFileDenied, kNoPid, 1000, "second", 10);
  log.Append(AuditEvent::kXclDenied, 9, 0, "third", 20);
  EXPECT_EQ(log.size(), 3u);
  auto records = log.Snapshot();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].detail, "first");
  EXPECT_EQ(records[1].detail, "second");
  EXPECT_EQ(records[1].pid, kNoPid);
  EXPECT_EQ(records[1].uid, 1000u);
  EXPECT_EQ(records[2].detail, "third");
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].seq, i + 1);
    EXPECT_EQ(records[i].hash,
              AuditRecord::ComputeHash(records[i], i == 0 ? 0 : records[i - 1].hash));
  }
  EXPECT_TRUE(AuditLog::VerifyChain(records));
  EXPECT_TRUE(log.Verify());
}

// The hash covers the typed fields, not just the detail: a record whose
// event, pid, uid or time is rewritten no longer verifies.
TEST(SecureLogTest, HashCoversEveryTypedField) {
  AuditLog log;
  log.Append(AuditEvent::kFileDenied, 42, 1000, "/home/user/documents/payroll.xlsx", 500);
  const AuditRecord genuine = log.Snapshot()[0];
  auto forge = [&](auto mutate) {
    AuditRecord forged = genuine;
    mutate(&forged);
    return AuditLog::VerifyChain({forged});
  };
  EXPECT_TRUE(forge([](AuditRecord*) {}));
  EXPECT_FALSE(forge([](AuditRecord* r) { r->event = AuditEvent::kFileAccess; }));
  EXPECT_FALSE(forge([](AuditRecord* r) { r->pid = 43; }));
  EXPECT_FALSE(forge([](AuditRecord* r) { r->uid = 0; }));
  EXPECT_FALSE(forge([](AuditRecord* r) { r->time_ns = 501; }));
  EXPECT_FALSE(forge([](AuditRecord* r) { r->detail = "/etc/motd"; }));
}

TEST(SecureLogTest, InPlaceTamperBreaksVerify) {
  for (size_t victim : {size_t{0}, size_t{3}, size_t{39}}) {
    AuditLog log;
    AppendN(&log, 40);
    ASSERT_TRUE(log.Verify());
    log.TamperForTest(victim, "GRANT mallory nothing-to-see");
    EXPECT_FALSE(log.Verify()) << "tampered record " << victim;
    EXPECT_FALSE(AuditLog::VerifyChain(log.Snapshot())) << "tampered record " << victim;
    EXPECT_FALSE(log.VerifiedSnapshot().ok()) << "tampered record " << victim;
  }
}

TEST(SecureLogTest, RewriteAndRechainCaughtByEpochRoots) {
  AuditLog log;
  AppendN(&log, 40);
  log.SealEpoch(/*time_ns=*/200);
  ASSERT_TRUE(log.Verify());

  // The smarter attacker rewrites a sealed record AND recomputes the
  // downstream hashes: the chain alone verifies, the sealed root does not.
  log.TamperForTest(/*index=*/3, "forged", /*rechain=*/true);
  EXPECT_TRUE(AuditLog::VerifyChain(log.Snapshot()));
  EXPECT_FALSE(log.Verify());
  EXPECT_EQ(log.VerifiedSnapshot().error(), Err::kIo);
}

// Past the last sealed root nothing in the log itself can tell: this is
// the case witdur::DurabilityManager::ChainMatchesJournal exists for
// (crash_recovery_test covers it end to end).
TEST(SecureLogTest, RewriteAndRechainPastTheLastRootPassesVerify) {
  AuditLog log;
  AppendN(&log, 40);
  log.SealEpoch(/*time_ns=*/200);
  AppendN(&log, 5, "late-");
  log.TamperForTest(/*index=*/42, "forged", /*rechain=*/true);
  EXPECT_TRUE(log.Verify());
}

TEST(SecureLogTest, EpochRootsChainAndAutoSeal) {
  constexpr uint64_t kInterval = AuditLog::kEpochInterval;
  EXPECT_EQ(kInterval, 256u);
  AuditLog log;
  AppendN(&log, 3 * kInterval + 95);
  // Three intervals' worth of appends → three auto-sealed roots.
  EXPECT_EQ(log.epoch_count(), 3u);
  log.SealEpoch(/*time_ns=*/500);
  auto roots = log.EpochRootsSnapshot();
  ASSERT_EQ(roots.size(), 4u);
  const auto records = log.Snapshot();
  // The manual seal covers everything.
  const uint64_t sizes[] = {kInterval, 2 * kInterval, 3 * kInterval, 3 * kInterval + 95};
  uint64_t prev_hash = 0;
  for (size_t r = 0; r < roots.size(); ++r) {
    EXPECT_EQ(roots[r].epoch, r + 1);
    EXPECT_EQ(roots[r].prev_root_hash, prev_hash);
    EXPECT_EQ(roots[r].root_hash, EpochRoot::ComputeHash(roots[r]));
    EXPECT_EQ(roots[r].size, sizes[r]);
    EXPECT_EQ(roots[r].head, records[sizes[r] - 1].hash);
    prev_hash = roots[r].root_hash;
  }
  EXPECT_TRUE(log.Verify());
}

TEST(SecureLogTest, BatchAppendStaysChainedAndSealsOnce) {
  AuditLog log;
  std::vector<AuditRecord> batch(AuditLog::kEpochInterval + 4);
  for (size_t i = 0; i < batch.size(); ++i) {
    batch[i].event = i % 2 == 0 ? AuditEvent::kBrokerRequest : AuditEvent::kBrokerDenied;
    batch[i].pid = static_cast<Pid>(i);
    batch[i].detail = "op-" + std::to_string(i);
  }
  log.AppendBatch(batch, /*time_ns=*/100);
  auto records = log.Snapshot();
  ASSERT_EQ(records.size(), batch.size());
  EXPECT_TRUE(AuditLog::VerifyChain(records));
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].detail, batch[i].detail);
    EXPECT_EQ(records[i].event, batch[i].event);
    EXPECT_EQ(records[i].pid, batch[i].pid);
    EXPECT_EQ(records[i].time_ns, 100u);
  }
  // One batch crossing the interval seals exactly one root, not one per op,
  // and the root covers the whole batch.
  auto roots = log.EpochRootsSnapshot();
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_EQ(roots[0].size, batch.size());
  EXPECT_TRUE(log.Verify());
}

// Restore checks every journaled hash: there is no "no hash" value that
// skips the check, and a refused record leaves the chain as it was.
TEST(SecureLogTest, RestoreRefusesAHashItCannotReproduce) {
  AuditLog source;
  source.Append(AuditEvent::kBrokerRequest, 5, 0, "GRANT alice TKT-1 [T-1] ps", 100);
  const AuditRecord genuine = source.Snapshot()[0];

  AuditLog restored;
  AuditRecord forged = genuine;
  forged.detail = "GRANT mallory TKT-1 [T-1] install netcat";
  forged.hash = 0;
  EXPECT_EQ(restored.Restore(forged).error(), Err::kInval);
  AuditRecord wrong_hash = genuine;
  wrong_hash.hash += 1;
  EXPECT_EQ(restored.Restore(wrong_hash).error(), Err::kInval);
  AuditRecord wrong_event = genuine;
  wrong_event.event = AuditEvent::kBrokerDenied;
  EXPECT_EQ(restored.Restore(wrong_event).error(), Err::kInval);
  EXPECT_EQ(restored.size(), 0u);
  ASSERT_TRUE(restored.Restore(genuine).ok());
  EXPECT_EQ(restored.Snapshot(), source.Snapshot());
}

TEST(SecureLogTest, RestoredRootsMustMatchTheRebuiltChain) {
  AuditLog source;
  AppendN(&source, 12);
  source.SealEpoch(300);
  AuditLog restored;
  for (const AuditRecord& record : source.Snapshot()) {
    ASSERT_TRUE(restored.Restore(record).ok());
  }
  std::vector<EpochRoot> roots = source.EpochRootsSnapshot();
  std::vector<EpochRoot> bent = roots;
  bent[0].head ^= 1;
  EXPECT_FALSE(restored.RestoreEpochRoots(bent));
  EXPECT_EQ(restored.epoch_count(), 0u);  // fail closed: nothing installed
  EXPECT_TRUE(restored.RestoreEpochRoots(roots));
  EXPECT_EQ(restored.epoch_count(), 1u);
  EXPECT_TRUE(restored.Verify());
}

// ---- The encoded arena ----

// Records at the edges of every encoded field: they come back from the
// arena field for field, and restore into a fresh log under equal hashes.
TEST(SecureLogTest, EdgeRecordsSurviveSnapshotAndRestore) {
  const std::string binary("a\0b\xff\xfe\0", 6);
  std::string big(64 * 1024, '\0');
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<char>(i * 131);
  }
  struct Edge {
    AuditEvent event;
    Pid pid;
    Uid uid;
    std::string detail;
    uint64_t time_ns;
  };
  const std::vector<Edge> edges = {
      {AuditEvent::kSyscallDenied, 0, 0, "", 0},
      {AuditEvent::kSessionEvent, kNoPid, UINT32_MAX, big, UINT64_MAX},
      {AuditEvent::kFileDenied, 1, 1, binary, 1},
      {AuditEvent::kBrokerRequest, INT32_MAX, UINT32_MAX, std::string(1, '\xff'), UINT64_MAX},
      {AuditEvent::kTcbViolation, kNoPid, 0, std::string(1, '\0'), 0},
  };
  AuditLog log;
  for (const Edge& edge : edges) {
    log.Append(edge.event, edge.pid, edge.uid, edge.detail, edge.time_ns);
  }
  const std::vector<AuditRecord> records = log.Snapshot();
  ASSERT_EQ(records.size(), edges.size());
  for (size_t i = 0; i < edges.size(); ++i) {
    EXPECT_EQ(records[i].event, edges[i].event) << i;
    EXPECT_EQ(records[i].pid, edges[i].pid) << i;
    EXPECT_EQ(records[i].uid, edges[i].uid) << i;
    EXPECT_EQ(records[i].detail, edges[i].detail) << i;
    EXPECT_EQ(records[i].time_ns, edges[i].time_ns) << i;
  }
  EXPECT_TRUE(AuditLog::VerifyChain(records));
  EXPECT_TRUE(log.Verify());
  EXPECT_EQ(log.CountEvent(AuditEvent::kTcbViolation), 1u);

  AuditLog restored;
  for (const AuditRecord& record : records) {
    ASSERT_TRUE(restored.Restore(record).ok()) << record.seq;
  }
  EXPECT_EQ(restored.Snapshot(), records);
  EXPECT_TRUE(restored.Verify());
}

// An attacker's rewrite changes the record's length in the arena: every
// later record is re-encoded behind it. A longer, a shorter and an empty
// detail are each caught: in place by Verify, and rechained by Verify
// inside a sealed epoch or by the journal past the last root.
TEST(SecureLogTest, TamperOfAnyLengthIsCaught) {
  struct Case {
    size_t index;
    bool rechain;
  };
  const std::string details[] = {std::string(300, 'L'), "s", ""};
  for (const std::string& detail : details) {
    for (const Case c : {Case{3, false}, Case{42, false}, Case{3, true}, Case{42, true}}) {
      SCOPED_TRACE("detail of " + std::to_string(detail.size()) + " bytes at " +
                   std::to_string(c.index) + (c.rechain ? ", rechained" : ""));
      watchit::Cluster cluster;
      watchit::Machine& machine =
          cluster.AddMachine("host00", witnet::Ipv4Addr(10, 0, 3, 10));
      witdur::DurabilityManager durability(std::make_shared<MemFs>());
      durability.Attach(&cluster);
      ASSERT_TRUE(durability.Checkpoint().ok());  // vouches for the boot records
      AuditLog& log = machine.kernel().audit();
      const size_t base = log.size();
      AppendN(&log, 40);
      log.SealEpoch(200);
      AppendN(&log, 5, "late-");
      ASSERT_TRUE(log.Verify());
      ASSERT_TRUE(durability.ChainMatchesJournal(machine));
      const std::vector<AuditRecord> before = log.Snapshot();

      log.TamperForTest(base + c.index, detail, c.rechain);
      const std::vector<AuditRecord> after = log.Snapshot();
      ASSERT_EQ(after.size(), before.size());
      for (size_t i = 0; i < after.size(); ++i) {
        AuditRecord expected = before[i];
        if (i == base + c.index) {
          expected.detail = detail;
        }
        if (c.rechain && i >= base + c.index) {
          expected.hash = after[i].hash;
        }
        EXPECT_EQ(after[i], expected) << "record " << i;
      }
      const bool sealed = base + c.index < base + 40;
      EXPECT_EQ(log.Verify(), c.rechain && !sealed);
      EXPECT_EQ(AuditLog::VerifyChain(after), c.rechain);
      EXPECT_FALSE(durability.ChainMatchesJournal(machine));
    }
  }
}

// ---- Concurrency (TSan) ----

// Eight appenders on one chain: one linear chain with gap-free seqs, and
// the seal cadence is exact — every root lands on a multiple of the
// interval.
TEST(SecureLogTest, ParallelAppendersKeepChainLinearAndSealOnTheInterval) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  constexpr uint64_t kInterval = AuditLog::kEpochInterval;
  AuditLog log;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log, t] {
      for (int i = 0; i < kPerThread; ++i) {
        log.Append(AuditEvent::kBrokerRequest, t, 0,
                   "req t" + std::to_string(t) + " #" + std::to_string(i),
                   static_cast<uint64_t>(i));
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  const size_t appends = static_cast<size_t>(kThreads) * kPerThread;
  EXPECT_EQ(log.size(), appends);
  EXPECT_TRUE(log.Verify());
  const auto records = log.Snapshot();
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].seq, i + 1);
  }
  EXPECT_EQ(log.epoch_count(), appends / kInterval);
  for (const EpochRoot& root : log.EpochRootsSnapshot()) {
    EXPECT_EQ(root.size % kInterval, 0u) << "epoch " << root.epoch;
    EXPECT_EQ(root.size, root.epoch * kInterval);
  }
}

// A snapshot taken mid-append must always be a valid prefix of the chain —
// no torn records, no reordering.
TEST(SecureLogTest, MidAppendSnapshotsAreValidPrefixes) {
  constexpr size_t kAppenders = 4;
  constexpr uint64_t kPerAppender = 300;
  AuditLog log;
  std::atomic<size_t> running{kAppenders};
  std::vector<std::thread> appenders;
  for (size_t a = 0; a < kAppenders; ++a) {
    appenders.emplace_back([&, a] {
      AppendN(&log, kPerAppender, "a" + std::to_string(a) + "-");
      running.fetch_sub(1, std::memory_order_release);
    });
  }
  // do-while: on a single-core host the appenders may finish before this
  // loop first runs.
  size_t previous = 0;
  do {
    const auto snapshot = log.Snapshot();
    EXPECT_TRUE(AuditLog::VerifyChain(snapshot));
    EXPECT_GE(snapshot.size(), previous);
    previous = snapshot.size();
  } while (running.load(std::memory_order_acquire) != 0);
  for (auto& t : appenders) {
    t.join();
  }
  EXPECT_EQ(log.size(), kAppenders * kPerAppender);
  EXPECT_TRUE(log.Verify());
}

// 8 appenders (single and batched) while epochs auto-seal and a verifier
// races them. Afterwards the chain and every sealed root must agree.
TEST(SecureLogTest, ConcurrentAppendersWithSealsAndVerifier) {
  constexpr size_t kAppenders = 8;
  constexpr uint64_t kPerThread = 250;
  constexpr uint64_t kInterval = AuditLog::kEpochInterval;
  AuditLog log;

  std::vector<std::thread> threads;
  for (size_t t = 0; t < kAppenders; ++t) {
    threads.emplace_back([&, t] {
      for (uint64_t i = 0; i < kPerThread; i += 2) {
        std::vector<AuditRecord> pair(2);
        for (uint64_t k = 0; k < 2; ++k) {
          // Built by appending to a fresh string and moved in: at -O3, GCC 12
          // reads `"t" + std::string` and a literal's assignment as
          // overlapping copies (-Wrestrict).
          std::string detail(1, 't');
          detail += std::to_string(t);
          detail += '-';
          detail += std::to_string(i + k);
          pair[k].detail = std::move(detail);
        }
        log.AppendBatch(std::move(pair), 100 + i);
      }
    });
  }
  // Mid-stream the verifier may only ever say "intact".
  std::thread verifier([&] {
    for (int i = 0; i < 50; ++i) {
      if (!log.Verify() || !log.VerifiedSnapshot().ok()) {
        ADD_FAILURE() << "mid-stream verification reported tampering";
        return;
      }
    }
  });
  for (auto& t : threads) {
    t.join();
  }
  verifier.join();

  EXPECT_EQ(log.size(), kAppenders * kPerThread);
  EXPECT_TRUE(log.Verify());
  // Batches of two reach a multiple of the (even) interval exactly.
  EXPECT_EQ(log.epoch_count(), kAppenders * kPerThread / kInterval);
  // And a rewrite is still detected after all that concurrency.
  log.TamperForTest(10, "forged", /*rechain=*/true);
  EXPECT_FALSE(log.Verify());
}

}  // namespace
}  // namespace witos
