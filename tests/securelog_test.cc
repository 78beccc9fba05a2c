// Tests for the SecureLog (DESIGN.md §14): the hash chain and its append
// order, in-place tampering, the rewrite-and-rechain attack caught by epoch
// roots and by replicas, the seal cadence, replica bounds, fail-closed
// restore, and the concurrent-appender guarantees the serving path relies
// on. The concurrency cases double as the TSan coverage for the log's lock.

#include "src/broker/securelog.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace witbroker {
namespace {

void AppendN(SecureLog* log, uint64_t count, const std::string& prefix = "entry-") {
  for (uint64_t i = 0; i < count; ++i) {
    log->Append(prefix + std::to_string(i), 100 + i);
  }
}

TEST(SecureLogTest, SnapshotIsTheChainInAppendOrder) {
  // The snapshot IS the chain — append order, even when the caller's
  // timestamps are not monotone. Sorting here would break every consumer
  // that replays the chain (and the prefix-validity guarantee).
  SecureLog log;
  log.Append("first", 30);
  log.Append("second", 10);
  log.Append("third", 20);
  EXPECT_EQ(log.size(), 3u);
  auto entries = log.SnapshotEntries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].payload, "first");
  EXPECT_EQ(entries[1].payload, "second");
  EXPECT_EQ(entries[2].payload, "third");
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].seq, i + 1);
    EXPECT_EQ(entries[i].prev_hash, i == 0 ? 0 : entries[i - 1].hash);
  }
  EXPECT_TRUE(SecureLog::VerifyChain(entries));
  EXPECT_TRUE(log.Verify());
}

TEST(SecureLogTest, InPlaceTamperBreaksVerify) {
  for (size_t victim : {size_t{0}, size_t{3}, size_t{39}}) {
    SecureLog log;
    AppendN(&log, 40);
    ASSERT_TRUE(log.Verify());
    log.TamperForTest(victim, "GRANT mallory nothing-to-see");
    EXPECT_FALSE(log.Verify()) << "tampered entry " << victim;
    EXPECT_FALSE(SecureLog::VerifyChain(log.SnapshotEntries())) << "tampered entry " << victim;
  }
}

TEST(SecureLogTest, RewriteAndRechainCaughtByEpochRoots) {
  SecureLog log;
  AppendN(&log, 40);
  log.SealEpoch(/*time_ns=*/200);
  ASSERT_TRUE(log.Verify());

  // The smarter attacker rewrites a sealed entry AND recomputes the
  // downstream hashes: the chain alone verifies, the sealed root does not.
  log.TamperForTest(/*index=*/3, "forged", /*rechain=*/true);
  EXPECT_TRUE(SecureLog::VerifyChain(log.SnapshotEntries()));
  EXPECT_FALSE(log.Verify());
}

TEST(SecureLogTest, RewriteAndRechainCaughtByReplica) {
  SecureLog log;
  AppendN(&log, 40);
  size_t replica = log.AddReplica();
  log.Append("post-replica", 200);
  ASSERT_TRUE(log.MatchesReplica(replica));

  // No root is sealed, so only the replica can expose this rewrite.
  log.TamperForTest(/*index=*/2, "forged", /*rechain=*/true);
  EXPECT_TRUE(log.Verify());
  EXPECT_FALSE(log.MatchesReplica(replica));
}

TEST(SecureLogTest, EpochRootsChainAndAutoSeal) {
  SecureLog log(/*epoch_interval=*/10);
  AppendN(&log, 35);
  // 35 appends at interval 10 → three auto-sealed roots.
  EXPECT_EQ(log.epoch_count(), 3u);
  log.SealEpoch(/*time_ns=*/500);
  auto roots = log.EpochRootsSnapshot();
  ASSERT_EQ(roots.size(), 4u);
  const auto entries = log.SnapshotEntries();
  const uint64_t sizes[] = {10, 20, 30, 35};  // the manual seal covers everything
  uint64_t prev_hash = 0;
  for (size_t r = 0; r < roots.size(); ++r) {
    EXPECT_EQ(roots[r].epoch, r + 1);
    EXPECT_EQ(roots[r].prev_root_hash, prev_hash);
    EXPECT_EQ(roots[r].root_hash, EpochRoot::ComputeHash(roots[r]));
    EXPECT_EQ(roots[r].size, sizes[r]);
    EXPECT_EQ(roots[r].head, entries[sizes[r] - 1].hash);
    prev_hash = roots[r].root_hash;
  }
  EXPECT_TRUE(log.Verify());
}

TEST(SecureLogTest, BatchAppendStaysChainedAndSealsOnce) {
  SecureLog log(/*epoch_interval=*/8);
  std::vector<std::string> payloads;
  for (int i = 0; i < 10; ++i) {
    payloads.push_back("op-" + std::to_string(i));
  }
  log.AppendBatch(payloads, /*time_ns=*/100);
  auto entries = log.SnapshotEntries();
  ASSERT_EQ(entries.size(), 10u);
  EXPECT_TRUE(SecureLog::VerifyChain(entries));
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].payload, payloads[i]);
  }
  // One batch crossing the interval seals exactly one root, not one per op,
  // and the root covers the whole batch.
  auto roots = log.EpochRootsSnapshot();
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_EQ(roots[0].size, 10u);
  EXPECT_TRUE(log.Verify());
}

// Regression: replica accessors used to index the replica vector without a
// bounds check — an out-of-range index was UB. A missing replica can never
// vouch for the log, so the answer is false/empty, never a crash.
TEST(SecureLogTest, ReplicaOutOfRangeRejected) {
  SecureLog log;
  log.Append("entry", 100);
  EXPECT_EQ(log.replica_count(), 0u);
  EXPECT_FALSE(log.MatchesReplica(0));
  EXPECT_FALSE(log.MatchesReplica(1234));
  EXPECT_TRUE(log.ReplicaSnapshot(0).empty());

  size_t index = log.AddReplica();
  EXPECT_EQ(index, 0u);
  EXPECT_EQ(log.replica_count(), 1u);
  EXPECT_TRUE(log.MatchesReplica(0));
  EXPECT_FALSE(log.MatchesReplica(1));  // one past the end, still rejected
  EXPECT_TRUE(log.ReplicaSnapshot(1).empty());
}

TEST(SecureLogTest, ReplicaSnapshotMirrorsTheChain) {
  SecureLog log;
  AppendN(&log, 12, "pre-");
  size_t replica = log.AddReplica();
  AppendN(&log, 12, "post-");
  auto primary = log.SnapshotEntries();
  auto mirror = log.ReplicaSnapshot(replica);
  ASSERT_EQ(mirror.size(), primary.size());
  for (size_t i = 0; i < mirror.size(); ++i) {
    EXPECT_EQ(mirror[i].hash, primary[i].hash);
    EXPECT_EQ(mirror[i].payload, primary[i].payload);
  }
  EXPECT_TRUE(SecureLog::VerifyChain(mirror));
}

// Restore checks every journaled hash: there is no "no hash" value that
// skips the check.
TEST(SecureLogTest, RestoreEntryRefusesAHashItCannotReproduce) {
  SecureLog source;
  source.Append("GRANT alice TKT-1 [T-1] ps", 100);
  const SecureLogEntry genuine = source.SnapshotEntries()[0];

  SecureLog restored;
  EXPECT_EQ(restored.RestoreEntry("GRANT mallory TKT-1 [T-1] install netcat", 100, 0).error(),
            witos::Err::kInval);
  EXPECT_EQ(restored.RestoreEntry(genuine.payload, genuine.time_ns, genuine.hash + 1).error(),
            witos::Err::kInval);
  EXPECT_EQ(restored.size(), 0u);
  ASSERT_TRUE(restored.RestoreEntry(genuine.payload, genuine.time_ns, genuine.hash).ok());
  EXPECT_EQ(restored.SnapshotEntries()[0].hash, genuine.hash);
}

// ---- Concurrency (TSan) ----

// Eight appenders on one chain: one linear chain with gap-free seqs, and
// the seal cadence is exact — every root lands on a multiple of the
// interval.
TEST(SecureLogTest, ParallelAppendersKeepChainLinearAndSealOnTheInterval) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  constexpr uint64_t kInterval = 50;
  SecureLog log(kInterval);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log, t] {
      for (int i = 0; i < kPerThread; ++i) {
        log.Append("req t" + std::to_string(t) + " #" + std::to_string(i),
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
  const auto entries = log.SnapshotEntries();
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].seq, i + 1);
  }
  EXPECT_EQ(log.epoch_count(), appends / kInterval);
  for (const EpochRoot& root : log.EpochRootsSnapshot()) {
    EXPECT_EQ(root.size % kInterval, 0u) << "epoch " << root.epoch;
    EXPECT_EQ(root.size, root.epoch * kInterval);
  }
}

// A snapshot taken mid-append must always be a valid prefix of the chain —
// no torn entries, no reordering.
TEST(SecureLogTest, MidAppendSnapshotsAreValidPrefixes) {
  constexpr size_t kAppenders = 4;
  constexpr uint64_t kPerAppender = 300;
  SecureLog log;
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
    const auto snapshot = log.SnapshotEntries();
    EXPECT_TRUE(SecureLog::VerifyChain(snapshot));
    EXPECT_GE(snapshot.size(), previous);
    previous = snapshot.size();
  } while (running.load(std::memory_order_acquire) != 0);
  for (auto& t : appenders) {
    t.join();
  }
  EXPECT_EQ(log.size(), kAppenders * kPerAppender);
  EXPECT_TRUE(log.Verify());
}

// 8 appenders while epochs auto-seal, a replica registers mid-stream and a
// verifier races them. Afterwards the chain, every sealed root and the
// replica must agree.
TEST(SecureLogTest, ConcurrentAppendersWithSealsAndReplicas) {
  constexpr size_t kAppenders = 8;
  constexpr uint64_t kPerThread = 250;
  constexpr uint64_t kInterval = 64;
  SecureLog log(kInterval);

  std::atomic<size_t> replica_index{SIZE_MAX};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kAppenders; ++t) {
    threads.emplace_back([&, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        log.Append("t" + std::to_string(t) + "-" + std::to_string(i), 100 + i);
        if (t == 0 && i == kPerThread / 2) {
          replica_index.store(log.AddReplica(), std::memory_order_release);
        }
      }
    });
  }
  // Mid-stream the verifier may only ever say "intact".
  std::thread verifier([&] {
    for (int i = 0; i < 50; ++i) {
      if (!log.Verify()) {
        ADD_FAILURE() << "mid-stream Verify() reported tampering";
        return;
      }
    }
  });
  for (auto& t : threads) {
    t.join();
  }
  verifier.join();

  EXPECT_EQ(log.size(), kAppenders * kPerThread);
  EXPECT_EQ(log.epoch_count(), kAppenders * kPerThread / kInterval);
  EXPECT_TRUE(log.Verify());
  size_t replica = replica_index.load(std::memory_order_acquire);
  ASSERT_NE(replica, SIZE_MAX);
  EXPECT_TRUE(log.MatchesReplica(replica));
  // And divergence is still detected after all that concurrency.
  log.TamperForTest(10, "forged", /*rechain=*/true);
  EXPECT_FALSE(log.MatchesReplica(replica));
  EXPECT_FALSE(log.Verify());
}

}  // namespace
}  // namespace witbroker
