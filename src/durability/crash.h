// witcrash: the crash-injection harness (DESIGN.md §15).
//
// A crash point names a deploy stage, a scope and an arrival count: "the
// nth time a deploy (on the victim shard / anywhere) reaches this stage,
// the process dies". The harness drives a journaled cluster through waves
// of concurrent deploys (one thread per machine) and expiries, pulls the
// plug at the crash point
// (FaultPlan::CrashAtNthCall + DurabilityManager::SimulateCrash — the
// journal keeps only what was behind an fsync barrier), then restarts into
// a fresh cluster via DurabilityManager::Recover and asserts the paper's
// no-trace invariant on the survivor:
//
//   * zero bound tickets, zero live sessions, zero unrevoked certificates
//     (a crash is the hardest ticket expiry);
//   * Cluster::VerifyAuditTrail() passes — every machine's chain and sealed
//     epoch roots of the audit evidence survived the crash;
//   * the watchit_* gauges report the recovered state, re-seeded from the
//     checkpoint+journal replay, not zeroed.
//
// RunSweep() walks every deploy stage × both scopes — the systematic
// crash-consistency sweep the CI bench smoke gates on.

#ifndef SRC_DURABILITY_CRASH_H_
#define SRC_DURABILITY_CRASH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/cluster.h"
#include "src/core/deploy.h"
#include "src/durability/durability.h"

namespace witcrash {

enum class CrashScope {
  kShard,  // the victim machine (shard 0) dies; trigger counts only its deploys
  kPool,   // the whole server pool dies; trigger counts every deploy
};

std::string CrashScopeName(CrashScope scope);

struct CrashPoint {
  watchit::DeployStage stage = watchit::DeployStage::kImageLookup;
  CrashScope scope = CrashScope::kPool;
  // Crash at the nth matching arrival at `stage` (1-based).
  uint64_t nth_arrival = 1;
};

std::string CrashPointName(const CrashPoint& point);

struct CrashRunReport {
  CrashPoint point;
  bool crashed = false;  // the crash point actually fired
  uint64_t deploys_committed = 0;  // completed before the crash
  uint64_t deploys_expired = 0;    // of those, expired before the crash
  witdur::RecoveryReport recovery;
  // The zero-leak audit over the recovered cluster; all three must be 0.
  size_t bound_tickets = 0;
  size_t live_sessions = 0;
  size_t unrevoked_certs = 0;
  watchit::Cluster::AuditReport audit;
  bool gauges_ok = false;
  std::string failure;  // first violated invariant; empty when the run passed

  bool ok() const { return crashed && failure.empty(); }
};

class CrashHarness {
 public:
  struct Options {
    size_t machines = 4;
    size_t tickets = 24;  // deployed in waves of one per machine
    // DurabilityManager auto-checkpoint cadence (records); the harness
    // calls MaybeCheckpoint between waves.
    uint64_t checkpoint_interval = 64;
    uint64_t barrier_interval = 1;
    uint64_t seed = 0x5eed;
  };

  CrashHarness() : CrashHarness(Options()) {}
  explicit CrashHarness(Options options) : options_(options) {}

  // One crash-and-recover cycle at `point`.
  CrashRunReport Run(const CrashPoint& point);

  // Every deploy stage × both scopes, `nth_arrival` fixed so a few deploys
  // commit (and some expire) before the plug is pulled.
  std::vector<CrashRunReport> RunSweep(uint64_t nth_arrival = 3);

 private:
  Options options_;
};

}  // namespace witcrash

#endif  // SRC_DURABILITY_CRASH_H_
