// Itfs: the IT File-System — WatchIT's userspace monitoring filesystem
// (paper §5.3).
//
// Itfs wraps a lower filesystem (the real disk fs) and
//   * evaluates the ItfsPolicy on every operation, denying or logging —
//     every denial, logged access and shadow divergence is one record on
//     the machine's evidence chain, carrying the pid of the session the
//     instance serves (ITFS keeps no log of its own);
//   * in signature mode, reads the head of the file on open to classify the
//     content (charging the extra read on the clock);
//   * performs lower-filesystem operations with the credentials of the user
//     who invoked ITFS on the host — FUSE semantics: "the user logged in to
//     the container inherits the privileges of the user that invokes the
//     ITFS on the host". Mounted by root, Itfs therefore grants contained
//     admins superuser power over exactly the files it exposes.
//
// The full Figure 5 stack is:  kernel mount -> FuseMount -> Itfs -> MemFs.

#ifndef SRC_FS_ITFS_H_
#define SRC_FS_ITFS_H_

#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "src/fs/compiled_policy.h"
#include "src/fs/itfs_policy.h"
#include "src/obs/metrics.h"
#include "src/os/audit.h"
#include "src/os/clock.h"
#include "src/os/filesystem.h"

namespace witfs {

// Counters for the signature-verdict cache (see Gate): how often a gated
// content inspection was served without re-reading the file head.
struct VerdictCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  // Stale entries replaced because the file's generation moved on.
  uint64_t invalidations = 0;
  size_t entries = 0;
};

inline constexpr size_t kNumItfsOpKinds = 7;  // mirrors ItfsOpKind

// The registry handles every Itfs on one machine shares: op counters and
// latency histograms, verdict-cache, shadow and head-read counters, and the
// policy-compile histogram. Resolved once per registry —
// ContainIt::EnableMetrics does it per machine — so wiring an Itfs creates
// no series. Immutable after construction.
struct ItfsMetrics {
  explicit ItfsMetrics(witobs::MetricsRegistry* registry);

  witobs::Counter* ops[kNumItfsOpKinds][2] = {};        // [op][0=allow, 1=deny]
  witobs::Histogram* op_latency[kNumItfsOpKinds] = {};  // simulated ns per op
  witobs::Counter* head_read_bytes = nullptr;
  witobs::Counter* cache_hits = nullptr;
  witobs::Counter* cache_misses = nullptr;
  witobs::Counter* cache_invalidations = nullptr;
  witobs::Counter* shadow[3] = {};  // indexed by witobs::ShadowTally's outcome
  // One observation per compile, where it happens: a deploy that compiles
  // its spec's policy, and every SwapPolicy.
  witobs::Histogram* compile_ns = nullptr;
};

class Itfs : public witos::Filesystem {
 public:
  // `invoker` is the host user who mounted ITFS (root for admin containers).
  // `clock` and `audit` may be null (tests); with no `audit` the instance
  // enforces but records nothing. Every record carries `pid`: ContainIt
  // passes the session's host-side worker for every ITFS of the session.
  // The policy is installed as-is; use ItfsPolicy::Compile() (and
  // SwapPolicy to update later).
  Itfs(std::shared_ptr<witos::Filesystem> lower, std::shared_ptr<const CompiledPolicy> policy,
       witos::Credentials invoker, witos::SimClock* clock = nullptr,
       witos::AuditLog* audit = nullptr, witos::Pid pid = witos::kNoPid);

  // Convenience: compiles `policy` and installs the result.
  Itfs(std::shared_ptr<witos::Filesystem> lower, const ItfsPolicy& policy,
       witos::Credentials invoker, witos::SimClock* clock = nullptr,
       witos::AuditLog* audit = nullptr, witos::Pid pid = witos::kNoPid);

  std::string FsType() const override { return "itfs"; }
  bool Cacheable() const override { return lower_->Cacheable(); }

  witos::Result<witos::Stat> Open(const std::string& path, uint32_t flags, witos::Mode mode,
                                  const witos::Credentials& cred) override;
  witos::Result<size_t> ReadAt(const std::string& path, uint64_t offset, size_t size,
                               std::string* out, const witos::Credentials& cred) override;
  witos::Result<size_t> WriteAt(const std::string& path, uint64_t offset,
                                const std::string& data,
                                const witos::Credentials& cred) override;
  witos::Status Truncate(const std::string& path, uint64_t size,
                         const witos::Credentials& cred) override;
  witos::Result<witos::Stat> GetAttr(const std::string& path,
                                     const witos::Credentials& cred) override;
  witos::Result<std::vector<witos::DirEntry>> ReadDir(const std::string& path,
                                                      const witos::Credentials& cred) override;
  witos::Status MkDir(const std::string& path, witos::Mode mode,
                      const witos::Credentials& cred) override;
  witos::Status Unlink(const std::string& path, const witos::Credentials& cred) override;
  witos::Status RmDir(const std::string& path, const witos::Credentials& cred) override;
  witos::Status Rename(const std::string& from, const std::string& to,
                       const witos::Credentials& cred) override;
  witos::Status Chmod(const std::string& path, witos::Mode mode,
                      const witos::Credentials& cred) override;
  witos::Status Chown(const std::string& path, witos::Uid uid, witos::Gid gid,
                      const witos::Credentials& cred) override;
  witos::Status MkNod(const std::string& path, witos::FileType type, witos::DeviceId rdev,
                      witos::Mode mode, const witos::Credentials& cred) override;
  witos::Status Link(const std::string& oldpath, const std::string& newpath,
                     const witos::Credentials& cred) override;
  witos::Status SymLink(const std::string& target, const std::string& linkpath,
                        const witos::Credentials& cred) override;
  witos::Result<std::string> ReadLink(const std::string& path,
                                      const witos::Credentials& cred) override;
  witos::Result<witos::FsStats> StatFs() const override;

  // Atomically installs a new compiled policy; in-flight gates finish under
  // the snapshot they loaded (shared_ptr pin), subsequent gates see the new
  // one. Never blocks the gate path. The verdict cache survives a swap:
  // cached entries hold content *classes*, not decisions, and the basis
  // check re-validates them against the new policy's read size.
  //
  // NOTE: this replaces the old mutable `ItfsPolicy& policy()` accessor.
  // Mutating a live policy raced the gate path and silently skipped
  // recompilation; the builder/compile/swap flow is the only way to change
  // enforcement now (DESIGN.md §16 has the migration notes).
  void SwapPolicy(std::shared_ptr<const CompiledPolicy> policy);

  // The currently installed policy (immutable snapshot, never null).
  std::shared_ptr<const CompiledPolicy> policy_snapshot() const {
    return policy_.load(std::memory_order_acquire);
  }

  // Installs (or clears, with null) a shadow policy: every gated operation
  // is additionally evaluated under it, divergences from the installed
  // policy are counted, and each is chained as a kSessionEvent
  // "shadow-divergence <op> <path> would-block|would-allow [<shadow rule>]"
  // — the verdict returned to the caller NEVER changes.
  // Shadow policies are evaluated with whatever head bytes the primary gate
  // fetched (none on verdict-cache hits), so extension/path-mode shadows —
  // what the policy miner emits — are always exact; signature-mode shadows
  // are best-effort.
  void SetShadowPolicy(std::shared_ptr<const CompiledPolicy> shadow);
  witobs::ShadowCounts shadow_stats() const { return shadow_tally_.Read(); }

  VerdictCacheStats verdict_cache_stats() const;

  uint64_t Generation(const std::string& path) const override {
    return lower_->Generation(path);
  }

  // Wires this instance into the observability layer through the shared
  // `metrics` handles (null disables metrics). The per-operation cost is a
  // few relaxed atomic adds.
  void EnableMetrics(std::shared_ptr<const ItfsMetrics> metrics);

  // Counts every gate decision into `tally` as well (null: none). Every
  // instance of one session shares its tally: the session's exact totals.
  void set_tally(std::shared_ptr<witobs::OutcomeTally> tally) { tally_ = std::move(tally); }

 private:
  // Accounts one gate decision in the tally and the op-kind series.
  void CountDecision(ItfsOpKind op, bool deny);
  // The one writer of ITFS evidence: appends one record, stamped with this
  // instance's pid and the clock, to the machine's chain (none without one).
  void Chain(witos::AuditEvent event, witos::Uid uid, std::string detail);
  // Policy gate: chains a denial (kFileDenied) or a logged access
  // (kFileAccess: a matching rule, or log_all), "<op> <path> [<rule>]", and
  // returns EACCES if a deny rule fires. In signature mode fetches head
  // bytes for content rules (charging the extra read cost).
  witos::Status Gate(ItfsOpKind op, const std::string& path, const witos::Credentials& cred,
                     bool fetch_head);

  // RAII sim-clock stopwatch: observes the simulated latency of one whole
  // operation (gate + lower-fs work) into the per-op-kind histogram.
  class SimTimer {
   public:
    SimTimer(const witos::SimClock* clock, witobs::Histogram* hist)
        : clock_(hist != nullptr ? clock : nullptr),
          hist_(hist),
          start_ns_(clock_ != nullptr ? clock_->now_ns() : 0) {}
    ~SimTimer() {
      if (clock_ != nullptr) {
        hist_->Observe(clock_->now_ns() - start_ns_);
      }
    }
    SimTimer(const SimTimer&) = delete;
    SimTimer& operator=(const SimTimer&) = delete;

   private:
    const witos::SimClock* clock_;
    witobs::Histogram* hist_;
    uint64_t start_ns_;
  };

  // A cached content classification for one path. The entry is valid only
  // while the file's generation and the policy's required read size (basis)
  // both still match — either mismatch forces a fresh read. The cached value
  // is the *class*, not the decision, so one entry serves every op kind and
  // survives policy swaps.
  struct VerdictEntry {
    uint64_t generation = witos::kNoGeneration;
    FileClass cls = FileClass::kUnknown;
    bool has_content = false;  // empty files never match signature selectors
    size_t basis = 0;          // required_head_bytes() when classified
  };
  static constexpr size_t kVerdictCacheCapacity = 4096;

  // Classifies `path` for the verdict cache, or serves the cached class.
  // Returns false when the gate must fall back to a fresh head read.
  bool LookupVerdict(const std::string& path, uint64_t generation, size_t basis,
                     VerdictEntry* out);
  void StoreVerdict(const std::string& path, VerdictEntry entry);

  // Evaluates the shadow policy (if any) against the primary decision and
  // accounts the divergence; never affects the returned verdict.
  void ShadowCheck(ItfsOpKind op, const std::string& path, const PolicyDecision& primary,
                   std::string_view head);

  std::shared_ptr<witos::Filesystem> lower_;
  std::atomic<std::shared_ptr<const CompiledPolicy>> policy_;
  std::atomic<std::shared_ptr<const CompiledPolicy>> shadow_{nullptr};
  witos::Credentials invoker_;
  witos::SimClock* clock_;
  witos::AuditLog* audit_;
  witos::Pid pid_;

  witobs::ShadowTally shadow_tally_;

  mutable std::mutex verdict_mu_;
  std::unordered_map<std::string, VerdictEntry> verdict_cache_;
  std::deque<std::string> verdict_fifo_;  // insertion order, oldest first
  std::atomic<uint64_t> verdict_hits_{0};
  std::atomic<uint64_t> verdict_misses_{0};
  std::atomic<uint64_t> verdict_invalidations_{0};

  // Simulated-latency histogram for `op`, or null when metrics are off.
  witobs::Histogram* OpLatency(ItfsOpKind op) const {
    return metrics_ != nullptr ? metrics_->op_latency[static_cast<size_t>(op)] : nullptr;
  }

  // Observability wiring (null when metrics are disabled).
  std::shared_ptr<const ItfsMetrics> metrics_;
  std::shared_ptr<witobs::OutcomeTally> tally_;
};

}  // namespace witfs

#endif  // SRC_FS_ITFS_H_
