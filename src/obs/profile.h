// witprof: lock-contention profiling (DESIGN.md §13).
//
// The ROADMAP's sharding item claims "everything funnels through one
// mutex"; ProfiledMutex turns that from a hypothesis into a ranked table.
// It is a drop-in named wrapper over std::mutex satisfying Lockable, so
// std::lock_guard, std::unique_lock and std::condition_variable_any all
// work unchanged. Until EnableMetrics() attaches a registry the wrapper
// costs one relaxed atomic load per lock/unlock — no clock reads — so
// production code paths can keep it compiled in. With metrics attached,
// every acquisition records its wait time and every release records the
// hold time into
//
//   watchit_lock_wait_ns{lock=<name>}   (ns blocked acquiring)
//   watchit_lock_hold_ns{lock=<name>}   (ns held)
//
// and TopContendedLocks() ranks all profiled locks by total wait. Multiple
// instances may share one logical name (per-machine evidence chains, per-shard
// queues with a shared prefix): the histograms aggregate, which is exactly
// what a contention ranking wants.

#ifndef SRC_OBS_PROFILE_H_
#define SRC_OBS_PROFILE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/obs/metrics.h"

namespace witobs {

class ProfiledMutex {
 public:
  explicit ProfiledMutex(std::string name) : name_(std::move(name)) {}
  ProfiledMutex(const ProfiledMutex&) = delete;
  ProfiledMutex& operator=(const ProfiledMutex&) = delete;

  // Attaches the wait/hold histograms. Idempotent per registry; safe to
  // call while other threads are locking (they pick the histograms up on
  // their next acquisition).
  void EnableMetrics(MetricsRegistry* registry);

  // Lockable. lock() with metrics enabled takes the uncontended path
  // through try_lock first, so an uncontended acquisition pays one clock
  // read (for the hold timer), not three.
  void lock();
  bool try_lock();
  void unlock();

  const std::string& name() const { return name_; }

  // Raw totals for tests and benches (valid with or without a registry).
  struct Stats {
    uint64_t acquisitions = 0;
    uint64_t contended = 0;  // acquisitions that blocked in lock()
    uint64_t total_wait_ns = 0;
    uint64_t total_hold_ns = 0;
  };
  Stats stats() const;

 private:
  const std::string name_;
  std::mutex mu_;
  std::atomic<bool> profiling_{false};
  std::atomic<Histogram*> wait_hist_{nullptr};
  std::atomic<Histogram*> hold_hist_{nullptr};
  // Touched only between a successful acquisition and the matching
  // unlock, i.e. only by the holder; 0 means "acquired unprofiled".
  uint64_t hold_start_ns_ = 0;
  std::atomic<uint64_t> acquisitions_{0};
  std::atomic<uint64_t> contended_{0};
  std::atomic<uint64_t> total_wait_ns_{0};
  std::atomic<uint64_t> total_hold_ns_{0};
};

// One row of the contention ranking, read back from the registry's
// watchit_lock_* families (so it works on any registry snapshot, not just
// live ProfiledMutex instances).
struct LockContention {
  std::string lock;
  uint64_t wait_count = 0;
  uint64_t wait_sum_ns = 0;
  uint64_t wait_p99_ns = 0;
  uint64_t hold_sum_ns = 0;
  uint64_t hold_p99_ns = 0;
};

// All profiled locks in `registry`, ranked by total wait time (descending);
// ties break by hold time. `max_locks` = 0 means no limit.
std::vector<LockContention> TopContendedLocks(const MetricsRegistry& registry,
                                              size_t max_locks = 0);

// Same ranking merged across several registries (the pool registry plus
// each machine's own): rows sharing a lock name sum their counts and
// totals and keep the worst p99, the cross-registry form of "multiple
// instances may share one logical name".
std::vector<LockContention> TopContendedLocks(
    const std::vector<const MetricsRegistry*>& registries, size_t max_locks = 0);

}  // namespace witobs

#endif  // SRC_OBS_PROFILE_H_
