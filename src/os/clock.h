// Simulated monotonic clock.
//
// The kernel charges every modelled operation a cost in nanosecond "ticks";
// benchmarks and certificate expiry read the same clock. Keeping time
// simulated makes every experiment deterministic and lets the Figure 9
// bench model the FUSE cost structure explicitly.
//
// Pause()/Resume() support write-back semantics: data writes are absorbed
// by the page cache and flushed asynchronously, so the synchronous
// write-through the simulator performs for correctness must not charge
// foreground time.
//
// Threading rule (single-owner): a SimClock is NOT internally synchronized.
// At any moment at most one thread may Advance/Pause/Resume it; concurrent
// serving code (witserve::ServerPool) enforces this by serializing each
// shard's machines behind a shard mutex and declaring ownership with
// BindOwner()/ReleaseOwner() around the critical section. A mutation from a
// thread other than the bound owner trips an assert in debug builds and is
// always counted in ownership_violations(), which the pool surfaces in its
// stats so a violated run cannot pass silently.

#ifndef SRC_OS_CLOCK_H_
#define SRC_OS_CLOCK_H_

#include <atomic>
#include <cassert>
#include <cstdint>

namespace witos {

class SimClock {
 public:
  uint64_t now_ns() const { return now_ns_; }

  void Advance(uint64_t delta_ns) {
    CheckOwner();
    if (paused_ == 0) {
      now_ns_ += delta_ns;
    }
  }

  void Pause() {
    CheckOwner();
    ++paused_;
  }

  // Must pair with an earlier Pause(). An unmatched Resume() is a charging
  // bug (foreground time would leak into a paused region); it asserts in
  // debug builds, and in release builds it is counted and ignored rather
  // than letting paused_ underflow into "paused forever".
  void Resume() {
    CheckOwner();
    if (paused_ == 0) {
      resume_underflows_.fetch_add(1, std::memory_order_relaxed);
      assert(false && "SimClock::Resume() without a matching Pause()");
      return;
    }
    --paused_;
  }

  // Declares the calling thread the clock's single owner until
  // ReleaseOwner(). Unbound clocks (owner id 0) skip the check, so
  // single-threaded code never has to opt in.
  void BindOwner() {
    uint64_t self = ThisThreadId();
    uint64_t expected = 0;
    if (!owner_.compare_exchange_strong(expected, self, std::memory_order_acq_rel) &&
        expected != self) {
      ownership_violations_.fetch_add(1, std::memory_order_relaxed);
      assert(false && "SimClock::BindOwner() while owned by another thread");
    }
  }

  void ReleaseOwner() { owner_.store(0, std::memory_order_release); }

  // Diagnostics for the single-owner rule; both stay 0 in a correct run.
  uint64_t ownership_violations() const {
    return ownership_violations_.load(std::memory_order_relaxed);
  }
  uint64_t resume_underflows() const {
    return resume_underflows_.load(std::memory_order_relaxed);
  }

  // Cost model knobs. Magnitudes follow commodity hardware: a SATA-SSD-ish
  // disk path, page-cache-speed memory copies, and FUSE round trips that
  // include two context switches and a request copy. The Figure 9 bench
  // depends only on their ratios.
  struct CostModel {
    uint64_t syscall_ns = 300;               // trap + dispatch
    uint64_t fuse_crossing_ns = 14000;       // kernel->daemon->kernel round trip
    uint64_t fs_metadata_op_ns = 1200;       // lookup / getattr / readdir
    uint64_t fs_mutation_ns = 40000;         // create/unlink/rename: journal commit
    uint64_t fs_per_byte_tenth_ns = 33;      // 3.3 ns/B: ~300 MB/s disk streaming
    uint64_t cache_per_byte_tenth_ns = 3;    // 0.3 ns/B: page-cache copy
    uint64_t fuse_per_byte_tenth_ns = 1;     // 0.1 ns/B: extra request copy
    uint64_t signature_read_ns = 1800;       // head-of-file fetch setup
    uint64_t signature_scan_per_byte_tenth_ns = 30;  // 3 ns/B content classification
  };

  const CostModel& costs() const { return costs_; }

 private:
  // Small dense thread ids (never 0) so an unbound owner is representable.
  static uint64_t ThisThreadId() {
    static std::atomic<uint64_t> next{1};
    thread_local uint64_t id = next.fetch_add(1, std::memory_order_relaxed);
    return id;
  }

  void CheckOwner() {
    uint64_t owner = owner_.load(std::memory_order_relaxed);
    if (owner != 0 && owner != ThisThreadId()) {
      ownership_violations_.fetch_add(1, std::memory_order_relaxed);
      assert(false && "SimClock mutated by a thread that is not its bound owner");
    }
  }

  uint64_t now_ns_ = 0;
  int paused_ = 0;
  std::atomic<uint64_t> owner_{0};
  std::atomic<uint64_t> ownership_violations_{0};
  std::atomic<uint64_t> resume_underflows_{0};
  CostModel costs_;
};

// RAII pause guard.
class ClockPause {
 public:
  explicit ClockPause(SimClock* clock) : clock_(clock) { clock_->Pause(); }
  ~ClockPause() { clock_->Resume(); }
  ClockPause(const ClockPause&) = delete;
  ClockPause& operator=(const ClockPause&) = delete;

 private:
  SimClock* clock_;
};

}  // namespace witos

#endif  // SRC_OS_CLOCK_H_
