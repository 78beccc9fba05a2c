// witserve: the concurrent ticket-serving engine (queue half).
//
// TicketQueue is a bounded MPMC queue with explicit admission control. The
// paper's framework fronts a whole organization's helpdesk (§3.1), and an
// organization under incident load will file tickets faster than containers
// can be deployed; an unbounded queue would turn that into unbounded memory
// and unbounded latency. Instead the queue applies backpressure the way a
// production intake tier does: once depth reaches the high watermark,
// admission closes and TryPush fails fast with EBUSY ("call back later" —
// the caller sees the overload instead of a growing black hole), and it
// reopens only after workers drain the backlog to the low watermark, so the
// system does not flap open/closed on every pop at the boundary.
//
// Pop discipline: the owning worker pops FIFO from the front (oldest ticket
// first — end-to-end latency fairness); thieves steal LIFO from the back
// (least disruptive to the owner's cache of recently bound machines, the
// classic work-stealing-deque split).
//
// Every operation is non-blocking; waiting for work is the pool's job (an
// idle ServerPool worker parks until a submit wakes it, pool.h).

#ifndef SRC_SERVE_QUEUE_H_
#define SRC_SERVE_QUEUE_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>

#include "src/obs/profile.h"
#include "src/os/result.h"
#include "src/workload/ticket_gen.h"

namespace witserve {

// One unit of serving work: a generated ticket plus its routing and the
// wall-clock instant it was admitted (for end-to-end latency accounting).
struct ServeJob {
  witload::GeneratedTicket ticket;
  std::string target_machine;
  std::string user_machine;  // T-9 dual deployment; empty otherwise
  uint64_t submit_ns = 0;
};

class TicketQueue {
 public:
  struct Options {
    // Hard bound on queued jobs; also the default high watermark.
    size_t capacity = 1024;
    // Admission closes when depth reaches this (0 = capacity).
    size_t high_watermark = 0;
    // ... and reopens once depth has drained to this (0 = high / 2).
    size_t low_watermark = 0;
    // Contention-profile label for the queue's lock ("" = "serve.queue");
    // ServerPool names each shard's queue "serve.queue.<shard>".
    std::string lock_name;
  };

  TicketQueue() : TicketQueue(Options()) {}
  explicit TicketQueue(Options options);

  // EBUSY while admission is closed (overload), EPIPE after Close().
  witos::Status TryPush(ServeJob job);

  // Owner pop: oldest job, non-blocking.
  bool TryPop(ServeJob* out);
  // Thief pop: newest job, non-blocking.
  bool TrySteal(ServeJob* out);

  // Refuses further pushes; queued jobs may still be popped.
  void Close();
  bool closed() const;

  size_t depth() const;
  size_t peak_depth() const;
  bool admitting() const;
  uint64_t accepted() const;
  uint64_t rejected() const;

  size_t high_watermark() const { return high_; }
  size_t low_watermark() const { return low_; }

  // Attaches the queue lock to the contention profile under the configured
  // lock name (watchit_lock_{wait,hold}_ns{lock="serve.queue.<shard>"}).
  void EnableLockMetrics(witobs::MetricsRegistry* registry) { mu_.EnableMetrics(registry); }

 private:
  size_t high_ = 0;
  size_t low_ = 0;
  mutable witobs::ProfiledMutex mu_;
  std::deque<ServeJob> jobs_;
  bool closed_ = false;
  bool admitting_ = true;
  size_t peak_ = 0;
  uint64_t accepted_ = 0;
  uint64_t rejected_ = 0;
};

}  // namespace witserve

#endif  // SRC_SERVE_QUEUE_H_
