// witobs: WatchIT's observability substrate (tracing half).
//
// A ticket's life crosses every layer of the stack — ItFramework::Classify
// picks the container image, TicketWorkflow deploys it, the admin's
// operations hit PermissionBroker::HandleBatch and Itfs::Gate, which in turn call
// into the lower filesystem. Spans are RAII scopes that record (name,
// correlation id, start, duration, depth) into a bounded per-thread buffer,
// so an incident responder can ask "show me everything ticket TKT-412
// touched, in causal order" without grepping three unrelated logs.
//
// Correlation ids propagate implicitly: a Span opened without one inherits
// the innermost active span's id on the same thread, which is how a gate
// check deep inside ITFS ends up tagged with the workflow's ticket id.
//
// The per-thread buffers are rings: when full, the oldest spans are
// overwritten and `dropped()` counts what was lost — tracing never grows
// memory without bound and never blocks the instrumented thread on a
// reader.

#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace witobs {

struct SpanRecord {
  std::string name;            // e.g. "itfs.gate"
  std::string correlation_id;  // ticket / session id, possibly inherited
  uint64_t start_ns = 0;       // monotonic wall clock (or injected test clock)
  uint64_t duration_ns = 0;
  uint32_t depth = 0;  // nesting level at record time (0 = root)
  uint64_t thread_id = 0;
};

class Tracer {
 public:
  // `capacity_per_thread` bounds each thread's ring buffer.
  explicit Tracer(size_t capacity_per_thread = 4096);
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Non-destructive copy of every thread's buffered spans, oldest first per
  // thread. Ordering across threads follows registration order.
  std::vector<SpanRecord> Snapshot() const;

  // Total spans overwritten across all thread buffers since construction.
  uint64_t dropped() const;

  // Spans recorded (and still buffered) plus spans dropped.
  uint64_t total_recorded() const;

  void Clear();

  // Explicitly records a synthesized span — an interval measured by hand
  // (queue wait, a deploy stage) rather than by an RAII scope. A zero
  // thread_id is replaced with the calling thread's id. The record lands
  // in the calling thread's ring, subject to the same drop accounting.
  void RecordSpan(SpanRecord record);

  // Deterministic tests inject a manual clock; production uses the
  // monotonic wall clock.
  void SetClockForTest(uint64_t (*now_ns)());

  // The tracer's clock (test clock when injected) — lets callers stamp
  // synthesized spans on the same timebase as RAII spans.
  uint64_t NowNs() const { return Now(); }

  size_t capacity_per_thread() const { return capacity_; }

 private:
  friend class Span;
  struct ThreadBuffer;
  struct ActiveFrame {
    std::string correlation_id;
  };

  // The calling thread's buffer (created and registered on first use).
  ThreadBuffer* LocalBuffer();
  uint64_t Now() const;

  // Thread-local buffer table, keyed by tracer id so a destroyed tracer's
  // address being reused can never alias a stale entry.
  static std::map<uint64_t, std::shared_ptr<ThreadBuffer>>& LocalBuffers();

  const size_t capacity_;
  const uint64_t id_;  // distinguishes re-used addresses in thread-local maps
  std::atomic<uint64_t (*)()> clock_{nullptr};
  mutable std::mutex mu_;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
};

// Process-wide tracer used by instrumentation that has no better wiring
// point. Tests that need isolation construct their own Tracer.
Tracer& GlobalTracer();

// RAII trace scope. Construction captures the start time and pushes the
// frame on the thread's span stack; destruction pops it and records the
// finished span. A null tracer makes the whole object a no-op.
class Span {
 public:
  // `correlation_id` tags the span (and everything nested under it) with a
  // ticket/session id; empty means "inherit from the enclosing span".
  Span(Tracer* tracer, const char* name, std::string correlation_id = "");
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  // The innermost active correlation id on this thread for `tracer`
  // (empty when no span is active).
  static std::string CurrentCorrelationId(Tracer* tracer);

 private:
  Tracer* tracer_;
  Tracer::ThreadBuffer* buffer_ = nullptr;
  const char* name_;
  std::string correlation_id_;
  uint64_t start_ns_ = 0;
  uint32_t depth_ = 0;
};

}  // namespace witobs

#endif  // SRC_OBS_TRACE_H_
