// witobs: WatchIT's observability substrate (tracing half).
//
// A Tracer is owned by its caller and handed to the code it should trace;
// nothing records into a process-wide tracer. The serving pool is the one
// trace path: ServerPool records each ticket's four serve.* stages and its
// DeployPipeline a deploy.<stage> span per deploy stage, all tagged with
// the ticket id, so TicketTimeline can answer "where did TKT-412's time
// go?" (DESIGN.md §8, §13). Spans are RAII scopes (or hand-measured
// intervals, RecordSpan) that record (name, correlation id, start,
// duration, depth) into a bounded per-thread buffer.
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
  std::string name;            // e.g. "serve.prepare"
  std::string correlation_id;  // ticket id
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

// RAII trace scope. Construction captures the start time and the nesting
// depth (the spans of `tracer` open on this thread); destruction records
// the finished span. A null tracer makes the whole object a no-op.
class Span {
 public:
  // `correlation_id` tags the span with its ticket id.
  Span(Tracer* tracer, const char* name, std::string correlation_id);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

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
