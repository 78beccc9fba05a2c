// witprof: ticket timelines (DESIGN.md §13).
//
// Spans live in per-thread ring buffers, and a Tracer snapshot interleaves
// every ticket every thread served. A served ticket's spans — queue wait,
// Prepare, the deploy stages, Finish — are all recorded by the one worker
// that popped it, but they still sit among its neighbours' spans.
// TicketTimeline reassembles it: group a Tracer snapshot by correlation id
// (from any number of threads), order causally (start time, then depth),
// and expose the per-stage breakdown an incident responder actually wants:
// where did this ticket's 4 seconds go?

#ifndef SRC_OBS_TIMELINE_H_
#define SRC_OBS_TIMELINE_H_

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "src/obs/trace.h"

namespace witobs {

class TicketTimeline {
 public:
  // All timelines in `spans`, one per distinct correlation id (spans with
  // no correlation id are skipped — they belong to no ticket). Ordered by
  // first span start, oldest ticket first.
  static std::vector<TicketTimeline> AssembleAll(const std::vector<SpanRecord>& spans);

  // The single ticket's timeline from a live tracer (empty timeline — no
  // stages — when the tracer holds no spans for the id).
  static TicketTimeline ForTicket(const Tracer& tracer, const std::string& ticket_id);

  const std::string& ticket_id() const { return ticket_id_; }
  // Spans sorted by (start_ns, depth): causal order within a thread, wall
  // order across threads.
  const std::vector<SpanRecord>& stages() const { return stages_; }

  uint64_t start_ns() const { return start_ns_; }
  uint64_t end_ns() const { return end_ns_; }
  // Wall span from the first stage's start to the last stage's end.
  uint64_t SpanNs() const { return end_ns_ > start_ns_ ? end_ns_ - start_ns_ : 0; }

  // Distinct thread ids the ticket's spans were recorded on — one for a
  // ticket the serving pool ran.
  size_t ThreadCount() const;

  // Summed duration of every stage named `name` (a ticket can revisit a
  // stage, e.g. two deploys for a T-9 dual deployment).
  uint64_t StageDurationNs(const std::string& name) const;

  // Human-readable rendering, one line per stage with thread attribution.
  std::string Render() const;

 private:
  std::string ticket_id_;
  std::vector<SpanRecord> stages_;
  uint64_t start_ns_ = 0;
  uint64_t end_ns_ = 0;
};

}  // namespace witobs

#endif  // SRC_OBS_TIMELINE_H_
