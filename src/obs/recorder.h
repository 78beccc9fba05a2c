// witprof: the triggered flight recorder (DESIGN.md §13).
//
// A latency regression diagnosed after the fact is a latency regression
// diagnosed from averages. The flight recorder keeps capture always-on and
// bounded — the Tracer's rings and the registry already hold the recent
// past — and on a trigger (SLO burn, admission-reject burst, anomaly flag,
// deploy rollback) freezes that past into a single JSON artifact:
//
//   { reason, detail, spans: [recent span window],
//     top_locks: [ranked by total wait], metrics: <full RenderJson>,
//     spans_dropped, dumps_dropped }
//
// Dumps are themselves bounded (max_dumps) and rate-limited
// (min_interval_ns); triggers suppressed by either bound are *counted*,
// never silently swallowed — dumps_dropped is reported inside every
// artifact, same contract as the tracer's and OpLog's drop counters.

#ifndef SRC_OBS_RECORDER_H_
#define SRC_OBS_RECORDER_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace witobs {

class FlightRecorder {
 public:
  struct Options {
    // Newest spans included per dump (0 = everything still buffered).
    size_t max_spans = 512;
    // Artifacts retained; further triggers are counted as dropped.
    size_t max_dumps = 8;
    // Minimum spacing between dumps; triggers inside the blackout are
    // counted as dropped. 0 disables rate limiting.
    uint64_t min_interval_ns = 0;
    // Rows in the top-contended-locks table.
    size_t top_locks = 10;
  };

  struct Dump {
    uint64_t trigger_ns = 0;
    std::string reason;
    std::string detail;
    std::string json;  // the full artifact
  };

  // Both may be null (a null registry skips metrics + lock table, a null
  // tracer skips spans) — the recorder still produces artifacts.
  FlightRecorder(MetricsRegistry* registry, Tracer* tracer);
  FlightRecorder(MetricsRegistry* registry, Tracer* tracer, Options options);

  // Captures an artifact; false when suppressed by max_dumps or the rate
  // limit (the suppression is counted in dumps_dropped). Thread-safe —
  // triggers arrive from SLO evaluation, deploy rollback callbacks and
  // bench threads concurrently.
  bool Trigger(const std::string& reason, const std::string& detail = "");

  std::vector<Dump> dumps() const;
  uint64_t dumps_captured() const;
  // Triggers suppressed by the dump bound or rate limit.
  uint64_t dumps_dropped() const;
  // The newest artifact's JSON ("" when nothing captured yet).
  std::string last_json() const;

 private:
  std::string BuildArtifact(const std::string& reason, const std::string& detail,
                            uint64_t now_ns, uint64_t dropped_so_far) const;

  MetricsRegistry* registry_;
  Tracer* tracer_;
  Options options_;

  mutable std::mutex mu_;
  std::vector<Dump> dumps_;
  uint64_t captured_ = 0;
  uint64_t dropped_ = 0;
  uint64_t last_dump_ns_ = 0;
};

}  // namespace witobs

#endif  // SRC_OBS_RECORDER_H_
