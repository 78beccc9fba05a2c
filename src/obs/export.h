// witobs exporters: render a MetricsRegistry as Prometheus text format or a
// JSON snapshot, and a Tracer as a human-readable trace dump. Output is
// deterministic (families sorted by name, series by canonical labels) so
// tests can golden-match it and diffs between two snapshots are meaningful.

#ifndef SRC_OBS_EXPORT_H_
#define SRC_OBS_EXPORT_H_

#include <string>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace witobs {

// Prometheus exposition text format (version 0.0.4): `# HELP` / `# TYPE`
// headers per family, histograms expanded into cumulative `_bucket{le=...}`
// series plus `_sum` and `_count`.
std::string RenderPrometheus(const MetricsRegistry& registry);

// The same snapshot as a JSON object keyed by family name. Histograms carry
// count/sum plus the p50/p95/p99 estimates so a dashboard does not need to
// re-derive them from buckets.
std::string RenderJson(const MetricsRegistry& registry);

// One line per buffered span:
//   [corr] depth*"  " name start_ns +duration_ns (thread N)
// Spans are listed per thread in recording order — the story of each
// ticket as a serving worker queued, prepared, deployed and finished it.
std::string RenderTraceDump(const Tracer& tracer);

// JSON string-content escaping (RFC 8259): backslash, quote, and every
// control character below 0x20 (\n, \t, \r named; the rest as \u00XX).
// RenderJson escapes every family name and label with it, so a lock or
// stage name containing "\n or a tab can never corrupt a snapshot.
std::string JsonEscape(const std::string& in);

}  // namespace witobs

#endif  // SRC_OBS_EXPORT_H_
