// witobs: WatchIT's observability substrate (metrics half).
//
// The paper's premise is accountability — every ITFS access, broker verb and
// perforation must be accounted for (§5.3–§5.4, Table 1) — but accounting at
// production traffic rates cannot mean "append a struct to a vector". This
// registry provides counters, gauges and fixed-bucket latency histograms
// whose *update* path is lock-free (relaxed atomics on pre-resolved
// handles); the registry mutex is taken only when a series is first created
// or when a snapshot is rendered. Instrumented subsystems therefore resolve
// their handles once at wiring time and pay a few atomic adds per operation.
//
// Naming convention: `watchit_<subsystem>_<name>`, with `_total` for
// counters and `_ns` for latency histograms (see DESIGN.md §Observability).

#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace witobs {

// A sorted, canonicalized label set ("op" -> "open", ...). Kept small: the
// instrumentation uses at most two labels per series.
using Labels = std::vector<std::pair<std::string, std::string>>;

// Monotonically increasing event count. Updates are relaxed atomics: the
// exporters only need eventual per-series consistency, not a cross-series
// consistent cut.
class Counter {
 public:
  void Increment(uint64_t delta = 1) { value_.fetch_add(delta, std::memory_order_relaxed); }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// A value that can go up and down (active sessions, buffer occupancy).
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  void Sub(int64_t delta) { value_.fetch_sub(delta, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// One session's or one ticket's decisions by outcome.
struct OutcomeCounts {
  uint64_t allowed = 0;
  uint64_t denied = 0;
};

// Exact per-session and per-ticket totals (ITFS gate decisions, broker
// requests), kept out of the registry on purpose: their number follows the
// tickets served, and registry cardinality must not. Updates are relaxed
// atomic adds, as for Counter.
class OutcomeTally {
 public:
  void Count(bool allowed) {
    (allowed ? allowed_ : denied_).fetch_add(1, std::memory_order_relaxed);
  }
  OutcomeCounts Read() const {
    return {allowed_.load(std::memory_order_relaxed), denied_.load(std::memory_order_relaxed)};
  }

 private:
  std::atomic<uint64_t> allowed_{0};
  std::atomic<uint64_t> denied_{0};
};

// Shadow-enforcement totals (witmine, DESIGN.md §17): every decision the
// enforcing policy makes is also evaluated under the shadow policy, and only
// the disagreements are interesting. would_block is privilege the enforcing
// policy grants but the shadow would not (candidate tightening);
// would_allow is shadow looseness (a mining bug or a stale generation).
struct ShadowCounts {
  uint64_t evaluated = 0;
  uint64_t agree = 0;
  uint64_t would_block = 0;
  uint64_t would_allow = 0;
};

// One ITFS instance's or one broker's shadow totals, as OutcomeTally keeps
// decisions: relaxed atomic adds.
class ShadowTally {
 public:
  // Index of each outcome, as the callers' metric series order them.
  static constexpr size_t kAgree = 0;
  static constexpr size_t kWouldBlock = 1;
  static constexpr size_t kWouldAllow = 2;

  // Counts one shadow evaluation and returns its outcome index.
  size_t Count(bool enforced_allows, bool shadow_allows) {
    const size_t outcome =
        enforced_allows == shadow_allows ? kAgree : (shadow_allows ? kWouldAllow : kWouldBlock);
    outcomes_[outcome].fetch_add(1, std::memory_order_relaxed);
    return outcome;
  }
  ShadowCounts Read() const {
    ShadowCounts counts;
    counts.agree = outcomes_[kAgree].load(std::memory_order_relaxed);
    counts.would_block = outcomes_[kWouldBlock].load(std::memory_order_relaxed);
    counts.would_allow = outcomes_[kWouldAllow].load(std::memory_order_relaxed);
    counts.evaluated = counts.agree + counts.would_block + counts.would_allow;
    return counts;
  }

 private:
  std::array<std::atomic<uint64_t>, 3> outcomes_{};
};

// Fixed-bucket latency histogram over nanoseconds. The bounds are a static
// exponential ladder (factor 2 from 256 ns to ~8.6 s) shared by every
// instance, so Observe() is two relaxed atomic adds and the Prometheus
// rendering is deterministic. Percentiles are answered by rank-walking the
// buckets with linear interpolation inside the winning bucket — the same
// estimate `histogram_quantile()` would compute server-side.
class Histogram {
 public:
  static constexpr size_t kNumBuckets = 26;  // +1 implicit overflow bucket

  // Upper bound (inclusive, "le") of bucket `i`: 256ns << i.
  static uint64_t BucketBound(size_t i) { return 256ull << i; }

  void Observe(uint64_t value_ns) {
    buckets_[BucketIndex(value_ns)].fetch_add(1, std::memory_order_relaxed);
    sum_ns_.fetch_add(value_ns, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
  }

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t SumNs() const { return sum_ns_.load(std::memory_order_relaxed); }
  uint64_t BucketCount(size_t i) const { return buckets_[i].load(std::memory_order_relaxed); }

  // Estimated value at percentile `p` in [0, 100]. Returns 0 on an empty
  // histogram. p50/p95/p99 are the intended queries.
  uint64_t Percentile(double p) const;

 private:
  static size_t BucketIndex(uint64_t value_ns) {
    for (size_t i = 0; i < kNumBuckets; ++i) {
      if (value_ns <= BucketBound(i)) {
        return i;
      }
    }
    return kNumBuckets;  // overflow bucket (+Inf)
  }

  std::array<std::atomic<uint64_t>, kNumBuckets + 1> buckets_{};
  std::atomic<uint64_t> sum_ns_{0};
  std::atomic<uint64_t> count_{0};
};

enum class MetricType { kCounter, kGauge, kHistogram };

// The registry: name+labels -> metric instance. Creation and snapshotting
// take the mutex; the returned handles are stable for the registry's
// lifetime and may be updated without any lock.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Get-or-create. The same (name, labels) pair always returns the same
  // handle; a name reused with a different metric type returns nullptr
  // (type confusion is a wiring bug, surfaced loudly in tests).
  Counter* GetCounter(const std::string& name, Labels labels = {});
  Gauge* GetGauge(const std::string& name, Labels labels = {});
  Histogram* GetHistogram(const std::string& name, Labels labels = {});

  // Optional HELP text attached to the family, rendered by the exporter.
  void SetHelp(const std::string& name, const std::string& help);

  // Read-side queries (0 / nullptr when the series does not exist).
  uint64_t CounterValue(const std::string& name, const Labels& labels = {}) const;
  int64_t GaugeValue(const std::string& name, const Labels& labels = {}) const;
  const Histogram* FindHistogram(const std::string& name, const Labels& labels = {}) const;

  // Number of distinct (name, labels) series across all families.
  size_t SeriesCount() const;

  struct Series {
    Labels labels;
    const Counter* counter = nullptr;
    const Gauge* gauge = nullptr;
    const Histogram* histogram = nullptr;
  };
  struct Family {
    std::string name;
    std::string help;
    MetricType type = MetricType::kCounter;
    std::vector<Series> series;  // sorted by canonical label string
  };

  // A consistent-enough view for the exporters: families sorted by name,
  // series sorted by labels. Pointers remain valid for the registry's life.
  std::vector<Family> Snapshot() const;

 private:
  struct Instrument {
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  struct FamilyEntry {
    MetricType type = MetricType::kCounter;
    bool typed = false;  // false until the first Get*: SetHelp alone must not fix the type
    std::string help;
    std::map<std::string, Instrument> series;  // canonical label string -> metric
    std::map<std::string, Labels> series_labels;
  };

  FamilyEntry* Family_(const std::string& name, MetricType type);
  const Instrument* Find(const std::string& name, MetricType type, const Labels& labels) const;

  mutable std::mutex mu_;
  std::map<std::string, FamilyEntry> families_;
};

// Canonical `key="value",...` form used both as the map key and by the
// Prometheus exporter. Labels are sorted by key; values are escaped.
std::string CanonicalLabels(const Labels& labels);

// Wall-clock nanoseconds from a monotonic clock — the timebase for every
// real-time (non-simulated) latency measurement in the instrumentation.
uint64_t MonotonicNowNs();

// RAII wall-clock stopwatch: observes the elapsed time into `hist` on scope
// exit. A null histogram makes it a no-op so call sites stay branch-free.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* hist)
      : hist_(hist), start_ns_(hist != nullptr ? MonotonicNowNs() : 0) {}
  ~ScopedTimer() {
    if (hist_ != nullptr) {
      hist_->Observe(MonotonicNowNs() - start_ns_);
    }
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* hist_;
  uint64_t start_ns_;
};

}  // namespace witobs

#endif  // SRC_OBS_METRICS_H_
