// witprof: rolling-window SLO evaluation over the metrics registry
// (DESIGN.md §13).
//
// Raw histograms only answer "what was the p99 since boot"; an operator
// cares about "what is the p99 over the last window" and "how fast am I
// burning my error budget". SloEngine keeps a bounded ring of registry
// samples per SLO and evaluates against the *delta* between the newest and
// oldest sample, so a latency regression or reject burst shows up within a
// window even after days of healthy history diluted the lifetime numbers.
//
// Two SLO kinds:
//   - Latency: windowed percentile of one histogram series vs a threshold.
//   - Ratio:   error-budget burn rate. With objective 0.99, the budget is
//     1% of events; burn rate = (bad/total within the window) / (1 -
//     objective). Burn 1.0 = consuming budget exactly at the allowed rate;
//     the alert threshold is expressed as a max burn rate, following the
//     multiwindow burn-rate alerting everyone runs in production.
//
// Evaluate() is pull-based: the caller decides the cadence (a bench ticks
// it between waves; a test ticks it manually with an injected clock). Each
// breach fires the breach callback — the flight recorder's trigger wire.

#ifndef SRC_OBS_SLO_H_
#define SRC_OBS_SLO_H_

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "src/obs/metrics.h"

namespace witobs {

// Sums every counter series in `family` whose labels contain `subset`
// (subset empty = all series — how a by-stage family like
// watchit_deploy_rollbacks_total is folded into one number).
uint64_t SumCounters(const MetricsRegistry& registry, const std::string& family,
                     const Labels& subset);

class SloEngine {
 public:
  struct Options {
    // Samples retained per SLO, including the newest: the window covers
    // up to (window_samples - 1) Evaluate() intervals.
    size_t window_samples = 16;
  };

  struct LatencySlo {
    std::string name;        // e.g. "serve-e2e-p99"
    std::string histogram;   // registry family, e.g. watchit_serve_e2e_latency_ns
    Labels labels;           // exact series labels
    double percentile = 99.0;
    uint64_t threshold_ns = 0;  // breach when windowed percentile exceeds this
  };

  struct CounterSelector {
    std::string family;
    Labels subset;  // label subset match; empty matches every series
  };

  struct RatioSlo {
    std::string name;  // e.g. "admission-rejects"
    CounterSelector bad;
    CounterSelector total;
    double objective = 0.99;      // fraction of events allowed to be good
    double max_burn_rate = 1.0;   // breach at or above this burn rate
  };

  struct Status {
    std::string name;
    bool breached = false;
    // Latency: windowed percentile in ns. Ratio: burn rate.
    double value = 0.0;
    double threshold = 0.0;
    // Events inside the window the value was computed from (0 = idle
    // window, never a breach).
    uint64_t window_events = 0;
    std::string detail;  // human-readable, embedded in recorder dumps
  };

  using BreachCallback = std::function<void(const Status&)>;

  explicit SloEngine(MetricsRegistry* registry);
  SloEngine(MetricsRegistry* registry, Options options);

  void AddLatencySlo(LatencySlo slo);
  void AddRatioSlo(RatioSlo slo);

  // Invoked (outside the engine lock) once per breached SLO per Evaluate().
  void set_breach_callback(BreachCallback callback);

  // Takes one sample of every SLO's inputs and evaluates each window.
  // Returns one Status per registered SLO, in registration order.
  std::vector<Status> Evaluate();

  // Breaches observed across all Evaluate() calls.
  uint64_t breaches() const;

  size_t slo_count() const;

 private:
  struct HistogramSample {
    std::array<uint64_t, Histogram::kNumBuckets + 1> buckets{};
    uint64_t count = 0;
  };
  struct LatencyState {
    LatencySlo slo;
    std::deque<HistogramSample> window;
  };
  struct RatioSample {
    uint64_t bad = 0;
    uint64_t total = 0;
  };
  struct RatioState {
    RatioSlo slo;
    std::deque<RatioSample> window;
  };

  MetricsRegistry* registry_;
  Options options_;
  mutable std::mutex mu_;
  std::vector<LatencyState> latency_;
  std::vector<RatioState> ratio_;
  std::vector<size_t> order_;  // interleaved registration order: latency idx | ratio idx+bias
  BreachCallback breach_callback_;
  uint64_t breaches_ = 0;
};

// Registers the three stock WatchIT SLOs against an engine whose registry
// is wired to a ServerPool (whose DeployPipeline exports the rollbacks):
//   ticket-e2e-latency   p99(watchit_serve_e2e_latency_ns) <= max_e2e_p99_ns
//   admission-rejects    burn of rejected vs all serve outcomes
//   deploy-rollbacks     burn of rollbacks vs finished deploy transactions
void InstallWatchItSlos(SloEngine* engine, uint64_t max_e2e_p99_ns,
                        double reject_objective = 0.99,
                        double rollback_objective = 0.99);

}  // namespace witobs

#endif  // SRC_OBS_SLO_H_
