#include "src/obs/profile.h"

#include <algorithm>
#include <map>

namespace witobs {

void ProfiledMutex::EnableMetrics(MetricsRegistry* registry) {
  if (registry == nullptr) {
    return;
  }
  registry->SetHelp("watchit_lock_wait_ns", "Time spent blocked acquiring a profiled lock");
  registry->SetHelp("watchit_lock_hold_ns", "Time a profiled lock was held per acquisition");
  Labels labels = {{"lock", name_}};
  wait_hist_.store(registry->GetHistogram("watchit_lock_wait_ns", labels),
                   std::memory_order_release);
  hold_hist_.store(registry->GetHistogram("watchit_lock_hold_ns", labels),
                   std::memory_order_release);
  profiling_.store(true, std::memory_order_release);
}

void ProfiledMutex::lock() {
  if (!profiling_.load(std::memory_order_acquire)) {
    mu_.lock();
    return;
  }
  uint64_t wait_ns = 0;
  if (mu_.try_lock()) {
    // Uncontended: no wait-clock reads, just the zero observation so the
    // histogram's count stays equal to the acquisition count.
  } else {
    uint64_t wait_start = MonotonicNowNs();
    mu_.lock();
    wait_ns = MonotonicNowNs() - wait_start;
    contended_.fetch_add(1, std::memory_order_relaxed);
    total_wait_ns_.fetch_add(wait_ns, std::memory_order_relaxed);
  }
  acquisitions_.fetch_add(1, std::memory_order_relaxed);
  if (Histogram* hist = wait_hist_.load(std::memory_order_acquire)) {
    hist->Observe(wait_ns);
  }
  hold_start_ns_ = MonotonicNowNs();
}

bool ProfiledMutex::try_lock() {
  if (!mu_.try_lock()) {
    return false;
  }
  if (profiling_.load(std::memory_order_acquire)) {
    acquisitions_.fetch_add(1, std::memory_order_relaxed);
    if (Histogram* hist = wait_hist_.load(std::memory_order_acquire)) {
      hist->Observe(0);
    }
    hold_start_ns_ = MonotonicNowNs();
  } else {
    hold_start_ns_ = 0;
  }
  return true;
}

void ProfiledMutex::unlock() {
  // hold_start_ns_ == 0 covers acquisitions made before EnableMetrics
  // landed: never charge them a bogus epoch-length hold.
  if (hold_start_ns_ != 0 && profiling_.load(std::memory_order_acquire)) {
    uint64_t hold_ns = MonotonicNowNs() - hold_start_ns_;
    hold_start_ns_ = 0;
    total_hold_ns_.fetch_add(hold_ns, std::memory_order_relaxed);
    if (Histogram* hist = hold_hist_.load(std::memory_order_acquire)) {
      hist->Observe(hold_ns);
    }
  } else {
    hold_start_ns_ = 0;
  }
  mu_.unlock();
}

ProfiledMutex::Stats ProfiledMutex::stats() const {
  Stats stats;
  stats.acquisitions = acquisitions_.load(std::memory_order_relaxed);
  stats.contended = contended_.load(std::memory_order_relaxed);
  stats.total_wait_ns = total_wait_ns_.load(std::memory_order_relaxed);
  stats.total_hold_ns = total_hold_ns_.load(std::memory_order_relaxed);
  return stats;
}

std::vector<LockContention> TopContendedLocks(const MetricsRegistry& registry,
                                              size_t max_locks) {
  return TopContendedLocks(std::vector<const MetricsRegistry*>{&registry}, max_locks);
}

std::vector<LockContention> TopContendedLocks(
    const std::vector<const MetricsRegistry*>& registries, size_t max_locks) {
  // Merge rows by lock name: counts and totals sum, p99s keep the worst.
  std::map<std::string, LockContention> merged;
  for (const MetricsRegistry* registry : registries) {
    if (registry == nullptr) {
      continue;
    }
    for (const auto& family : registry->Snapshot()) {
      if (family.name != "watchit_lock_wait_ns") {
        continue;
      }
      for (const auto& series : family.series) {
        LockContention row;
        for (const auto& [key, value] : series.labels) {
          if (key == "lock") {
            row.lock = value;
          }
        }
        row.wait_count = series.histogram->Count();
        row.wait_sum_ns = series.histogram->SumNs();
        row.wait_p99_ns = series.histogram->Percentile(99);
        if (const Histogram* hold =
                registry->FindHistogram("watchit_lock_hold_ns", series.labels)) {
          row.hold_sum_ns = hold->SumNs();
          row.hold_p99_ns = hold->Percentile(99);
        }
        auto [it, inserted] = merged.emplace(row.lock, row);
        if (!inserted) {
          LockContention& existing = it->second;
          existing.wait_count += row.wait_count;
          existing.wait_sum_ns += row.wait_sum_ns;
          existing.wait_p99_ns = std::max(existing.wait_p99_ns, row.wait_p99_ns);
          existing.hold_sum_ns += row.hold_sum_ns;
          existing.hold_p99_ns = std::max(existing.hold_p99_ns, row.hold_p99_ns);
        }
      }
    }
  }
  std::vector<LockContention> ranking;
  ranking.reserve(merged.size());
  for (auto& [name, row] : merged) {
    ranking.push_back(std::move(row));
  }
  std::sort(ranking.begin(), ranking.end(),
            [](const LockContention& a, const LockContention& b) {
              if (a.wait_sum_ns != b.wait_sum_ns) {
                return a.wait_sum_ns > b.wait_sum_ns;
              }
              if (a.hold_sum_ns != b.hold_sum_ns) {
                return a.hold_sum_ns > b.hold_sum_ns;
              }
              return a.lock < b.lock;
            });
  if (max_locks != 0 && ranking.size() > max_locks) {
    ranking.resize(max_locks);
  }
  return ranking;
}

}  // namespace witobs
