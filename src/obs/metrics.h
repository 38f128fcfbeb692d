#ifndef TPR_OBS_METRICS_H_
#define TPR_OBS_METRICS_H_

// Process-wide metrics registry: counters, gauges, and fixed-bucket
// histograms with percentile estimation. Instrumented code keeps a
// stable handle (GetCounter/GetGauge/GetHistogram, usually a function
// local static) and records through it on the hot path.
//
// Recording is gated on a single flag: set TPR_METRICS_OUT=<path> in the
// environment (the merged JSON snapshot is written to <path> at process
// exit) or call SetMetricsEnabled(true). When disabled — the default —
// every record call is one relaxed atomic load plus a branch and
// allocates nothing, so instrumentation can live on training hot paths.
//
// All handles are safe to use concurrently from any thread; recording
// never takes a lock.

#include <atomic>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace tpr::obs {

namespace internal {
extern std::atomic<bool> g_metrics_enabled;
}  // namespace internal

/// True when metric recording is on (TPR_METRICS_OUT set, or enabled
/// programmatically). The fast gate used by every record call.
inline bool MetricsEnabled() {
  return internal::g_metrics_enabled.load(std::memory_order_relaxed);
}

/// Turns recording on or off at runtime (tests, tools). Does not change
/// where — or whether — the exit snapshot is written.
void SetMetricsEnabled(bool enabled);

/// Enables recording for a scope and restores the previous state on
/// exit. The flag is process-global, so scopes on concurrent threads
/// still interleave — this only makes the common test/bench pattern
/// (enable, measure, restore) exception-safe.
class ScopedMetricsEnabled {
 public:
  explicit ScopedMetricsEnabled(bool enabled = true)
      : previous_(MetricsEnabled()) {
    SetMetricsEnabled(enabled);
  }
  ~ScopedMetricsEnabled() { SetMetricsEnabled(previous_); }
  ScopedMetricsEnabled(const ScopedMetricsEnabled&) = delete;
  ScopedMetricsEnabled& operator=(const ScopedMetricsEnabled&) = delete;

 private:
  bool previous_;
};

/// Monotonically increasing event count.
class Counter {
 public:
  void Add(uint64_t n = 1) {
    if (!MetricsEnabled()) return;
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void Set(double v) {
    if (!MetricsEnabled()) return;
    value_.store(v, std::memory_order_relaxed);
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram. Ascending boundaries split the line into
/// half-open buckets: bucket i holds [bounds[i-1], bounds[i]), with an
/// implicit overflow bucket above the last boundary. Percentile()
/// interpolates linearly inside the selected bucket, clamped to the
/// observed min/max.
class Histogram {
 public:
  /// `bounds` are ascending bucket boundaries (must be non-empty).
  explicit Histogram(std::vector<double> bounds);

  /// Upper bounds suited to durations in seconds: powers of two from
  /// 1 microsecond to ~128 seconds.
  static std::vector<double> DurationBuckets();

  void Observe(double v);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double min() const { return min_.load(std::memory_order_relaxed); }
  double max() const { return max_.load(std::memory_order_relaxed); }

  /// Estimated value at percentile p in [0, 100]. Returns 0 with no
  /// observations. Exact at the observed min/max; elsewhere accurate to
  /// within the width of the containing bucket.
  double Percentile(double p) const;

  const std::vector<double>& bounds() const { return bounds_; }
  /// Count in bucket i (i == bounds().size() is the overflow bucket).
  uint64_t bucket_count(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  void Reset();

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<uint64_t>> buckets_;  // bounds_.size() + 1
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

/// Registry accessors: return the metric registered under `name`,
/// creating it on first use. The returned reference is stable for the
/// process lifetime (the registry is never destroyed), so callers cache
/// it in a function-local static. Thread-safe.
Counter& GetCounter(const std::string& name);
Gauge& GetGauge(const std::string& name);
Histogram& GetHistogram(const std::string& name);  // DurationBuckets()
Histogram& GetHistogram(const std::string& name, std::vector<double> bounds);

namespace internal {
/// Shared handles MetricScope resolves to while recording is off. They
/// exist before main, so a disabled lookup allocates nothing.
Counter& DiscardCounter();
Gauge& DiscardGauge();
Histogram& DiscardHistogram();
}  // namespace internal

/// A name prefix over the registry, for components that exist more than
/// once per process (per-shard services, rollout controllers, drift
/// detectors). Each instance resolves its handles through its own scope
/// ("shard0." + "serve.requests" -> "shard0.serve.requests"); the default
/// empty prefix yields the historical global names, so single-instance
/// code and existing dashboards are unchanged. Handles resolved through
/// a scope are the same stable registry references as GetCounter's —
/// while recording is on. While it is off, a lookup returns a shared
/// discard handle without building the name or taking the registry
/// lock, so resolve a scoped handle in the call that records through it
/// and never keep it.
class MetricScope {
 public:
  MetricScope() = default;
  explicit MetricScope(std::string prefix) : prefix_(std::move(prefix)) {}

  const std::string& prefix() const { return prefix_; }
  std::string Name(std::string_view name) const {
    std::string full = prefix_;
    full.append(name);
    return full;
  }

  Counter& counter(std::string_view name) const {
    if (!MetricsEnabled()) return internal::DiscardCounter();
    return GetCounter(Name(name));
  }
  Gauge& gauge(std::string_view name) const {
    if (!MetricsEnabled()) return internal::DiscardGauge();
    return GetGauge(Name(name));
  }
  Histogram& histogram(std::string_view name) const {
    if (!MetricsEnabled()) return internal::DiscardHistogram();
    return GetHistogram(Name(name));
  }

 private:
  std::string prefix_;
};

/// JSON snapshot of every registered metric:
/// {"counters":{name:n}, "gauges":{name:v},
///  "histograms":{name:{count,sum,min,max,p50,p90,p99}}}.
std::string MetricsToJson();

/// Writes MetricsToJson() to `path`. Returns false on I/O failure.
bool WriteMetricsJson(const std::string& path);

/// Zeroes every registered metric (test isolation).
void ResetAllMetrics();

}  // namespace tpr::obs

#endif  // TPR_OBS_METRICS_H_
