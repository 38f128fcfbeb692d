#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>

#include "util/logging.h"

namespace tpr::obs {

namespace internal {
std::atomic<bool> g_metrics_enabled{false};
}  // namespace internal

void SetMetricsEnabled(bool enabled) {
  internal::g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {
  TPR_CHECK(!bounds_.empty());
  TPR_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()));
}

std::vector<double> Histogram::DurationBuckets() {
  std::vector<double> bounds;
  for (double b = 1e-6; b < 200.0; b *= 2.0) bounds.push_back(b);
  return bounds;
}

void Histogram::Observe(double v) {
  if (!MetricsEnabled()) return;
  const size_t i =
      std::upper_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin();
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  // CAS loops for min/max (fetch_min/max are C++26).
  double cur = min_.load(std::memory_order_relaxed);
  while (v < cur &&
         !min_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (v > cur &&
         !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

double Histogram::Percentile(double p) const {
  const uint64_t n = count();
  if (n == 0) return 0.0;
  const double lo_obs = min();
  const double hi_obs = max();
  // Rank of the requested percentile, 1-based, clamped into [1, n]. The
  // extreme ranks are answered exactly from the observed range; bucket
  // interpolation only covers the interior.
  const double rank = std::clamp(p / 100.0 * n, 1.0, static_cast<double>(n));
  if (rank <= 1.0) return lo_obs;
  if (rank >= static_cast<double>(n)) return hi_obs;
  uint64_t cum = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    const uint64_t in_bucket = bucket_count(i);
    if (in_bucket == 0) continue;
    if (cum + in_bucket < rank) {
      cum += in_bucket;
      continue;
    }
    // Interpolate inside bucket i between its edges, clamped to the
    // observed range so single-bucket distributions stay tight.
    const double lo = std::max(i == 0 ? lo_obs : bounds_[i - 1], lo_obs);
    const double hi = std::min(i == bounds_.size() ? hi_obs : bounds_[i],
                               hi_obs);
    const double frac = (rank - cum) / static_cast<double>(in_bucket);
    return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
  }
  return hi_obs;  // unreachable when counts are consistent
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

namespace {

// std::map keeps the JSON output deterministically ordered. Values are
// unique_ptrs so handed-out references survive rehash-free forever; the
// registry itself is leaked so exit-time writers can't use-after-free.
struct Registry {
  std::mutex mu;
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Gauge>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>> histograms;
};

Registry& GetRegistry() {
  static Registry* r = new Registry();
  return *r;
}

std::string g_metrics_out_path;  // set by the env initializer below

void AppendJsonKey(std::ostringstream& os, const std::string& name) {
  os << '"';
  for (char c : name) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  os << "\":";
}

// Plain %.17g keeps doubles round-trippable; inf (empty histogram
// min/max) serializes as 0 to stay valid JSON.
void AppendJsonNumber(std::ostringstream& os, double v) {
  if (!std::isfinite(v)) {
    os << 0;
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  os << buf;
}

}  // namespace

Counter& GetCounter(const std::string& name) {
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  auto& slot = r.counters[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& GetGauge(const std::string& name) {
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  auto& slot = r.gauges[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& GetHistogram(const std::string& name) {
  return GetHistogram(name, Histogram::DurationBuckets());
}

Histogram& GetHistogram(const std::string& name, std::vector<double> bounds) {
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  auto& slot = r.histograms[name];
  if (!slot) slot = std::make_unique<Histogram>(std::move(bounds));
  return *slot;
}

namespace internal {
namespace {

struct DiscardHandles {
  Counter counter;
  Gauge gauge;
  Histogram histogram{Histogram::DurationBuckets()};
};

// Leaked like the registry, and built at load time (below) rather than
// on first use, so resolving a discard handle never allocates.
DiscardHandles& Discards() {
  static DiscardHandles* d = new DiscardHandles();
  return *d;
}

[[maybe_unused]] const bool g_discards_built = (Discards(), true);

}  // namespace

Counter& DiscardCounter() { return Discards().counter; }
Gauge& DiscardGauge() { return Discards().gauge; }
Histogram& DiscardHistogram() { return Discards().histogram; }

}  // namespace internal

std::string MetricsToJson() {
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::ostringstream os;
  os << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : r.counters) {
    os << (first ? "\n    " : ",\n    ");
    first = false;
    AppendJsonKey(os, name);
    os << c->value();
  }
  os << "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : r.gauges) {
    os << (first ? "\n    " : ",\n    ");
    first = false;
    AppendJsonKey(os, name);
    AppendJsonNumber(os, g->value());
  }
  os << "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : r.histograms) {
    os << (first ? "\n    " : ",\n    ");
    first = false;
    AppendJsonKey(os, name);
    os << "{\"count\":" << h->count() << ",\"sum\":";
    AppendJsonNumber(os, h->sum());
    os << ",\"min\":";
    AppendJsonNumber(os, h->count() ? h->min() : 0.0);
    os << ",\"max\":";
    AppendJsonNumber(os, h->count() ? h->max() : 0.0);
    os << ",\"p50\":";
    AppendJsonNumber(os, h->Percentile(50));
    os << ",\"p90\":";
    AppendJsonNumber(os, h->Percentile(90));
    os << ",\"p99\":";
    AppendJsonNumber(os, h->Percentile(99));
    os << "}";
  }
  os << "\n  }\n}\n";
  return os.str();
}

bool WriteMetricsJson(const std::string& path) {
  const std::string json = MetricsToJson();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool ok = std::fclose(f) == 0 && written == json.size();
  return ok;
}

void ResetAllMetrics() {
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (auto& [name, c] : r.counters) c->Reset();
  for (auto& [name, h] : r.histograms) h->Reset();
  for (auto& [name, g] : r.gauges) g->Reset();
}

namespace {

// Reads TPR_METRICS_OUT once at load time; enables recording and
// arranges the exit snapshot.
struct MetricsEnvInit {
  MetricsEnvInit() {
    if (const char* p = std::getenv("TPR_METRICS_OUT")) {
      if (*p != '\0') {
        g_metrics_out_path = p;
        SetMetricsEnabled(true);
        std::atexit([] {
          if (!WriteMetricsJson(g_metrics_out_path)) {
            std::fprintf(stderr, "[obs] failed to write metrics to %s\n",
                         g_metrics_out_path.c_str());
          }
        });
      }
    }
  }
} g_metrics_env_init;

}  // namespace

}  // namespace tpr::obs
