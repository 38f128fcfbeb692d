#include "obs/metrics.h"
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <new>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/wsc_trainer.h"
#include "par/thread_pool.h"
#include "synth/presets.h"

// ---------------------------------------------------------------------------
// Allocation counting. The disabled-path contract of tpr::obs is "one
// atomic load plus a branch, no allocation", so the test binary replaces
// global operator new to count heap allocations inside a window.
// ---------------------------------------------------------------------------

namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<uint64_t> g_alloc_count{0};

void* CountedAlloc(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size != 0 ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace tpr::obs {
namespace {

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

TEST(MetricsTest, CounterAndGaugeAreGatedByEnableFlag) {
  Counter c;
  Gauge g;
  SetMetricsEnabled(false);
  c.Add(5);
  g.Set(3.25);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0.0);

  SetMetricsEnabled(true);
  c.Add(5);
  c.Add();
  g.Set(3.25);
  EXPECT_EQ(c.value(), 6u);
  EXPECT_EQ(g.value(), 3.25);
}

TEST(MetricsTest, RegistryReturnsStableHandles) {
  Counter& a = GetCounter("obs_test.stable");
  Counter& b = GetCounter("obs_test.stable");
  EXPECT_EQ(&a, &b);
  Histogram& h1 = GetHistogram("obs_test.stable_hist");
  Histogram& h2 = GetHistogram("obs_test.stable_hist");
  EXPECT_EQ(&h1, &h2);
}

TEST(MetricsTest, HistogramPercentilesOfUniformData) {
  SetMetricsEnabled(true);
  Histogram h({10, 20, 30, 40, 50, 60, 70, 80, 90, 100});
  for (int v = 1; v <= 100; ++v) h.Observe(v);

  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.sum(), 5050.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);

  // Exact at the extremes, bucket-width accurate in between.
  EXPECT_DOUBLE_EQ(h.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 100.0);
  EXPECT_NEAR(h.Percentile(50), 50.5, 10.0);
  EXPECT_NEAR(h.Percentile(90), 90.0, 10.0);
  EXPECT_NEAR(h.Percentile(25), 25.5, 10.0);
}

TEST(MetricsTest, HistogramBucketAssignmentAndOverflow) {
  SetMetricsEnabled(true);
  Histogram h({1.0, 2.0});
  h.Observe(0.5);  // bucket 0: (-inf, 1)
  h.Observe(1.0);  // bucket 1: boundaries open the next bucket
  h.Observe(1.5);  // bucket 1: [1, 2)
  h.Observe(9.0);  // overflow bucket: [2, inf)
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 2u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  // Percentiles in the unbounded overflow bucket clamp to observed max.
  EXPECT_DOUBLE_EQ(h.Percentile(100), 9.0);
  EXPECT_GE(h.Percentile(99), 2.0);
  EXPECT_LE(h.Percentile(99), 9.0);
}

TEST(MetricsTest, HistogramSingleValueIsExactAtEveryPercentile) {
  SetMetricsEnabled(true);
  Histogram h(Histogram::DurationBuckets());
  for (int i = 0; i < 3; ++i) h.Observe(0.042);
  EXPECT_DOUBLE_EQ(h.Percentile(1), 0.042);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 0.042);
  EXPECT_DOUBLE_EQ(h.Percentile(99), 0.042);
}

TEST(MetricsTest, HistogramEmptyReturnsZero) {
  Histogram h({1.0});
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 0.0);
}

TEST(MetricsTest, GaugeDisabledSetPreservesTheLastEnabledValue) {
  // The drift detector exports its PH statistic through gauges; a
  // mid-run disable must freeze the last written value, not zero it —
  // dashboards read "last known", never a phantom reset.
  SetMetricsEnabled(true);
  Gauge& g = GetGauge("obs_test.freeze_gauge");
  g.Set(4.5);
  SetMetricsEnabled(false);
  g.Set(99.0);
  EXPECT_DOUBLE_EQ(g.value(), 4.5);
  SetMetricsEnabled(true);
  g.Set(6.25);
  EXPECT_DOUBLE_EQ(g.value(), 6.25);
}

TEST(MetricsTest, ResetAllMetricsZeroesEverything) {
  SetMetricsEnabled(true);
  GetCounter("obs_test.reset_me").Add(7);
  GetGauge("obs_test.reset_me_g").Set(1.5);
  GetHistogram("obs_test.reset_me_h").Observe(0.5);
  ResetAllMetrics();
  EXPECT_EQ(GetCounter("obs_test.reset_me").value(), 0u);
  EXPECT_EQ(GetGauge("obs_test.reset_me_g").value(), 0.0);
  EXPECT_EQ(GetHistogram("obs_test.reset_me_h").count(), 0u);
}

TEST(MetricsTest, JsonSnapshotContainsRegisteredMetrics) {
  SetMetricsEnabled(true);
  GetCounter("obs_test.json_counter").Add(3);
  GetGauge("obs_test.json_gauge").Set(2.5);
  GetHistogram("obs_test.json_hist").Observe(0.25);
  const std::string json = MetricsToJson();
  EXPECT_NE(json.find("\"obs_test.json_counter\""), std::string::npos);
  EXPECT_NE(json.find("\"obs_test.json_gauge\""), std::string::npos);
  EXPECT_NE(json.find("\"obs_test.json_hist\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Disabled-path overhead: recording through every metric type and
// constructing spans must not allocate while observability is off.
// ---------------------------------------------------------------------------

TEST(ObsOverheadTest, DisabledPathsDoNotAllocate) {
  if (TraceEnabled()) StopTrace();  // the suite may run with TPR_TRACE set
  SetMetricsEnabled(false);
  Counter& c = GetCounter("obs_test.noalloc_counter");
  Gauge& g = GetGauge("obs_test.noalloc_gauge");
  Histogram& h = GetHistogram("obs_test.noalloc_hist");
  // Prefix + name overflow any small-string buffer: a disabled scoped
  // lookup must not even build the name.
  const MetricScope scope("obs_test.a_long_shard_prefix.");

  g_alloc_count.store(0);
  g_count_allocs.store(true);
  for (int i = 0; i < 1000; ++i) {
    c.Add();
    g.Set(i);
    h.Observe(i * 1e-3);
    scope.counter("noalloc_counter").Add();
    scope.gauge("noalloc_gauge").Set(i);
    scope.histogram("noalloc_hist").Observe(i * 1e-3);
    ScopedSpan span("obs_test.noalloc_span");
    TraceCounter("obs_test.noalloc", 1.0);
  }
  g_count_allocs.store(false);
  EXPECT_EQ(g_alloc_count.load(), 0u);

  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.count(), 0u);
}

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

struct ParsedEvent {
  std::string name;
  char phase = '?';
  int tid = -1;
  int64_t ts = 0;
  int64_t dur = 0;
};

int64_t ExtractInt(const std::string& line, const std::string& key) {
  auto pos = line.find(key);
  EXPECT_NE(pos, std::string::npos) << key << " missing in: " << line;
  if (pos == std::string::npos) return 0;
  return std::atoll(line.c_str() + pos + key.size());
}

std::string ExtractString(const std::string& line, const std::string& key) {
  auto pos = line.find(key);
  if (pos == std::string::npos) return "";
  pos += key.size();
  return line.substr(pos, line.find('"', pos) - pos);
}

// Parses the one-event-per-line JSON StopTrace writes. Also sanity-checks
// the envelope and brace balance (our strings never contain braces).
std::vector<ParsedEvent> ParseTrace(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  EXPECT_EQ(text.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(text.find("\"displayTimeUnit\":\"ms\"}"), std::string::npos);
  EXPECT_EQ(std::count(text.begin(), text.end(), '{'),
            std::count(text.begin(), text.end(), '}'));

  std::vector<ParsedEvent> events;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("{\"name\"", 0) != 0) continue;
    ParsedEvent e;
    e.name = ExtractString(line, "\"name\":\"");
    e.phase = ExtractString(line, "\"ph\":\"")[0];
    e.tid = static_cast<int>(ExtractInt(line, "\"tid\":"));
    e.ts = ExtractInt(line, "\"ts\":");
    if (e.phase == 'X') e.dur = ExtractInt(line, "\"dur\":");
    events.push_back(e);
  }
  return events;
}

const ParsedEvent* FindEvent(const std::vector<ParsedEvent>& events,
                             const std::string& name) {
  for (const auto& e : events) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

TEST(TraceTest, SpanNestingAndThreadAttribution) {
  const std::string path = ::testing::TempDir() + "/obs_trace_test.json";
  StartTrace(path);

  {
    ScopedSpan outer("obs_test.outer");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    {
      ScopedSpan inner("obs_test.inner", "depth", 1.0);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  std::thread ta([] {
    SetTraceThreadName("obs-test-worker-a");
    ScopedSpan s("obs_test.thread_a");
  });
  std::thread tb([] { ScopedSpan s("obs_test.thread_b"); });
  ta.join();
  tb.join();

  TraceCounter("obs_test.queue", 3.0);
  ASSERT_TRUE(StopTrace());

  const auto events = ParseTrace(path);
  const ParsedEvent* outer = FindEvent(events, "obs_test.outer");
  const ParsedEvent* inner = FindEvent(events, "obs_test.inner");
  const ParsedEvent* a = FindEvent(events, "obs_test.thread_a");
  const ParsedEvent* b = FindEvent(events, "obs_test.thread_b");
  const ParsedEvent* counter = FindEvent(events, "obs_test.queue");
  const ParsedEvent* meta = FindEvent(events, "thread_name");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_NE(counter, nullptr);
  ASSERT_NE(meta, nullptr);

  // Nesting: the inner complete event lies within the outer one, on the
  // same thread track.
  EXPECT_EQ(inner->tid, outer->tid);
  EXPECT_GE(inner->ts, outer->ts);
  EXPECT_LE(inner->ts + inner->dur, outer->ts + outer->dur);
  EXPECT_GT(outer->dur, inner->dur);

  // Thread attribution: spawned threads get their own stable tids, and
  // the thread_name metadata lands on the thread that set it.
  EXPECT_NE(a->tid, outer->tid);
  EXPECT_NE(b->tid, outer->tid);
  EXPECT_NE(a->tid, b->tid);
  EXPECT_EQ(meta->tid, a->tid);
  EXPECT_EQ(meta->phase, 'M');
  EXPECT_EQ(counter->phase, 'C');
}

TEST(TraceTest, StopWithoutStartReturnsFalse) {
  if (TraceEnabled()) StopTrace();
  EXPECT_FALSE(StopTrace());
}

TEST(TraceTest, RestartDropsEventsFromPreviousTrace) {
  const std::string path = ::testing::TempDir() + "/obs_trace_restart.json";
  StartTrace(path + ".first");
  { ScopedSpan s("obs_test.before_restart"); }
  StartTrace(path);
  { ScopedSpan s("obs_test.after_restart"); }
  ASSERT_TRUE(StopTrace());
  const auto events = ParseTrace(path);
  EXPECT_EQ(FindEvent(events, "obs_test.before_restart"), nullptr);
  EXPECT_NE(FindEvent(events, "obs_test.after_restart"), nullptr);
}

// ---------------------------------------------------------------------------
// Instrumentation must not perturb training: with tracing AND metrics
// enabled, one epoch remains bitwise identical across thread counts
// (the same invariant par_test checks with observability off).
// ---------------------------------------------------------------------------

class ObsDeterminismTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto preset = synth::AalborgPreset();
    synth::ScaleDataset(preset, 0.1);
    auto ds = synth::BuildPresetDataset(preset);
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    auto data = std::make_shared<synth::CityDataset>(std::move(*ds));
    core::FeatureConfig fc;
    fc.temporal_graph.slots_per_day = 48;
    fc.node2vec.walks_per_node = 2;
    fc.node2vec.epochs = 1;
    auto fs = core::BuildFeatureSpace(data, fc);
    ASSERT_TRUE(fs.ok()) << fs.status().ToString();
    features_ = new std::shared_ptr<const core::FeatureSpace>(
        std::make_shared<const core::FeatureSpace>(std::move(*fs)));
  }

  static std::shared_ptr<const core::FeatureSpace>* features_;
};

std::shared_ptr<const core::FeatureSpace>* ObsDeterminismTest::features_ =
    nullptr;

TEST_F(ObsDeterminismTest, TracingPreservesThreadCountDeterminism) {
  const std::string path = ::testing::TempDir() + "/obs_determinism_trace.json";
  StartTrace(path);
  SetMetricsEnabled(true);

  std::vector<int> idx(24);
  std::iota(idx.begin(), idx.end(), 0);

  auto train = [&](int threads) {
    par::SetDefaultThreads(threads);
    core::WscConfig cfg;
    cfg.encoder.d_hidden = 16;
    cfg.encoder.projection_dim = 8;
    cfg.anchors_per_batch = 6;
    core::WscModel model(*features_, cfg);
    auto loss = model.TrainEpoch(idx);
    EXPECT_TRUE(loss.ok()) << loss.status().ToString();
    std::vector<float> flat;
    for (const auto& p : model.encoder().Parameters()) {
      const auto& v = p.value();
      flat.insert(flat.end(), v.data(), v.data() + v.size());
    }
    return std::make_pair(*loss, flat);
  };

  const auto [loss1, params1] = train(1);
  const auto [loss4, params4] = train(4);
  par::SetDefaultThreads(par::ConfiguredThreads());

  EXPECT_EQ(loss1, loss4);  // exact, not approximate
  ASSERT_EQ(params1.size(), params4.size());
  for (size_t i = 0; i < params1.size(); ++i) {
    ASSERT_EQ(params1[i], params4[i]) << "parameter element " << i;
  }

  // The trace collected during training must contain the trainer's and
  // optimizer's spans, and the instrumentation must have counted work.
  ASSERT_TRUE(StopTrace());
  const auto events = ParseTrace(path);
  EXPECT_NE(FindEvent(events, "wsc.train_epoch"), nullptr);
  EXPECT_NE(FindEvent(events, "wsc.shard"), nullptr);
  EXPECT_NE(FindEvent(events, "nn.adam_step"), nullptr);
  EXPECT_GT(GetCounter("nn.adam_steps").value(), 0u);
  EXPECT_GT(GetCounter("nn.matmul_ops").value(), 0u);
  EXPECT_GT(GetHistogram("nn.adam_step_seconds").count(), 0u);
}

}  // namespace
}  // namespace tpr::obs
