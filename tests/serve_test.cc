#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/features.h"
#include "fault/fault.h"
#include "nn/autograd.h"
#include "obs/metrics.h"
#include "quant/quant.h"
#include "serve/lru_cache.h"
#include "serve/service.h"
#include "synth/presets.h"
#include "util/rng.h"

namespace tpr::serve {
namespace {

using core::FeatureSpace;
using core::TemporalPathEncoder;

std::string ScratchDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "tpr_serve_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Deterministically nudges every parameter so two encoders built from
/// the same features/config stop being bitwise-identical.
void PerturbParameters(core::TemporalPathEncoder& encoder, float scale,
                       uint64_t seed) {
  Rng rng(seed);
  for (nn::Var p : encoder.Parameters()) {
    if (!p.defined()) continue;
    nn::Tensor& t = p.mutable_value();
    float* d = t.data();
    for (size_t i = 0; i < t.size(); ++i) {
      d[i] += scale * (2.0f * static_cast<float>(rng.Uniform()) - 1.0f);
    }
  }
}

// ---------------------------------------------------------------------------
// LRU cache.
// ---------------------------------------------------------------------------

TEST(EmbeddingLruCacheTest, EvictsLeastRecentlyUsed) {
  EmbeddingLruCache cache(2);
  cache.Put("a", {1.0f});
  cache.Put("b", {2.0f});
  ASSERT_TRUE(cache.Get("a").has_value());  // refresh "a"
  cache.Put("c", {3.0f});                   // evicts "b"
  EXPECT_TRUE(cache.Get("a").has_value());
  EXPECT_FALSE(cache.Get("b").has_value());
  EXPECT_TRUE(cache.Get("c").has_value());
  EXPECT_EQ(cache.size(), 2u);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Get("a").has_value());
}

TEST(EmbeddingLruCacheTest, ZeroCapacityDisablesCaching) {
  EmbeddingLruCache cache(0);
  cache.Put("a", {1.0f});
  EXPECT_FALSE(cache.Get("a").has_value());
  EXPECT_EQ(cache.size(), 0u);
}

// ---------------------------------------------------------------------------
// Service fixture on a tiny city.
// ---------------------------------------------------------------------------

class ServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto preset = synth::AalborgPreset();
    synth::ScaleDataset(preset, 0.1);
    auto ds = synth::BuildPresetDataset(preset);
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    data_ = new std::shared_ptr<synth::CityDataset>(
        std::make_shared<synth::CityDataset>(std::move(*ds)));
    core::FeatureConfig fc;
    fc.temporal_graph.slots_per_day = 48;
    fc.node2vec.walks_per_node = 2;
    fc.node2vec.epochs = 1;
    auto fs = core::BuildFeatureSpace(*data_, fc);
    ASSERT_TRUE(fs.ok()) << fs.status().ToString();
    features_ = new std::shared_ptr<const FeatureSpace>(
        std::make_shared<const FeatureSpace>(std::move(*fs)));
  }

  // Freed so the suite is LeakSanitizer-clean (CI runs it under ASan).
  static void TearDownTestSuite() {
    delete features_;
    features_ = nullptr;
    delete data_;
    data_ = nullptr;
  }

  void SetUp() override {
    fault::ClearPlan();
    obs::SetMetricsEnabled(true);
    obs::ResetAllMetrics();
  }
  void TearDown() override {
    fault::ClearPlan();
    obs::SetMetricsEnabled(false);
  }

  static core::EncoderConfig TinyEncoder() {
    core::EncoderConfig cfg;
    cfg.d_hidden = 16;
    cfg.projection_dim = 8;
    return cfg;
  }

  static ServiceConfig TinyService() {
    ServiceConfig cfg;
    cfg.num_workers = 2;
    cfg.queue_capacity = 64;
    cfg.block_when_full = true;
    cfg.max_retries = 2;
    cfg.backoff_base_ms = 0.01;
    cfg.backoff_max_ms = 0.05;
    cfg.breaker_trip_threshold = 5;
    cfg.breaker_open_requests = 4;
    cfg.cache_capacity = 256;
    cfg.time_bucket_s = 600;
    return cfg;
  }

  static void Install(const std::string& spec) {
    auto plan = fault::FaultPlan::Parse(spec);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    fault::InstallPlan(*std::move(plan));
  }

  PathQuery Query(int sample, uint64_t id, int64_t time_shift = 0) {
    const auto& s =
        (*data_)->unlabeled[static_cast<size_t>(sample) %
                            (*data_)->unlabeled.size()];
    PathQuery q;
    q.path = s.path;
    q.depart_time_s = s.depart_time_s + time_shift;
    q.id = id;
    return q;
  }

  std::shared_ptr<const FeatureSpace> features() { return *features_; }

  /// Int8 twin of `encoder`, calibrated over a few dataset paths — the
  /// same artifact tpr::rollout publishes beside a candidate.
  std::shared_ptr<const quant::QuantizedEncoder> MakeTwin(
      const TemporalPathEncoder& encoder, uint64_t generation) {
    std::vector<core::PathTimeItem> calibration;
    const auto& samples = (*data_)->unlabeled;
    for (size_t i = 0; i < 8 && i < samples.size(); ++i) {
      calibration.push_back({&samples[i].path, samples[i].depart_time_s});
    }
    auto model = quant::QuantizeEncoder(encoder, calibration);
    EXPECT_TRUE(model.ok()) << model.status().ToString();
    if (!model.ok()) return nullptr;
    model->generation = generation;
    return std::make_shared<const quant::QuantizedEncoder>(
        features(), *std::move(model));
  }

  static std::shared_ptr<synth::CityDataset>* data_;
  static std::shared_ptr<const FeatureSpace>* features_;
};

std::shared_ptr<synth::CityDataset>* ServeTest::data_ = nullptr;
std::shared_ptr<const FeatureSpace>* ServeTest::features_ = nullptr;

// ---------------------------------------------------------------------------
// Basic serving.
// ---------------------------------------------------------------------------

TEST_F(ServeTest, StartRequiresAModel) {
  InferenceService svc(features(), TinyEncoder(), TinyService());
  EXPECT_EQ(svc.Start().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(svc.SubmitAndWait(Query(0, 1)).status.code(),
            StatusCode::kUnavailable);

  svc.InstallModel(
      std::make_shared<TemporalPathEncoder>(features(), TinyEncoder()), 1);
  ASSERT_TRUE(svc.Start().ok());
  EXPECT_EQ(svc.Start().code(), StatusCode::kFailedPrecondition);
  svc.Shutdown();
  EXPECT_EQ(svc.SubmitAndWait(Query(0, 2)).status.code(),
            StatusCode::kUnavailable);
}

TEST_F(ServeTest, FullRungMatchesTheEncoderExactly) {
  auto encoder =
      std::make_shared<TemporalPathEncoder>(features(), TinyEncoder());
  InferenceService svc(features(), TinyEncoder(), TinyService());
  svc.InstallModel(encoder, 1);
  ASSERT_TRUE(svc.Start().ok());

  const PathQuery q = Query(0, 42);
  ServeResult r = svc.SubmitAndWait(q);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.rung, Rung::kFull);
  EXPECT_EQ(r.attempts, 1);
  EXPECT_EQ(r.embedding, encoder->EncodeValue(q.path, q.depart_time_s));
  EXPECT_EQ(static_cast<int>(r.embedding.size()), svc.representation_dim());
}

TEST_F(ServeTest, MalformedQueriesAreRejectedBeforeAdmission) {
  auto encoder =
      std::make_shared<TemporalPathEncoder>(features(), TinyEncoder());
  InferenceService svc(features(), TinyEncoder(), TinyService());
  svc.InstallModel(encoder, 1);
  ASSERT_TRUE(svc.Start().ok());

  PathQuery empty = Query(0, 50);
  empty.path.clear();
  EXPECT_EQ(svc.SubmitAndWait(empty).status.code(),
            StatusCode::kInvalidArgument);
  const int num_edges = (*data_)->network->num_edges();
  for (int bad_edge : {num_edges, -1}) {
    PathQuery q = Query(0, 51);
    q.path.back() = bad_edge;
    EXPECT_EQ(svc.SubmitAndWait(q).status.code(),
              StatusCode::kInvalidArgument)
        << "edge " << bad_edge;
  }
  // Refused before admission: no request was counted or ticketed.
  EXPECT_EQ(obs::GetCounter("serve.requests").value(), 0u);

  const PathQuery q = Query(1, 52);
  ServeResult r = svc.SubmitAndWait(q);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.rung, Rung::kFull);
  EXPECT_EQ(r.embedding, encoder->EncodeValue(q.path, q.depart_time_s));
}

// ---------------------------------------------------------------------------
// Model lifecycle through the checkpoint layer.
// ---------------------------------------------------------------------------

TEST_F(ServeTest, LoadModelKeepsServingTheOldGenerationOnFailure) {
  const std::string dir_a = ScratchDir("gen_a");
  const std::string dir_b = ScratchDir("gen_b");
  TemporalPathEncoder encoder(features(), TinyEncoder());
  ASSERT_TRUE(InferenceService::SaveModel(encoder, dir_a, 3).ok());
  ASSERT_TRUE(InferenceService::SaveModel(encoder, dir_b, 4).ok());

  InferenceService svc(features(), TinyEncoder(), TinyService());
  ASSERT_TRUE(svc.LoadModel(dir_a).ok());
  EXPECT_EQ(svc.model_generation(), 3u);
  ASSERT_TRUE(svc.Start().ok());

  const PathQuery q = Query(0, 7);
  EXPECT_EQ(svc.SubmitAndWait(q).embedding,
            encoder.EncodeValue(q.path, q.depart_time_s));

  // A dead checkpoint store must not dislodge the installed model.
  Install("ckpt-read:after=0");
  EXPECT_FALSE(svc.LoadModel(dir_b).ok());
  EXPECT_EQ(svc.model_generation(), 3u);
  ServeResult still = svc.SubmitAndWait(Query(0, 8));
  ASSERT_TRUE(still.status.ok());
  EXPECT_EQ(still.rung, Rung::kFull);

  fault::ClearPlan();
  ASSERT_TRUE(svc.LoadModel(dir_b).ok());
  EXPECT_EQ(svc.model_generation(), 4u);
}

TEST_F(ServeTest, LoadModelRejectsMismatchedRepresentationDim) {
  const std::string dir = ScratchDir("wrong_dim");
  core::EncoderConfig wide = TinyEncoder();
  wide.d_hidden = 8;
  TemporalPathEncoder encoder(features(), wide);
  ASSERT_TRUE(InferenceService::SaveModel(encoder, dir, 1).ok());

  InferenceService svc(features(), TinyEncoder(), TinyService());
  EXPECT_EQ(svc.LoadModel(dir).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(svc.model_generation(), 0u);
}

// ---------------------------------------------------------------------------
// Degradation ladder under injected faults.
// ---------------------------------------------------------------------------

TEST_F(ServeTest, AllocFaultDegradesToTheCacheRung) {
  ServiceConfig cfg = TinyService();
  cfg.num_workers = 1;
  InferenceService svc(features(), TinyEncoder(), cfg);
  svc.InstallModel(
      std::make_shared<TemporalPathEncoder>(features(), TinyEncoder()), 1);
  ASSERT_TRUE(svc.Start().ok());
  Install("alloc:p=1");  // rung 0 is never attempted

  ServeResult first = svc.SubmitAndWait(Query(0, 100));
  ASSERT_TRUE(first.status.ok());
  EXPECT_EQ(first.rung, Rung::kCached);
  EXPECT_EQ(first.attempts, 0);

  // Same (path, bucket), different request: a cache hit with identical
  // bytes — hit vs recompute is invisible in the result.
  ServeResult second = svc.SubmitAndWait(Query(0, 101));
  ASSERT_TRUE(second.status.ok());
  EXPECT_EQ(second.rung, Rung::kCached);
  EXPECT_EQ(second.embedding, first.embedding);
  EXPECT_EQ(obs::GetCounter("serve.cache_hits").value(), 1u);
  EXPECT_EQ(obs::GetCounter("serve.cache_misses").value(), 1u);
}

TEST_F(ServeTest, TotalEncoderOutageDegradesToTheFallbackRung) {
  ServiceConfig cfg = TinyService();
  cfg.num_workers = 1;
  cfg.breaker_trip_threshold = 1000;  // keep rung 0 reachable throughout
  InferenceService svc(features(), TinyEncoder(), cfg);
  svc.InstallModel(
      std::make_shared<TemporalPathEncoder>(features(), TinyEncoder()), 1);
  ASSERT_TRUE(svc.Start().ok());
  Install("encoder-forward:p=1");

  ServeResult r = svc.SubmitAndWait(Query(1, 200));
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.rung, Rung::kFallback);
  EXPECT_EQ(r.attempts, 1 + cfg.max_retries);
  EXPECT_EQ(static_cast<int>(r.embedding.size()), svc.representation_dim());
  // The fallback is pure arithmetic over frozen node2vec vectors.
  EXPECT_EQ(svc.SubmitAndWait(Query(1, 201)).embedding, r.embedding);
  EXPECT_GE(obs::GetCounter("serve.retries").value(),
            static_cast<uint64_t>(cfg.max_retries));
}

TEST_F(ServeTest, RetryRecoversFromATransientForwardFault) {
  ServiceConfig cfg = TinyService();
  cfg.num_workers = 1;
  cfg.breaker_trip_threshold = 1000;
  InferenceService svc(features(), TinyEncoder(), cfg);
  svc.InstallModel(
      std::make_shared<TemporalPathEncoder>(features(), TinyEncoder()), 1);
  ASSERT_TRUE(svc.Start().ok());
  Install("encoder-forward:p=0.5,seed=9");

  // Find a request id whose first attempt fails and second succeeds —
  // WouldFail is the pure lookahead of the worker's verdicts.
  uint64_t id = 0;
  bool found = false;
  for (uint64_t k = 1; k < 4096 && !found; ++k) {
    if (fault::WouldFail(fault::kEncoderForward, MixSeed(k, 0)) &&
        !fault::WouldFail(fault::kEncoderForward, MixSeed(k, 1))) {
      id = k;
      found = true;
    }
  }
  ASSERT_TRUE(found);

  ServeResult r = svc.SubmitAndWait(Query(2, id));
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.rung, Rung::kFull);
  EXPECT_EQ(r.attempts, 2);
}

TEST_F(ServeTest, EveryRungIsReachableUnderAProbabilisticOutage) {
  ServiceConfig cfg = TinyService();
  cfg.num_workers = 1;
  cfg.breaker_trip_threshold = 1000;
  cfg.cache_capacity = 4;  // force recomputes too
  InferenceService svc(features(), TinyEncoder(), cfg);
  svc.InstallModel(
      std::make_shared<TemporalPathEncoder>(features(), TinyEncoder()), 1);
  ASSERT_TRUE(svc.Start().ok());
  Install("encoder-forward:p=0.6,seed=5");

  int rung_count[4] = {0, 0, 0, 0};
  for (int i = 0; i < 200; ++i) {
    ServeResult r = svc.SubmitAndWait(
        Query(i % 17, 1000 + static_cast<uint64_t>(i), (i % 5) * 700));
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    rung_count[static_cast<int>(r.rung)] += 1;
  }
  EXPECT_GT(rung_count[0], 0) << "full rung never reached";
  EXPECT_EQ(rung_count[1], 0) << "no twin installed, yet the quant rung hit";
  EXPECT_GT(rung_count[2], 0) << "cached rung never reached";
  EXPECT_GT(rung_count[3], 0) << "fallback rung never reached";
  EXPECT_GT(obs::GetCounter("serve.retries").value(), 0u);
}

// ---------------------------------------------------------------------------
// Quantized rung (rung 1).
// ---------------------------------------------------------------------------

TEST_F(ServeTest, QuantRungServesUnderAFullEncoderOutage) {
  ServiceConfig cfg = TinyService();
  cfg.num_workers = 1;
  cfg.breaker_trip_threshold = 1000;
  auto encoder =
      std::make_shared<TemporalPathEncoder>(features(), TinyEncoder());
  auto twin = MakeTwin(*encoder, 1);
  ASSERT_NE(twin, nullptr);
  InferenceService svc(features(), TinyEncoder(), cfg);
  svc.InstallModel(encoder, 1, twin);
  ASSERT_TRUE(svc.Start().ok());
  Install("encoder-forward:p=1");

  // The fp32 rung exhausts its retries, then the int8 twin answers at
  // the EXACT request time — not the cache's bucket-representative time.
  const PathQuery q = Query(0, 300, /*time_shift=*/7);
  ServeResult r = svc.SubmitAndWait(q);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.rung, Rung::kQuantized);
  EXPECT_EQ(r.attempts, 1 + cfg.max_retries);
  EXPECT_EQ(r.generation, 1u);
  EXPECT_EQ(r.embedding, twin->EncodeValue(q.path, q.depart_time_s));
  EXPECT_EQ(static_cast<int>(r.embedding.size()), svc.representation_dim());
  EXPECT_EQ(obs::GetCounter("serve.quant_hits").value(), 1u);
}

TEST_F(ServeTest, QuantEncodeFaultDegradesPastTheQuantRung) {
  ServiceConfig cfg = TinyService();
  cfg.num_workers = 1;
  cfg.breaker_trip_threshold = 1000;
  auto encoder =
      std::make_shared<TemporalPathEncoder>(features(), TinyEncoder());
  auto twin = MakeTwin(*encoder, 1);
  ASSERT_NE(twin, nullptr);
  InferenceService svc(features(), TinyEncoder(), cfg);
  svc.InstallModel(encoder, 1, twin);
  ASSERT_TRUE(svc.Start().ok());
  // alloc skips rung 0 entirely (the cache rung stays computable); the
  // injected quant-encode fault must push the ladder past the twin.
  Install("alloc:p=1;quant-encode:p=1");

  ServeResult r = svc.SubmitAndWait(Query(0, 301));
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.rung, Rung::kCached);
  EXPECT_EQ(obs::GetCounter("serve.quant_hits").value(), 0u);
  // Quantized failures are never breaker signals.
  EXPECT_EQ(obs::GetCounter("serve.breaker_trips").value(), 0u);
}

TEST_F(ServeTest, TprQuantEnvDisablesTheQuantRung) {
  ::setenv("TPR_QUANT", "0", 1);
  ServiceConfig cfg = TinyService();
  cfg.num_workers = 1;
  cfg.breaker_trip_threshold = 1000;
  auto encoder =
      std::make_shared<TemporalPathEncoder>(features(), TinyEncoder());
  auto twin = MakeTwin(*encoder, 1);
  ASSERT_NE(twin, nullptr);
  // The ctor snapshots TPR_QUANT; even an explicitly installed twin must
  // not serve.
  InferenceService svc(features(), TinyEncoder(), cfg);
  ::unsetenv("TPR_QUANT");
  svc.InstallModel(encoder, 1, twin);
  ASSERT_TRUE(svc.Start().ok());
  Install("alloc:p=1");

  ServeResult r = svc.SubmitAndWait(Query(0, 302));
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.rung, Rung::kCached);
  EXPECT_EQ(obs::GetCounter("serve.quant_hits").value(), 0u);
}

TEST_F(ServeTest, LoadModelAutoLoadsTheQuantTwinArtifact) {
  const std::string dir = ScratchDir("quant_twin");
  TemporalPathEncoder encoder(features(), TinyEncoder());
  ASSERT_TRUE(InferenceService::SaveModel(encoder, dir, 5).ok());
  auto twin = MakeTwin(encoder, 5);
  ASSERT_NE(twin, nullptr);
  ASSERT_TRUE(quant::SaveQuantizedModel(dir, twin->model(), 5).ok());

  ServiceConfig cfg = TinyService();
  cfg.num_workers = 1;
  cfg.breaker_trip_threshold = 1000;
  InferenceService svc(features(), TinyEncoder(), cfg);
  ASSERT_TRUE(svc.LoadModel(dir).ok());
  ASSERT_TRUE(svc.Start().ok());
  Install("encoder-forward:p=1");

  const PathQuery q = Query(0, 303);
  ServeResult r = svc.SubmitAndWait(q);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.rung, Rung::kQuantized);
  EXPECT_EQ(r.generation, 5u);
  EXPECT_EQ(r.embedding, twin->EncodeValue(q.path, q.depart_time_s));
}

TEST_F(ServeTest, LoadModelWithoutAnArtifactKeepsTheOldLadder) {
  const std::string dir = ScratchDir("no_twin");
  TemporalPathEncoder encoder(features(), TinyEncoder());
  ASSERT_TRUE(InferenceService::SaveModel(encoder, dir, 6).ok());

  ServiceConfig cfg = TinyService();
  cfg.num_workers = 1;
  cfg.breaker_trip_threshold = 1000;
  InferenceService svc(features(), TinyEncoder(), cfg);
  ASSERT_TRUE(svc.LoadModel(dir).ok());  // a missing twin is not an error
  ASSERT_TRUE(svc.Start().ok());
  Install("alloc:p=1");

  ServeResult r = svc.SubmitAndWait(Query(0, 304));
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.rung, Rung::kCached);
  EXPECT_EQ(obs::GetCounter("serve.quant_twin_load_failures").value(), 0u);
}

TEST_F(ServeTest, LoadModelLeavesTheQuantRungDarkForAMisshapenTwin) {
  const std::string dir = ScratchDir("misshapen_twin");
  TemporalPathEncoder encoder(features(), TinyEncoder());
  ASSERT_TRUE(InferenceService::SaveModel(encoder, dir, 8).ok());
  // Same generation, another d_hidden: the twin cannot stand in for
  // this encoder.
  core::EncoderConfig wide = TinyEncoder();
  wide.d_hidden = 32;
  TemporalPathEncoder wide_encoder(features(), wide);
  auto twin = MakeTwin(wide_encoder, 8);
  ASSERT_NE(twin, nullptr);
  ASSERT_TRUE(quant::SaveQuantizedModel(dir, twin->model(), 8).ok());

  ServiceConfig cfg = TinyService();
  cfg.num_workers = 1;
  cfg.breaker_trip_threshold = 1000;
  InferenceService svc(features(), TinyEncoder(), cfg);
  ASSERT_TRUE(svc.LoadModel(dir).ok());  // the generation still loads
  EXPECT_EQ(svc.model_generation(), 8u);
  EXPECT_EQ(obs::GetCounter("serve.quant_twin_load_failures").value(), 1u);
  ASSERT_TRUE(svc.Start().ok());
  Install("alloc:p=1");

  ServeResult r = svc.SubmitAndWait(Query(0, 305));
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.rung, Rung::kCached);
  EXPECT_EQ(obs::GetCounter("serve.quant_hits").value(), 0u);
}

TEST_F(ServeTest, InjectedQueueFullShedsAtAdmission) {
  InferenceService svc(features(), TinyEncoder(), TinyService());
  svc.InstallModel(
      std::make_shared<TemporalPathEncoder>(features(), TinyEncoder()), 1);
  ASSERT_TRUE(svc.Start().ok());
  Install("queue-full:p=1");
  ServeResult r = svc.SubmitAndWait(Query(0, 1));
  EXPECT_EQ(r.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(obs::GetCounter("serve.shed").value(), 1u);

  fault::ClearPlan();
  EXPECT_TRUE(svc.SubmitAndWait(Query(0, 2)).status.ok());
}

TEST_F(ServeTest, DeadlineExceededUnderInjectedSlowness) {
  InferenceService svc(features(), TinyEncoder(), TinyService());
  svc.InstallModel(
      std::make_shared<TemporalPathEncoder>(features(), TinyEncoder()), 1);
  ASSERT_TRUE(svc.Start().ok());
  Install("slow-worker:delay_ms=50");
  ServeResult r = svc.SubmitAndWait(Query(0, 1), /*deadline_ms=*/2);
  EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(obs::GetCounter("serve.deadline_exceeded").value(), 1u);

  // Without the injected slowness the same deadline is comfortable.
  fault::ClearPlan();
  EXPECT_TRUE(svc.SubmitAndWait(Query(0, 2), /*deadline_ms=*/5000).status.ok());
}

TEST_F(ServeTest, ShutdownResolvesEveryQueuedRequest) {
  ServiceConfig cfg = TinyService();
  cfg.num_workers = 1;
  InferenceService svc(features(), TinyEncoder(), cfg);
  svc.InstallModel(
      std::make_shared<TemporalPathEncoder>(features(), TinyEncoder()), 1);
  ASSERT_TRUE(svc.Start().ok());
  Install("slow-worker:delay_ms=20");

  std::vector<std::future<ServeResult>> futures;
  for (uint64_t i = 0; i < 8; ++i) {
    auto submitted = svc.Submit(Query(0, i));
    ASSERT_TRUE(submitted.ok());
    futures.push_back(std::move(*submitted));
  }
  svc.Shutdown();
  int unavailable = 0;
  for (auto& f : futures) {
    ServeResult r = f.get();  // every promise must resolve — no hangs
    EXPECT_TRUE(r.status.ok() ||
                r.status.code() == StatusCode::kUnavailable)
        << r.status.ToString();
    unavailable += r.status.code() == StatusCode::kUnavailable ? 1 : 0;
  }
  EXPECT_GT(unavailable, 0) << "shutdown drained nothing";
}

// ---------------------------------------------------------------------------
// Circuit breaker.
// ---------------------------------------------------------------------------

TEST_F(ServeTest, BreakerTripsUnderOutageAndReclosesAfterRecovery) {
  ServiceConfig cfg = TinyService();
  cfg.num_workers = 1;
  cfg.max_retries = 0;
  cfg.breaker_trip_threshold = 3;
  cfg.breaker_open_requests = 2;
  InferenceService svc(features(), TinyEncoder(), cfg);
  svc.InstallModel(
      std::make_shared<TemporalPathEncoder>(features(), TinyEncoder()), 1);
  ASSERT_TRUE(svc.Start().ok());

  // Total outage, folded predictively in admission order: requests 1-3
  // trip the breaker, 4-5 are skipped straight past rung 0, and the
  // half-open probe (6) fails and reopens it.
  Install("encoder-forward:p=1");
  uint64_t id = 0;
  for (int i = 0; i < 3; ++i) {
    ServeResult r = svc.SubmitAndWait(Query(0, ++id));
    ASSERT_TRUE(r.status.ok());
    EXPECT_EQ(r.rung, Rung::kFallback);
    EXPECT_EQ(r.attempts, 1);
  }
  EXPECT_EQ(obs::GetCounter("serve.breaker_trips").value(), 1u);
  for (int i = 0; i < 2; ++i) {
    ServeResult r = svc.SubmitAndWait(Query(0, ++id));
    ASSERT_TRUE(r.status.ok());
    EXPECT_EQ(r.attempts, 0) << "open breaker must skip rung 0";
  }
  EXPECT_EQ(obs::GetCounter("serve.breaker_open_skips").value(), 2u);
  ServeResult probe = svc.SubmitAndWait(Query(0, ++id));
  ASSERT_TRUE(probe.status.ok());
  EXPECT_EQ(probe.attempts, 1);  // the probe goes back into rung 0
  EXPECT_EQ(probe.rung, Rung::kFallback);
  EXPECT_EQ(obs::GetCounter("serve.breaker_trips").value(), 2u);

  // The outage ends (no plan installed). The still-open breaker
  // keeps skipping rung 0 for its window, then a successful probe
  // re-closes it and traffic returns to the full encoder.
  fault::ClearPlan();
  for (int i = 0; i < 2; ++i) {
    ServeResult r = svc.SubmitAndWait(Query(0, ++id));
    ASSERT_TRUE(r.status.ok());
    EXPECT_EQ(r.attempts, 0);
  }
  ServeResult recovery_probe = svc.SubmitAndWait(Query(0, ++id));
  ASSERT_TRUE(recovery_probe.status.ok());
  EXPECT_EQ(recovery_probe.rung, Rung::kFull);
  ServeResult after = svc.SubmitAndWait(Query(0, ++id));
  ASSERT_TRUE(after.status.ok());
  EXPECT_EQ(after.rung, Rung::kFull);
  EXPECT_EQ(obs::GetCounter("serve.breaker_open_skips").value(), 4u);
}

TEST_F(ServeTest, BreakerRecoveryIsFoldedAtAdmissionUnderPipelinedLoad) {
  ServiceConfig cfg = TinyService();
  cfg.num_workers = 4;
  cfg.max_retries = 0;
  cfg.breaker_trip_threshold = 3;
  cfg.breaker_open_requests = 4;
  InferenceService svc(features(), TinyEncoder(), cfg);
  svc.InstallModel(
      std::make_shared<TemporalPathEncoder>(features(), TinyEncoder()), 1);
  ASSERT_TRUE(svc.Start().ok());

  Install("encoder-forward:p=1");
  uint64_t id = 0;
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(svc.SubmitAndWait(Query(i, ++id)).rung, Rung::kFallback);
  }
  ASSERT_EQ(obs::GetCounter("serve.breaker_trips").value(), 1u);

  // The outage ends with no plan installed, and all 32 requests are
  // admitted before any result is read, so workers complete requests
  // while later ones are still being admitted. The open window skips
  // exactly the next 4 admissions; the 5th is the half-open probe and
  // re-closes the breaker at its own admission, whatever the workers
  // are doing.
  fault::ClearPlan();
  std::vector<std::future<ServeResult>> futures;
  for (int i = 0; i < 32; ++i) {
    auto submitted = svc.Submit(Query(i, ++id));
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    futures.push_back(std::move(submitted).value());
  }
  int skipped = 0;
  int full = 0;
  for (auto& f : futures) {
    const ServeResult r = f.get();
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    skipped += r.attempts == 0 ? 1 : 0;
    full += r.rung == Rung::kFull ? 1 : 0;
  }
  EXPECT_EQ(skipped, 4);
  EXPECT_EQ(full, 28);
  EXPECT_EQ(obs::GetCounter("serve.breaker_open_skips").value(), 4u);
}

// ---------------------------------------------------------------------------
// Install/swap contract: every install is a fresh generation slot.
// ---------------------------------------------------------------------------

TEST_F(ServeTest, InstallModelAlwaysResetsTheRungOneCache) {
  ServiceConfig cfg = TinyService();
  cfg.num_workers = 1;
  auto encoder =
      std::make_shared<TemporalPathEncoder>(features(), TinyEncoder());
  InferenceService svc(features(), TinyEncoder(), cfg);
  svc.InstallModel(encoder, 1);
  ASSERT_TRUE(svc.Start().ok());
  Install("alloc:p=1");  // every request lands on the cache rung

  ASSERT_TRUE(svc.SubmitAndWait(Query(0, 100)).status.ok());  // miss
  ASSERT_TRUE(svc.SubmitAndWait(Query(0, 101)).status.ok());  // hit
  EXPECT_EQ(obs::GetCounter("serve.cache_hits").value(), 1u);
  EXPECT_EQ(obs::GetCounter("serve.cache_misses").value(), 1u);

  // Re-installing — even the SAME generation number — must start from an
  // empty cache: the installed parameters may differ, and stale entries
  // would serve the old model's embeddings.
  svc.InstallModel(encoder, 1);
  ServeResult r = svc.SubmitAndWait(Query(0, 102));
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.rung, Rung::kCached);
  EXPECT_EQ(obs::GetCounter("serve.cache_hits").value(), 1u);
  EXPECT_EQ(obs::GetCounter("serve.cache_misses").value(), 2u)
      << "InstallModel served a stale cache entry";
}

TEST_F(ServeTest, InstallModelAlwaysResetsTheBreaker) {
  ServiceConfig cfg = TinyService();
  cfg.num_workers = 1;
  cfg.max_retries = 0;
  cfg.breaker_trip_threshold = 2;
  cfg.breaker_open_requests = 8;
  auto encoder =
      std::make_shared<TemporalPathEncoder>(features(), TinyEncoder());
  InferenceService svc(features(), TinyEncoder(), cfg);
  svc.InstallModel(encoder, 1);
  ASSERT_TRUE(svc.Start().ok());
  Install("encoder-forward:p=1");

  for (uint64_t id = 1; id <= 2; ++id) {
    EXPECT_EQ(svc.SubmitAndWait(Query(0, id)).attempts, 1);
  }
  EXPECT_EQ(obs::GetCounter("serve.breaker_trips").value(), 1u);
  EXPECT_EQ(svc.SubmitAndWait(Query(0, 3)).attempts, 0) << "breaker not open";

  // Same generation number again: the breaker must still reset — its
  // failure history described the previous install.
  svc.InstallModel(encoder, 1);
  EXPECT_EQ(svc.SubmitAndWait(Query(0, 4)).attempts, 1)
      << "InstallModel kept the tripped breaker";
  EXPECT_EQ(obs::GetCounter("serve.breaker_open_skips").value(), 1u);
}

TEST_F(ServeTest, LoadModelUnderLiveTrafficServesExactlyOneGeneration) {
  const std::string dir_a = ScratchDir("swap_a");
  const std::string dir_b = ScratchDir("swap_b");
  auto enc3 = std::make_shared<TemporalPathEncoder>(features(), TinyEncoder());
  auto enc4 = std::make_shared<TemporalPathEncoder>(features(), TinyEncoder());
  PerturbParameters(*enc4, 0.05f, 99);
  ASSERT_TRUE(InferenceService::SaveModel(*enc3, dir_a, 3).ok());
  ASSERT_TRUE(InferenceService::SaveModel(*enc4, dir_b, 4).ok());

  const PathQuery base = Query(0, 0);
  const std::vector<float> e3 = enc3->EncodeValue(base.path, base.depart_time_s);
  const std::vector<float> e4 = enc4->EncodeValue(base.path, base.depart_time_s);
  ASSERT_NE(e3, e4);

  InferenceService svc(features(), TinyEncoder(), TinyService());
  ASSERT_TRUE(svc.LoadModel(dir_a).ok());
  ASSERT_TRUE(svc.Start().ok());

  // Full-rate traffic on one thread while the model swaps under it: every
  // result must be the exact embedding of the generation it reports —
  // never a torn read or a mix of parameters.
  std::atomic<bool> stop{false};
  std::atomic<int> served[2] = {{0}, {0}};
  std::thread traffic([&] {
    uint64_t id = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      PathQuery q = base;
      q.id = id++;
      ServeResult r = svc.SubmitAndWait(q);
      if (!r.status.ok()) continue;
      EXPECT_EQ(r.rung, Rung::kFull);
      if (r.generation == 3) {
        EXPECT_EQ(r.embedding, e3);
        served[0].fetch_add(1);
      } else if (r.generation == 4) {
        EXPECT_EQ(r.embedding, e4);
        served[1].fetch_add(1);
      } else {
        ADD_FAILURE() << "request served by unknown generation "
                      << r.generation;
      }
    }
  });
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(svc.LoadModel((i % 2) != 0 ? dir_b : dir_a).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.store(true);
  traffic.join();
  svc.Shutdown();
  EXPECT_GT(served[0].load() + served[1].load(), 0);
}

// ---------------------------------------------------------------------------
// Shutdown under backpressure.
// ---------------------------------------------------------------------------

TEST_F(ServeTest, ShutdownWakesAndShedsBlockedSubmitters) {
  ServiceConfig cfg = TinyService();
  cfg.num_workers = 1;
  cfg.queue_capacity = 1;
  cfg.block_when_full = true;
  InferenceService svc(features(), TinyEncoder(), cfg);
  svc.InstallModel(
      std::make_shared<TemporalPathEncoder>(features(), TinyEncoder()), 1);
  ASSERT_TRUE(svc.Start().ok());
  Install("slow-worker:delay_ms=500");

  // One request occupies the worker, one fills the queue, and two
  // submitter threads block on the full queue.
  auto busy = svc.Submit(Query(0, 1));
  ASSERT_TRUE(busy.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  auto queued = svc.Submit(Query(0, 2));
  ASSERT_TRUE(queued.ok());

  std::atomic<int> shed{0};
  std::vector<std::thread> submitters;
  for (int i = 0; i < 2; ++i) {
    submitters.emplace_back([&svc, &shed, this, i] {
      auto blocked = svc.Submit(Query(0, 10 + static_cast<uint64_t>(i)));
      if (!blocked.ok()) {
        EXPECT_EQ(blocked.status().code(), StatusCode::kUnavailable);
        shed.fetch_add(1);
      } else {
        ServeResult r = blocked->get();
        EXPECT_TRUE(r.status.ok() ||
                    r.status.code() == StatusCode::kUnavailable);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // Shutdown must wake both blocked submitters (they shed Unavailable
  // instead of deadlocking on not_full_) and resolve the orphaned
  // queued request.
  svc.Shutdown();
  for (auto& t : submitters) t.join();
  EXPECT_EQ(shed.load(), 2);
  EXPECT_TRUE(busy->get().status.ok());
  EXPECT_EQ(queued->get().status.code(), StatusCode::kUnavailable);
}

TEST_F(ServeTest, ConcurrentShutdownJoinsWorkersExactlyOnce) {
  InferenceService svc(features(), TinyEncoder(), TinyService());
  svc.InstallModel(
      std::make_shared<TemporalPathEncoder>(features(), TinyEncoder()), 1);
  ASSERT_TRUE(svc.Start().ok());
  for (uint64_t i = 0; i < 16; ++i) {
    (void)svc.Submit(Query(static_cast<int>(i), i));
  }
  // Racing Shutdown calls (plus the destructor's) must each claim a
  // disjoint set of worker threads — a double-join aborts the process.
  std::vector<std::thread> stoppers;
  for (int i = 0; i < 3; ++i) {
    stoppers.emplace_back([&svc] { svc.Shutdown(); });
  }
  for (auto& t : stoppers) t.join();
}

// ---------------------------------------------------------------------------
// Canary lifecycle.
// ---------------------------------------------------------------------------

TEST_F(ServeTest, CanaryPromotesAfterCleanTraffic) {
  ServiceConfig cfg = TinyService();
  cfg.num_workers = 1;
  cfg.canary_permille = 1000;  // route everything for the unit test
  cfg.canary_promote_after = 5;
  auto incumbent =
      std::make_shared<TemporalPathEncoder>(features(), TinyEncoder());
  auto candidate =
      std::make_shared<TemporalPathEncoder>(features(), TinyEncoder());
  PerturbParameters(*candidate, 0.05f, 7);
  InferenceService svc(features(), TinyEncoder(), cfg);
  svc.InstallModel(incumbent, 1);
  ASSERT_TRUE(svc.Start().ok());
  ASSERT_TRUE(svc.BeginCanary(candidate, 2).ok());
  EXPECT_EQ(svc.BeginCanary(candidate, 3).code(),
            StatusCode::kFailedPrecondition)
      << "only one canary may be in flight";
  EXPECT_EQ(svc.model_generation(), 1u);

  for (uint64_t id = 1; id <= 5; ++id) {
    const PathQuery q = Query(0, id);
    ServeResult r = svc.SubmitAndWait(q);
    ASSERT_TRUE(r.status.ok());
    EXPECT_EQ(r.generation, 2u);
    EXPECT_TRUE(r.canary);
    EXPECT_EQ(r.embedding, candidate->EncodeValue(q.path, q.depart_time_s));
  }
  EXPECT_EQ(svc.model_generation(), 2u) << "canary did not promote";
  EXPECT_FALSE(svc.canary_status().installed);
  auto res = svc.TakeCanaryResolution();
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(res->verdict, CanaryVerdict::kPromoted);
  EXPECT_EQ(res->generation, 2u);
  EXPECT_EQ(res->routed, 5u);
  EXPECT_EQ(res->clean, 5u);
  EXPECT_EQ(res->reason, "clean-requests");
  EXPECT_FALSE(svc.TakeCanaryResolution().has_value());

  // Post-promotion traffic is incumbent traffic on the new generation.
  ServeResult after = svc.SubmitAndWait(Query(0, 99));
  ASSERT_TRUE(after.status.ok());
  EXPECT_EQ(after.generation, 2u);
  EXPECT_FALSE(after.canary);
}

TEST_F(ServeTest, CanaryPromotesAtItsNthCleanAdmissionUnderPipelinedLoad) {
  ServiceConfig cfg = TinyService();
  cfg.num_workers = 4;
  cfg.canary_permille = 1000;
  cfg.canary_promote_after = 8;
  auto incumbent =
      std::make_shared<TemporalPathEncoder>(features(), TinyEncoder());
  auto candidate =
      std::make_shared<TemporalPathEncoder>(features(), TinyEncoder());
  PerturbParameters(*candidate, 0.05f, 13);
  InferenceService svc(features(), TinyEncoder(), cfg);
  svc.InstallModel(incumbent, 1);
  ASSERT_TRUE(svc.Start().ok());
  ASSERT_TRUE(svc.BeginCanary(candidate, 2).ok());

  // No plan installed, and all 32 requests are admitted before any
  // result is read. The 8th clean canary admission promotes, so the
  // canary serves exactly 8 and the other 24 go to the new incumbent,
  // however far the workers have got.
  std::vector<std::future<ServeResult>> futures;
  for (uint64_t id = 1; id <= 32; ++id) {
    auto submitted = svc.Submit(Query(static_cast<int>(id), id));
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    futures.push_back(std::move(submitted).value());
  }
  int canary_served = 0;
  for (auto& f : futures) {
    const ServeResult r = f.get();
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_EQ(r.generation, 2u);
    canary_served += r.canary ? 1 : 0;
  }
  EXPECT_EQ(canary_served, 8);
  auto res = svc.TakeCanaryResolution();
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(res->verdict, CanaryVerdict::kPromoted);
  EXPECT_EQ(res->routed, 8u);
  EXPECT_EQ(res->clean, 8u);
}

TEST_F(ServeTest, CanaryRollsBackOnInjectedRegressionWithoutHurtingTraffic) {
  ServiceConfig cfg = TinyService();
  cfg.num_workers = 1;
  cfg.canary_permille = 1000;
  auto incumbent =
      std::make_shared<TemporalPathEncoder>(features(), TinyEncoder());
  auto candidate =
      std::make_shared<TemporalPathEncoder>(features(), TinyEncoder());
  PerturbParameters(*candidate, 0.05f, 11);
  InferenceService svc(features(), TinyEncoder(), cfg);
  svc.InstallModel(incumbent, 1);
  ASSERT_TRUE(svc.Start().ok());
  ASSERT_TRUE(svc.BeginCanary(candidate, 2).ok());
  Install("canary-regression:p=1");

  // The first routed request detects the regression at admission; it is
  // re-pinned to the incumbent and gets a first-class answer.
  const PathQuery q = Query(0, 1);
  ServeResult r = svc.SubmitAndWait(q);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.generation, 1u);
  EXPECT_FALSE(r.canary);
  EXPECT_EQ(r.rung, Rung::kFull);
  EXPECT_EQ(r.embedding, incumbent->EncodeValue(q.path, q.depart_time_s));

  EXPECT_EQ(svc.model_generation(), 1u);
  EXPECT_FALSE(svc.canary_status().installed);
  auto res = svc.TakeCanaryResolution();
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(res->verdict, CanaryVerdict::kRolledBack);
  EXPECT_EQ(res->generation, 2u);
  EXPECT_EQ(res->routed, 1u);
  EXPECT_EQ(res->clean, 0u);
  EXPECT_EQ(res->reason, "injected canary-regression");
}

TEST_F(ServeTest, CanaryRollsBackWhenItsBreakerTrips) {
  ServiceConfig cfg = TinyService();
  cfg.num_workers = 1;
  cfg.max_retries = 0;
  cfg.breaker_trip_threshold = 3;
  cfg.canary_permille = 1000;
  cfg.canary_promote_after = 100;
  auto incumbent =
      std::make_shared<TemporalPathEncoder>(features(), TinyEncoder());
  auto candidate =
      std::make_shared<TemporalPathEncoder>(features(), TinyEncoder());
  InferenceService svc(features(), TinyEncoder(), cfg);
  svc.InstallModel(incumbent, 1);
  ASSERT_TRUE(svc.Start().ok());
  ASSERT_TRUE(svc.BeginCanary(candidate, 2).ok());
  Install("encoder-forward:p=1");

  // Three predicted failures trip the canary's own breaker in admission
  // order; the third resolves the rollback.
  for (uint64_t id = 1; id <= 3; ++id) {
    ServeResult r = svc.SubmitAndWait(Query(0, id));
    ASSERT_TRUE(r.status.ok());
    EXPECT_EQ(r.generation, 2u);
    EXPECT_TRUE(r.canary);
    EXPECT_EQ(r.rung, Rung::kFallback);
  }
  auto res = svc.TakeCanaryResolution();
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(res->verdict, CanaryVerdict::kRolledBack);
  EXPECT_EQ(res->reason, "breaker-trip");
  EXPECT_EQ(res->routed, 3u);
  EXPECT_EQ(svc.model_generation(), 1u) << "incumbent must be untouched";
  EXPECT_EQ(obs::GetCounter("serve.canary_rollbacks").value(), 1u);

  // Later traffic routes back to the incumbent with its own breaker.
  ServeResult after = svc.SubmitAndWait(Query(0, 4));
  ASSERT_TRUE(after.status.ok());
  EXPECT_EQ(after.generation, 1u);
  EXPECT_FALSE(after.canary);
}

TEST_F(ServeTest, InstallModelAbortsAnInFlightCanary) {
  auto encoder =
      std::make_shared<TemporalPathEncoder>(features(), TinyEncoder());
  InferenceService svc(features(), TinyEncoder(), TinyService());
  EXPECT_EQ(svc.BeginCanary(encoder, 2).code(),
            StatusCode::kFailedPrecondition)
      << "a canary needs an incumbent";
  svc.InstallModel(encoder, 1);
  ASSERT_TRUE(svc.BeginCanary(encoder, 2).ok());
  EXPECT_TRUE(svc.canary_status().installed);
  svc.InstallModel(encoder, 3);
  EXPECT_FALSE(svc.canary_status().installed);
  EXPECT_EQ(svc.model_generation(), 3u);
  auto res = svc.TakeCanaryResolution();
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(res->verdict, CanaryVerdict::kRolledBack);
  EXPECT_EQ(res->reason, "superseded by InstallModel");
}

TEST_F(ServeTest, CanaryRoutingIsAKeyedFraction) {
  ServiceConfig cfg = TinyService();
  cfg.canary_permille = 200;
  InferenceService svc(features(), TinyEncoder(), cfg);
  int routed = 0;
  for (uint64_t id = 0; id < 10000; ++id) {
    routed += svc.RoutesToCanary(id) ? 1 : 0;
  }
  // A pure hash of the id: close to the configured fraction, and
  // trivially identical across runs and worker counts.
  EXPECT_GT(routed, 1700);
  EXPECT_LT(routed, 2300);
}

// ---------------------------------------------------------------------------
// The acceptance soak: 10k requests, 4 workers, 10% forward faults —
// zero crashes, every request resolves, and outcomes are bitwise
// identical across runs and worker counts.
// ---------------------------------------------------------------------------

struct Outcome {
  int code = 0;
  int rung = -1;
  int attempts = 0;
  uint64_t generation = 0;
  std::vector<float> embedding;
  bool operator==(const Outcome& o) const {
    return code == o.code && rung == o.rung && attempts == o.attempts &&
           generation == o.generation && embedding == o.embedding;
  }
};

class SoakTest : public ServeTest {
 protected:
  static constexpr char kSpec[] =
      "encoder-forward:p=0.1;ckpt-read:p=0.1;alloc:p=0.02;queue-full:p=0.01";

  std::vector<Outcome> RunSoak(int num_workers, int n) {
    Install(kSpec);
    ServiceConfig cfg = TinyService();
    cfg.num_workers = num_workers;
    cfg.queue_capacity = 128;
    cfg.block_when_full = true;  // backpressure: sheds stay deterministic
    InferenceService svc(features(), TinyEncoder(), cfg);
    svc.InstallModel(
        std::make_shared<TemporalPathEncoder>(features(), TinyEncoder()), 1);
    EXPECT_TRUE(svc.Start().ok());

    // Single submitter, ids == tickets: the determinism contract's
    // preconditions (see serve/service.h).
    std::vector<Outcome> outcomes(static_cast<size_t>(n));
    std::vector<std::pair<size_t, std::future<ServeResult>>> pending;
    pending.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      auto submitted = svc.Submit(
          Query(i % 31, static_cast<uint64_t>(i), (i % 7) * 500));
      if (!submitted.ok()) {
        outcomes[static_cast<size_t>(i)].code =
            static_cast<int>(submitted.status().code());
        continue;
      }
      pending.emplace_back(static_cast<size_t>(i), std::move(*submitted));
    }
    for (auto& [idx, future] : pending) {
      ServeResult r = future.get();
      Outcome& o = outcomes[idx];
      o.code = static_cast<int>(r.status.code());
      if (r.status.ok()) {
        o.rung = static_cast<int>(r.rung);
        o.attempts = r.attempts;
        o.generation = r.generation;
        o.embedding = std::move(r.embedding);
      }
    }
    svc.Shutdown();
    fault::ClearPlan();
    return outcomes;
  }
};

TEST_F(SoakTest, TenThousandRequestsAreBitwiseReproducible) {
  const int n = 10000;
  std::vector<Outcome> run_a = RunSoak(/*num_workers=*/4, n);

  // Every request resolved: success on some rung, or an explicit shed.
  // No twin is installed, so the quant rung (1) must never serve.
  int ok = 0, shed = 0;
  int rung_count[4] = {0, 0, 0, 0};
  for (const Outcome& o : run_a) {
    if (o.code == static_cast<int>(StatusCode::kOk)) {
      ++ok;
      ASSERT_GE(o.rung, 0);
      rung_count[o.rung] += 1;
      EXPECT_EQ(o.embedding.size(), 16u);
    } else {
      EXPECT_EQ(o.code, static_cast<int>(StatusCode::kResourceExhausted));
      ++shed;
    }
  }
  EXPECT_EQ(ok + shed, n);
  EXPECT_GT(ok, n / 2);
  EXPECT_GT(shed, 0);
  EXPECT_GT(rung_count[0], 0);
  EXPECT_EQ(rung_count[1], 0);
  EXPECT_GT(rung_count[2], 0);
  EXPECT_GT(rung_count[3], 0);

  // Same spec + seed + thread count: bitwise identical per-request
  // outcomes, including which rung served each request.
  std::vector<Outcome> run_b = RunSoak(/*num_workers=*/4, n);
  ASSERT_EQ(run_a.size(), run_b.size());
  for (size_t i = 0; i < run_a.size(); ++i) {
    ASSERT_TRUE(run_a[i] == run_b[i]) << "outcome diverged at request " << i;
  }

  // Outcomes are a pure function of the request id, so a different
  // worker count reproduces the same prefix too.
  const int m = 1500;
  std::vector<Outcome> run_c = RunSoak(/*num_workers=*/1, m);
  for (size_t i = 0; i < run_c.size(); ++i) {
    ASSERT_TRUE(run_a[i] == run_c[i])
        << "outcome diverged from single-worker run at request " << i;
  }
}

// ---------------------------------------------------------------------------
// The full-ladder soak: with an int8 twin installed every rung — full,
// quantized, cached, fallback — takes traffic under a probabilistic
// outage, and the per-request outcomes stay bitwise identical across
// runs and worker counts.
// ---------------------------------------------------------------------------

class QuantLadderSoakTest : public ServeTest {
 protected:
  // encoder-forward starves rung 0, quant-encode fails half the twin
  // encodes, cache-compute failures (encoder-forward under the cache
  // salt) push the rest down to the fallback.
  static constexpr char kSpec[] =
      "encoder-forward:p=0.6,seed=5;quant-encode:p=0.5,seed=7;"
      "alloc:p=0.02;queue-full:p=0.01";

  std::vector<Outcome> RunSoak(int num_workers, int n) {
    Install(kSpec);
    ServiceConfig cfg = TinyService();
    cfg.num_workers = num_workers;
    cfg.queue_capacity = 128;
    cfg.block_when_full = true;
    cfg.breaker_trip_threshold = 1000;  // keep rung 0 reachable
    cfg.cache_capacity = 4;             // force cache recomputes
    auto encoder =
        std::make_shared<TemporalPathEncoder>(features(), TinyEncoder());
    auto twin = MakeTwin(*encoder, 1);
    EXPECT_NE(twin, nullptr);
    InferenceService svc(features(), TinyEncoder(), cfg);
    svc.InstallModel(encoder, 1, twin);
    EXPECT_TRUE(svc.Start().ok());

    std::vector<Outcome> outcomes(static_cast<size_t>(n));
    std::vector<std::pair<size_t, std::future<ServeResult>>> pending;
    pending.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      auto submitted = svc.Submit(
          Query(i % 17, static_cast<uint64_t>(i), (i % 5) * 700));
      if (!submitted.ok()) {
        outcomes[static_cast<size_t>(i)].code =
            static_cast<int>(submitted.status().code());
        continue;
      }
      pending.emplace_back(static_cast<size_t>(i), std::move(*submitted));
    }
    for (auto& [idx, future] : pending) {
      ServeResult r = future.get();
      Outcome& o = outcomes[idx];
      o.code = static_cast<int>(r.status.code());
      if (r.status.ok()) {
        o.rung = static_cast<int>(r.rung);
        o.attempts = r.attempts;
        o.generation = r.generation;
        o.embedding = std::move(r.embedding);
      }
    }
    svc.Shutdown();
    fault::ClearPlan();
    return outcomes;
  }
};

TEST_F(QuantLadderSoakTest, EveryRungServesAndOutcomesAreBitwiseIdentical) {
  const int n = 4000;
  std::vector<Outcome> run_a = RunSoak(/*num_workers=*/4, n);

  int ok = 0;
  int rung_count[4] = {0, 0, 0, 0};
  for (const Outcome& o : run_a) {
    if (o.code != static_cast<int>(StatusCode::kOk)) {
      EXPECT_EQ(o.code, static_cast<int>(StatusCode::kResourceExhausted));
      continue;
    }
    ++ok;
    ASSERT_GE(o.rung, 0);
    rung_count[o.rung] += 1;
    EXPECT_EQ(o.generation, 1u);
    EXPECT_EQ(o.embedding.size(), 16u);
  }
  EXPECT_GT(ok, n / 2);
  EXPECT_GT(rung_count[0], 0) << "full rung never reached";
  EXPECT_GT(rung_count[1], 0) << "quantized rung never reached";
  EXPECT_GT(rung_count[2], 0) << "cached rung never reached";
  EXPECT_GT(rung_count[3], 0) << "fallback rung never reached";
  EXPECT_GT(obs::GetCounter("serve.quant_hits").value(), 0u);

  std::vector<Outcome> run_b = RunSoak(/*num_workers=*/4, n);
  ASSERT_EQ(run_a.size(), run_b.size());
  for (size_t i = 0; i < run_a.size(); ++i) {
    ASSERT_TRUE(run_a[i] == run_b[i]) << "outcome diverged at request " << i;
  }

  const int m = 1200;
  std::vector<Outcome> run_c = RunSoak(/*num_workers=*/1, m);
  for (size_t i = 0; i < run_c.size(); ++i) {
    ASSERT_TRUE(run_a[i] == run_c[i])
        << "outcome diverged from single-worker run at request " << i;
  }
}

// ---------------------------------------------------------------------------
// Fleet mode: per-instance metric namespaces + the health snapshot.
// ---------------------------------------------------------------------------

TEST_F(ServeTest, PrefixedServicesDoNotShareCounters) {
  // Two services in one process, distinct prefixes: each instance's
  // traffic lands in its own namespace instead of folding into one
  // global counter set (the pre-fleet behaviour).
  ServiceConfig ca = TinyService();
  ca.shard = "shard0";
  ca.metrics_prefix = "shard0.";
  ServiceConfig cb = TinyService();
  cb.shard = "shard1";
  cb.metrics_prefix = "shard1.";
  InferenceService a(features(), TinyEncoder(), ca);
  InferenceService b(features(), TinyEncoder(), cb);
  for (InferenceService* svc : {&a, &b}) {
    svc->InstallModel(
        std::make_shared<TemporalPathEncoder>(features(), TinyEncoder()), 1);
    ASSERT_TRUE(svc->Start().ok());
  }
  for (uint64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(a.SubmitAndWait(Query(static_cast<int>(i), 900 + i))
                    .status.ok());
  }
  ASSERT_TRUE(b.SubmitAndWait(Query(0, 990)).status.ok());
  EXPECT_EQ(obs::GetCounter("shard0.serve.requests").value(), 5u);
  EXPECT_EQ(obs::GetCounter("shard1.serve.requests").value(), 1u);
  EXPECT_EQ(obs::GetCounter("serve.requests").value(), 0u);
  a.Shutdown();
  b.Shutdown();
}

TEST_F(ServeTest, HealthSnapshotTracksLifecycleAndBreaker) {
  ServiceConfig cfg = TinyService();
  cfg.breaker_trip_threshold = 3;
  InferenceService svc(features(), TinyEncoder(), cfg);

  ServiceHealth h = svc.Health();
  EXPECT_FALSE(h.started);
  EXPECT_EQ(h.generation, 0u);

  svc.InstallModel(
      std::make_shared<TemporalPathEncoder>(features(), TinyEncoder()), 7);
  ASSERT_TRUE(svc.Start().ok());
  h = svc.Health();
  EXPECT_TRUE(h.started);
  EXPECT_EQ(h.generation, 7u);
  EXPECT_EQ(h.breaker_state, 0);
  EXPECT_EQ(h.consecutive_failures, 0);
  EXPECT_FALSE(h.canary_installed);

  // Persistent rung-0 faults trip the breaker; the snapshot reports it.
  Install("encoder-forward:p=1");
  for (uint64_t i = 0; i < 8; ++i) {
    const ServeResult r = svc.SubmitAndWait(Query(static_cast<int>(i), i));
    ASSERT_TRUE(r.status.ok());  // ladder degrades, never fails
    EXPECT_NE(r.rung, Rung::kFull);
  }
  h = svc.Health();
  EXPECT_EQ(h.breaker_state, 1);  // open
  svc.Shutdown();
  EXPECT_FALSE(svc.Health().started);
}

}  // namespace
}  // namespace tpr::serve
