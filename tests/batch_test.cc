#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "batch/batch.h"
#include "core/encoder.h"
#include "core/features.h"
#include "fault/fault.h"
#include "kern/kern.h"
#include "nn/autograd.h"
#include "obs/metrics.h"
#include "quant/quant.h"
#include "serve/service.h"
#include "synth/presets.h"
#include "util/rng.h"

namespace tpr {
namespace {

using core::FeatureSpace;
using core::TemporalPathEncoder;

/// Pins the compute kernel for one scope. The scalar kernel is the
/// reproducibility anchor; batched encodes equal single encodes under it
/// and under avx2 (core/inference_plan.h).
class ScopedKernel {
 public:
  explicit ScopedKernel(kern::Kernel k) : prev_(kern::ActiveKernel()) {
    kern::SetKernel(k);
  }
  ~ScopedKernel() { kern::SetKernel(prev_); }
  ScopedKernel(const ScopedKernel&) = delete;
  ScopedKernel& operator=(const ScopedKernel&) = delete;

 private:
  kern::Kernel prev_;
};

// ---------------------------------------------------------------------------
// BatchFormer: deterministic formation, flushing, coalescing.
// ---------------------------------------------------------------------------

TEST(BatchFormerTest, GroupHashIsPureAndSensitiveToEveryComponent) {
  const graph::Path p{1, 2, 3};
  const uint64_t h = batch::BatchFormer::GroupHash(p, 900, 7);
  EXPECT_EQ(h, batch::BatchFormer::GroupHash(p, 900, 7));
  EXPECT_NE(h, batch::BatchFormer::GroupHash(p, 1800, 7));
  EXPECT_NE(h, batch::BatchFormer::GroupHash(p, 900, 8));
  EXPECT_NE(h, batch::BatchFormer::GroupHash({1, 2}, 900, 7));
  // The fold offsets edge ids, so a trailing edge 0 is not a no-op.
  EXPECT_NE(h, batch::BatchFormer::GroupHash({1, 2, 3, 0}, 900, 7));
}

TEST(BatchFormerTest, SizeFlushAtMaxBatchDistinctGroups) {
  batch::BatchConfig cfg;
  cfg.max_batch = 3;
  cfg.max_ticks = 1000;
  batch::BatchFormer former(cfg);
  EXPECT_FALSE(former.Arrive(1, {1}, 0, 0).has_value());
  EXPECT_FALSE(former.Arrive(2, {2}, 0, 0).has_value());
  auto flushed = former.Arrive(3, {3}, 0, 0);
  ASSERT_TRUE(flushed.has_value());
  EXPECT_EQ(flushed->seq, 0u);
  ASSERT_EQ(flushed->groups.size(), 3u);
  // Group-arrival order is preserved.
  EXPECT_EQ(flushed->groups[0].path, graph::Path{1});
  EXPECT_EQ(flushed->groups[2].path, graph::Path{3});
  EXPECT_FALSE(former.has_pending());

  // The next size flush gets the next sequence number.
  (void)former.Arrive(4, {1}, 0, 0);
  (void)former.Arrive(5, {2}, 0, 0);
  auto second = former.Arrive(6, {3}, 0, 0);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->seq, 1u);
}

TEST(BatchFormerTest, AgeFlushAfterMaxTicksOfLogicalTime) {
  batch::BatchConfig cfg;
  cfg.max_batch = 100;
  cfg.max_ticks = 4;
  batch::BatchFormer former(cfg);
  EXPECT_FALSE(former.Tick().has_value()) << "nothing pending, nothing ages";
  EXPECT_FALSE(former.Arrive(1, {1}, 0, 0).has_value());
  EXPECT_FALSE(former.Tick().has_value());
  EXPECT_FALSE(former.Arrive(2, {2}, 0, 0).has_value());
  EXPECT_FALSE(former.Tick().has_value());
  EXPECT_FALSE(former.Tick().has_value());
  auto flushed = former.Tick();  // the OLDEST arrival is now 4 ticks old
  ASSERT_TRUE(flushed.has_value());
  EXPECT_EQ(flushed->groups.size(), 2u)
      << "arrivals during the window ride the aged batch";
  EXPECT_FALSE(former.has_pending());
}

TEST(BatchFormerTest, CoalesceJoinsDuplicatesWithinATimeBucket) {
  batch::BatchConfig cfg;
  cfg.max_batch = 100;
  cfg.time_bucket_s = 900;
  batch::BatchFormer former(cfg);
  const graph::Path p{4, 5};
  EXPECT_EQ(former.EncodeTime(100), 0);
  EXPECT_EQ(former.EncodeTime(850), 0);
  EXPECT_EQ(former.EncodeTime(950), 900);
  (void)former.Arrive(1, p, 100, 7);
  (void)former.Arrive(2, p, 850, 7);  // same bucket: joins ticket 1's group
  (void)former.Arrive(3, p, 950, 7);  // next bucket: its own group
  EXPECT_EQ(former.pending_groups(), 2);
  auto flushed = former.FlushAll();
  ASSERT_TRUE(flushed.has_value());
  ASSERT_EQ(flushed->groups.size(), 2u);
  EXPECT_EQ(flushed->groups[0].tickets, (std::vector<uint64_t>{1, 2}));
  EXPECT_EQ(flushed->groups[0].encode_time_s, 0)
      << "a coalesced group encodes at the bucket-representative time";
  EXPECT_EQ(flushed->groups[1].tickets, (std::vector<uint64_t>{3}));
  EXPECT_EQ(flushed->groups[1].encode_time_s, 900);
  EXPECT_EQ(flushed->total_requests(), 3u);

  // A different salt (another model generation) never coalesces.
  (void)former.Arrive(4, p, 100, 7);
  (void)former.Arrive(5, p, 100, 8);
  EXPECT_EQ(former.pending_groups(), 2);
}

TEST(BatchFormerTest, CoalesceOffKeysEveryRequestByItsTicket) {
  batch::BatchConfig cfg;
  cfg.max_batch = 100;
  cfg.coalesce = false;
  batch::BatchFormer former(cfg);
  const graph::Path p{4, 5};
  EXPECT_EQ(former.EncodeTime(850), 850) << "no bucketing without coalescing";
  (void)former.Arrive(1, p, 850, 7);
  (void)former.Arrive(2, p, 850, 7);
  auto flushed = former.FlushAll();
  ASSERT_TRUE(flushed.has_value());
  ASSERT_EQ(flushed->groups.size(), 2u);
  EXPECT_NE(flushed->groups[0].key_hash, flushed->groups[1].key_hash);
  EXPECT_EQ(flushed->groups[0].encode_time_s, 850);
}

TEST(BatchFormerTest, FormationIsAPureFunctionOfTheArrivalTrace) {
  // One flattened signature of every flush decision the former makes
  // over a mixed trace (duplicates, bucket edges, size and age flushes).
  const auto run = [] {
    batch::BatchConfig cfg;
    cfg.max_batch = 5;
    cfg.max_ticks = 7;
    batch::BatchFormer former(cfg);
    std::vector<uint64_t> signature;
    const auto fold = [&signature](std::optional<batch::FormedBatch> b) {
      if (!b.has_value()) return;
      signature.push_back(b->seq);
      for (const auto& g : b->groups) {
        signature.push_back(g.key_hash);
        signature.push_back(static_cast<uint64_t>(g.encode_time_s));
        for (uint64_t t : g.tickets) signature.push_back(t);
      }
    };
    Rng rng(3);
    for (uint64_t ticket = 0; ticket < 400; ++ticket) {
      const graph::Path path{static_cast<int>(rng.Uniform() * 6),
                             static_cast<int>(rng.Uniform() * 6)};
      const int64_t depart = static_cast<int64_t>(rng.Uniform() * 4000);
      fold(former.Arrive(ticket, path, depart, /*salt=*/1));
      fold(former.Tick());  // mirrors the service: one tick per admission
    }
    fold(former.FlushAll());
    return signature;
  };
  const std::vector<uint64_t> a = run();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, run()) << "same trace must reproduce the same batches";
}

TEST(BatchFormerTest, FromEnvReadsOverridesAndIgnoresGarbage) {
  ::setenv("TPR_BATCH_MAX", "7", 1);
  ::setenv("TPR_BATCH_TICKS", "9", 1);
  batch::BatchConfig cfg = batch::FromEnv();
  EXPECT_EQ(cfg.max_batch, 7);
  EXPECT_EQ(cfg.max_ticks, 9);
  ::setenv("TPR_BATCH_MAX", "not-a-number", 1);
  ::unsetenv("TPR_BATCH_TICKS");
  batch::BatchConfig dflt;
  cfg = batch::FromEnv();
  EXPECT_EQ(cfg.max_batch, dflt.max_batch);
  EXPECT_EQ(cfg.max_ticks, dflt.max_ticks);
  // Out of range — below 1 or above INT_MAX — is garbage too: the
  // former would reject it at construction.
  for (const char* bad : {"0", "-3", "99999999999"}) {
    ::setenv("TPR_BATCH_MAX", bad, 1);
    ::setenv("TPR_BATCH_TICKS", bad, 1);
    cfg = batch::FromEnv();
    EXPECT_EQ(cfg.max_batch, dflt.max_batch) << bad;
    EXPECT_EQ(cfg.max_ticks, dflt.max_ticks) << bad;
  }
  ::unsetenv("TPR_BATCH_MAX");
  ::unsetenv("TPR_BATCH_TICKS");
}

// ---------------------------------------------------------------------------
// Encoder-level bitwise equivalence on a tiny city.
// ---------------------------------------------------------------------------

class BatchTest : public ::testing::Test {
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

  static serve::ServiceConfig BatchedService() {
    serve::ServiceConfig cfg;
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
    cfg.batch_max = 8;
    cfg.batch_ticks = 4;
    cfg.batch_coalesce = true;
    return cfg;
  }

  static void Install(const std::string& spec) {
    auto plan = fault::FaultPlan::Parse(spec);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    fault::InstallPlan(*std::move(plan));
  }

  serve::PathQuery Query(int sample, uint64_t id, int64_t time_shift = 0) {
    const auto& s =
        (*data_)->unlabeled[static_cast<size_t>(sample) %
                            (*data_)->unlabeled.size()];
    serve::PathQuery q;
    q.path = s.path;
    q.depart_time_s = s.depart_time_s + time_shift;
    q.id = id;
    return q;
  }

  /// N (path, time) items with varying path lengths and times.
  std::vector<core::PathTimeItem> Items(int n) const {
    std::vector<core::PathTimeItem> items;
    items.reserve(static_cast<size_t>(n));
    const auto& samples = (*data_)->unlabeled;
    for (int i = 0; i < n; ++i) {
      const auto& s = samples[static_cast<size_t>(i) % samples.size()];
      items.push_back(
          core::PathTimeItem{&s.path, s.depart_time_s + (i % 3) * 700});
    }
    return items;
  }

  std::shared_ptr<const FeatureSpace> features() { return *features_; }

  /// Int8 twin of `encoder` for the quantized rung, calibrated over a
  /// few dataset paths.
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

std::shared_ptr<synth::CityDataset>* BatchTest::data_ = nullptr;
std::shared_ptr<const FeatureSpace>* BatchTest::features_ = nullptr;

TEST_F(BatchTest, EncodeValueBatchIsBitwiseEqualToSingleEncodes) {
  // The acceptance assertion: one packed batched forward returns, for
  // every item, exactly the bytes of the tape's single encode
  // Encode(...).tpr — across both sequence models and all three
  // aggregations, under the scalar kernel AND the active one (every
  // serve request is answered by the batched forward, and serve_test
  // compares it to EncodeValue under whatever kernel is active).
  //
  // The inputs exercise the forward's longest-first sort and its
  // scatter back to input order: an ascending-length run, a one-edge
  // path, two equal-length items and a duplicated item.
  std::vector<core::PathTimeItem> items = Items(6);
  std::stable_sort(items.begin(), items.end(),
                   [](const core::PathTimeItem& a,
                      const core::PathTimeItem& b) {
                     return a.path->size() < b.path->size();
                   });
  ASSERT_GE(items[4].path->size(), 2u);
  const graph::Path one_edge{items[0].path->front()};
  const graph::Path equal_a(items[4].path->begin(),
                            items[4].path->begin() + 2);
  const graph::Path equal_b(items[5].path->begin(),
                            items[5].path->begin() + 2);
  items.push_back({&one_edge, items[1].depart_time_s});
  items.push_back({&equal_a, items[2].depart_time_s});
  items.push_back({&equal_b, items[3].depart_time_s});
  items.push_back(items[3]);
  for (kern::Kernel kernel : {kern::Kernel::kScalar, kern::ActiveKernel()}) {
    ScopedKernel pinned(kernel);
    for (core::SequenceModel model :
         {core::SequenceModel::kLstm, core::SequenceModel::kTransformer}) {
      for (core::Aggregation agg :
           {core::Aggregation::kMean, core::Aggregation::kMax,
            core::Aggregation::kLast}) {
        core::EncoderConfig cfg = TinyEncoder();
        cfg.sequence_model = model;
        cfg.aggregation = agg;
        TemporalPathEncoder encoder(features(), cfg);
        const auto batch = encoder.EncodeValueBatch(items);
        ASSERT_EQ(batch.size(), items.size());
        for (size_t i = 0; i < items.size(); ++i) {
          nn::NoGradGuard no_grad;
          const core::EncodedPath tape =
              encoder.Encode(*items[i].path, items[i].depart_time_s);
          const nn::Tensor& tpr = tape.tpr.value();
          EXPECT_EQ(batch[i],
                    std::vector<float>(tpr.data(), tpr.data() + tpr.size()))
              << "item " << i << " kernel " << kern::KernelName(kernel)
              << " model " << static_cast<int>(model) << " aggregation "
              << static_cast<int>(agg);
        }
      }
    }
  }
}

TEST_F(BatchTest, EncodeValueBatchIsInvariantToBatchComposition) {
  // Under the ACTIVE kernel (scalar or avx2), an item's embedding must
  // not depend on what else rode in its batch: every packed row runs
  // lane-uniform, row-independent math. The batched service relies on
  // this — idle flushes, timed by when workers finish, change batch
  // composition, never outcomes.
  TemporalPathEncoder encoder(features(), TinyEncoder());
  const std::vector<core::PathTimeItem> items = Items(6);
  const auto together = encoder.EncodeValueBatch(items);
  ASSERT_EQ(together.size(), items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    const auto alone = encoder.EncodeValueBatch({items[i]});
    ASSERT_EQ(alone.size(), 1u);
    EXPECT_EQ(together[i], alone[0]) << "item " << i;
  }
}

TEST_F(BatchTest, EncodeValueBatchCancellableHonoursCancellation) {
  TemporalPathEncoder encoder(features(), TinyEncoder());
  const std::vector<core::PathTimeItem> items = Items(3);
  auto full = encoder.EncodeValueBatchCancellable(items, [] { return false; });
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(*full, encoder.EncodeValueBatch(items));
  EXPECT_FALSE(encoder.EncodeValueBatchCancellable(items, [] { return true; })
                   .has_value());
}

// ---------------------------------------------------------------------------
// Batched service: per-request semantics and determinism.
// ---------------------------------------------------------------------------

TEST_F(BatchTest, BatchedServiceServesTheBucketRepresentativeEncode) {
  ScopedKernel scalar(kern::Kernel::kScalar);
  serve::ServiceConfig cfg = BatchedService();
  auto encoder =
      std::make_shared<TemporalPathEncoder>(features(), TinyEncoder());
  serve::InferenceService svc(features(), TinyEncoder(), cfg);
  svc.InstallModel(encoder, 1);
  ASSERT_TRUE(svc.Start().ok());

  // Two queries in the same time bucket: each encodes at the
  // bucket-representative time whether or not they coalesced, so their
  // embeddings are identical bytes — and exactly the direct encode at
  // the bucket floor.
  serve::PathQuery q1 = Query(0, 1);
  q1.depart_time_s = (q1.depart_time_s / cfg.time_bucket_s) * cfg.time_bucket_s;
  serve::PathQuery q2 = q1;
  q2.id = 2;
  q2.depart_time_s += cfg.time_bucket_s / 2;  // same bucket, later instant

  serve::ServeResult r1 = svc.SubmitAndWait(q1);
  serve::ServeResult r2 = svc.SubmitAndWait(q2);
  ASSERT_TRUE(r1.status.ok()) << r1.status.ToString();
  ASSERT_TRUE(r2.status.ok()) << r2.status.ToString();
  EXPECT_EQ(r1.rung, serve::Rung::kFull);
  EXPECT_EQ(r2.rung, serve::Rung::kFull);
  const std::vector<float> direct =
      encoder->EncodeValue(q1.path, q1.depart_time_s);
  EXPECT_EQ(r1.embedding, direct);
  EXPECT_EQ(r2.embedding, direct);
  EXPECT_GE(obs::GetCounter("serve.batches").value(), 1u);
  svc.Shutdown();
}

TEST_F(BatchTest, InjectedBatchFlushDropDegradesTheWholeGroup) {
  serve::ServiceConfig cfg = BatchedService();
  cfg.num_workers = 1;
  serve::InferenceService svc(features(), TinyEncoder(), cfg);
  svc.InstallModel(
      std::make_shared<TemporalPathEncoder>(features(), TinyEncoder()), 1);
  ASSERT_TRUE(svc.Start().ok());
  Install("batch-flush:p=1");

  // Every flush drops: no rung-0 attempt is ever made (like alloc, and
  // no breaker signal), and the ladder serves the cache rung.
  serve::ServeResult first = svc.SubmitAndWait(Query(0, 100));
  ASSERT_TRUE(first.status.ok());
  EXPECT_EQ(first.rung, serve::Rung::kCached);
  EXPECT_EQ(first.attempts, 0);
  serve::ServeResult second = svc.SubmitAndWait(Query(0, 101));
  ASSERT_TRUE(second.status.ok());
  EXPECT_EQ(second.rung, serve::Rung::kCached);
  EXPECT_EQ(second.embedding, first.embedding);
  EXPECT_EQ(obs::GetCounter("serve.breaker_trips").value(), 0u);
  svc.Shutdown();
}

TEST_F(BatchTest, BatchedTotalOutageRetriesThenFallsBack) {
  serve::ServiceConfig cfg = BatchedService();
  cfg.num_workers = 1;
  cfg.breaker_trip_threshold = 1000;  // keep rung 0 reachable
  serve::InferenceService svc(features(), TinyEncoder(), cfg);
  svc.InstallModel(
      std::make_shared<TemporalPathEncoder>(features(), TinyEncoder()), 1);
  ASSERT_TRUE(svc.Start().ok());
  Install("encoder-forward:p=1");

  serve::ServeResult r = svc.SubmitAndWait(Query(1, 200));
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.rung, serve::Rung::kFallback);
  EXPECT_EQ(r.attempts, 1 + cfg.max_retries);
  EXPECT_GE(obs::GetCounter("serve.retries").value(),
            static_cast<uint64_t>(cfg.max_retries));
  svc.Shutdown();
}

TEST_F(BatchTest, QuantRungServesTheWholeGroupAtTheGroupEncodeTime) {
  serve::ServiceConfig cfg = BatchedService();
  cfg.num_workers = 1;
  cfg.breaker_trip_threshold = 1000;
  auto encoder =
      std::make_shared<TemporalPathEncoder>(features(), TinyEncoder());
  auto twin = MakeTwin(*encoder, 1);
  ASSERT_NE(twin, nullptr);
  serve::InferenceService svc(features(), TinyEncoder(), cfg);
  svc.InstallModel(encoder, 1, twin);
  ASSERT_TRUE(svc.Start().ok());
  Install("encoder-forward:p=1");

  // Two queries in one (path, bucket) group: the fp32 batched ladder
  // exhausts, then ONE quantized group encode at the group's
  // bucket-representative time serves both members identical bytes.
  serve::PathQuery q1 = Query(0, 400);
  q1.depart_time_s =
      (q1.depart_time_s / cfg.time_bucket_s) * cfg.time_bucket_s;
  serve::PathQuery q2 = q1;
  q2.id = 401;
  q2.depart_time_s += cfg.time_bucket_s / 3;

  auto f1 = svc.Submit(q1);
  auto f2 = svc.Submit(q2);
  ASSERT_TRUE(f1.ok());
  ASSERT_TRUE(f2.ok());
  serve::ServeResult r1 = f1->get();
  serve::ServeResult r2 = f2->get();
  ASSERT_TRUE(r1.status.ok()) << r1.status.ToString();
  ASSERT_TRUE(r2.status.ok()) << r2.status.ToString();
  EXPECT_EQ(r1.rung, serve::Rung::kQuantized);
  EXPECT_EQ(r2.rung, serve::Rung::kQuantized);
  EXPECT_EQ(r1.attempts, 1 + cfg.max_retries);
  const std::vector<float> expected =
      twin->EncodeValue(q1.path, q1.depart_time_s);
  EXPECT_EQ(r1.embedding, expected);
  EXPECT_EQ(r2.embedding, expected)
      << "group members must share the bucket-representative quant encode";
  EXPECT_GE(obs::GetCounter("serve.quant_hits").value(), 2u);
  svc.Shutdown();
}

TEST_F(BatchTest, QuantEncodeFaultDegradesTheWholeGroupTogether) {
  serve::ServiceConfig cfg = BatchedService();
  cfg.num_workers = 1;
  auto encoder =
      std::make_shared<TemporalPathEncoder>(features(), TinyEncoder());
  auto twin = MakeTwin(*encoder, 1);
  ASSERT_NE(twin, nullptr);
  serve::InferenceService svc(features(), TinyEncoder(), cfg);
  svc.InstallModel(encoder, 1, twin);
  ASSERT_TRUE(svc.Start().ok());
  // batch-flush drops the whole batch pre-encode; quant-encode (keyed by
  // the GROUP hash) then fails the twin for every member at once.
  Install("batch-flush:p=1;quant-encode:p=1");

  serve::PathQuery q1 = Query(0, 410);
  serve::PathQuery q2 = q1;
  q2.id = 411;
  auto f1 = svc.Submit(q1);
  auto f2 = svc.Submit(q2);
  ASSERT_TRUE(f1.ok());
  ASSERT_TRUE(f2.ok());
  serve::ServeResult r1 = f1->get();
  serve::ServeResult r2 = f2->get();
  ASSERT_TRUE(r1.status.ok());
  ASSERT_TRUE(r2.status.ok());
  EXPECT_EQ(r1.rung, serve::Rung::kCached);
  EXPECT_EQ(r2.rung, serve::Rung::kCached);
  EXPECT_EQ(r1.embedding, r2.embedding);
  EXPECT_EQ(obs::GetCounter("serve.quant_hits").value(), 0u);
  EXPECT_EQ(obs::GetCounter("serve.breaker_trips").value(), 0u)
      << "quantized failures must never feed the breaker";
  svc.Shutdown();
}

TEST_F(BatchTest, BatchFlushDropLandsOnTheQuantRungWhenTheTwinIsHealthy) {
  serve::ServiceConfig cfg = BatchedService();
  cfg.num_workers = 1;
  // A bucket two temporal slots wide, so two queries of one coalesced
  // group can depart in different slots and encode differently.
  const int64_t slot_s =
      24 * 3600 / features()->config.temporal_graph.slots_per_day;
  cfg.time_bucket_s = 2 * slot_s;
  auto encoder =
      std::make_shared<TemporalPathEncoder>(features(), TinyEncoder());
  auto twin = MakeTwin(*encoder, 1);
  ASSERT_NE(twin, nullptr);
  serve::InferenceService svc(features(), TinyEncoder(), cfg);
  svc.InstallModel(encoder, 1, twin);
  ASSERT_TRUE(svc.Start().ok());
  Install("batch-flush:p=1");

  serve::ServeResult r = svc.SubmitAndWait(Query(0, 420));
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.rung, serve::Rung::kQuantized);
  EXPECT_EQ(r.attempts, 0) << "batch-flush makes no rung-0 attempt";

  // Two coalesced queries off the bucket boundary, one slot apart: a
  // group dropped before any encode serves each member at its own
  // departure time, not at the group encode time.
  serve::PathQuery q1 = Query(0, 421);
  const int64_t bucket_start =
      (q1.depart_time_s / cfg.time_bucket_s) * cfg.time_bucket_s;
  q1.depart_time_s = bucket_start + slot_s / 2;
  serve::PathQuery q2 = q1;
  q2.id = 422;
  q2.depart_time_s = bucket_start + slot_s + slot_s / 2;
  auto f1 = svc.Submit(q1);
  auto f2 = svc.Submit(q2);
  ASSERT_TRUE(f1.ok());
  ASSERT_TRUE(f2.ok());
  serve::ServeResult r1 = f1->get();
  serve::ServeResult r2 = f2->get();
  ASSERT_TRUE(r1.status.ok()) << r1.status.ToString();
  ASSERT_TRUE(r2.status.ok()) << r2.status.ToString();
  EXPECT_EQ(r1.rung, serve::Rung::kQuantized);
  EXPECT_EQ(r2.rung, serve::Rung::kQuantized);
  EXPECT_EQ(r1.embedding, twin->EncodeValue(q1.path, q1.depart_time_s));
  EXPECT_EQ(r2.embedding, twin->EncodeValue(q2.path, q2.depart_time_s));
  EXPECT_NE(r1.embedding, r2.embedding)
      << "pre-encode fates must keep each request's exact time";
  svc.Shutdown();
}

TEST_F(BatchTest, ExhaustedGroupServesTheQuantRungAtTheGroupEncodeTime) {
  serve::ServiceConfig cfg = BatchedService();
  cfg.num_workers = 1;
  cfg.breaker_trip_threshold = 1000;
  const int64_t slot_s =
      24 * 3600 / features()->config.temporal_graph.slots_per_day;
  cfg.time_bucket_s = 2 * slot_s;
  auto encoder =
      std::make_shared<TemporalPathEncoder>(features(), TinyEncoder());
  auto twin = MakeTwin(*encoder, 1);
  ASSERT_NE(twin, nullptr);
  serve::InferenceService svc(features(), TinyEncoder(), cfg);
  svc.InstallModel(encoder, 1, twin);
  ASSERT_TRUE(svc.Start().ok());
  Install("encoder-forward:p=1");

  // The same pair of queries after every rung-0 attempt failed: both
  // step down at the bucket-representative time, the time rung 0 tried,
  // even the member whose own slot would encode differently.
  serve::PathQuery q1 = Query(0, 430);
  const int64_t bucket_start =
      (q1.depart_time_s / cfg.time_bucket_s) * cfg.time_bucket_s;
  q1.depart_time_s = bucket_start + slot_s / 2;
  serve::PathQuery q2 = q1;
  q2.id = 431;
  q2.depart_time_s = bucket_start + slot_s + slot_s / 2;
  auto f1 = svc.Submit(q1);
  auto f2 = svc.Submit(q2);
  ASSERT_TRUE(f1.ok());
  ASSERT_TRUE(f2.ok());
  serve::ServeResult r1 = f1->get();
  serve::ServeResult r2 = f2->get();
  ASSERT_TRUE(r1.status.ok()) << r1.status.ToString();
  ASSERT_TRUE(r2.status.ok()) << r2.status.ToString();
  EXPECT_EQ(r1.rung, serve::Rung::kQuantized);
  EXPECT_EQ(r2.rung, serve::Rung::kQuantized);
  EXPECT_EQ(r1.attempts, 1 + cfg.max_retries);
  EXPECT_EQ(r2.attempts, 1 + cfg.max_retries);
  const std::vector<float> at_group = twin->EncodeValue(q1.path, bucket_start);
  EXPECT_EQ(r1.embedding, at_group);
  EXPECT_EQ(r2.embedding, at_group);
  EXPECT_NE(r2.embedding, twin->EncodeValue(q2.path, q2.depart_time_s))
      << "the second query's own slot must encode differently";
  svc.Shutdown();
}

TEST_F(BatchTest, BatchedRetryRecoversFromATransientGroupFault) {
  serve::ServiceConfig cfg = BatchedService();
  cfg.num_workers = 1;
  cfg.breaker_trip_threshold = 1000;
  serve::InferenceService svc(features(), TinyEncoder(), cfg);
  svc.InstallModel(
      std::make_shared<TemporalPathEncoder>(features(), TinyEncoder()), 1);
  ASSERT_TRUE(svc.Start().ok());
  Install("encoder-forward:p=0.5,seed=9");

  // Batched verdicts are keyed by the GROUP hash, not the request id:
  // find a query whose group fails attempt 0 and recovers on attempt 1.
  // The group key mirrors AdmitToGeneration: bucket-representative time,
  // salt = pinned generation (coalescing on).
  bool found = false;
  serve::PathQuery q;
  for (int sample = 0; sample < 64 && !found; ++sample) {
    q = Query(sample, 1000 + static_cast<uint64_t>(sample));
    const int64_t bucket =
        (q.depart_time_s / cfg.time_bucket_s) * cfg.time_bucket_s;
    const uint64_t key =
        batch::BatchFormer::GroupHash(q.path, bucket, /*salt=*/1);
    if (fault::WouldFail(fault::kEncoderForward, MixSeed(key, 0)) &&
        !fault::WouldFail(fault::kEncoderForward, MixSeed(key, 1))) {
      found = true;
    }
  }
  ASSERT_TRUE(found);

  serve::ServeResult r = svc.SubmitAndWait(q);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.rung, serve::Rung::kFull);
  EXPECT_EQ(r.attempts, 2);
  svc.Shutdown();
}

TEST_F(BatchTest, ShutdownResolvesEveryWaitingBatchedRequest) {
  serve::ServiceConfig cfg = BatchedService();
  cfg.num_workers = 1;
  serve::InferenceService svc(features(), TinyEncoder(), cfg);
  svc.InstallModel(
      std::make_shared<TemporalPathEncoder>(features(), TinyEncoder()), 1);
  ASSERT_TRUE(svc.Start().ok());
  Install("slow-worker:delay_ms=20");

  std::vector<std::future<serve::ServeResult>> futures;
  for (uint64_t i = 0; i < 12; ++i) {
    auto submitted = svc.Submit(Query(static_cast<int>(i), i));
    ASSERT_TRUE(submitted.ok());
    futures.push_back(std::move(*submitted));
  }
  svc.Shutdown();
  int unavailable = 0;
  for (auto& f : futures) {
    serve::ServeResult r = f.get();  // promises parked in waiting_ too
    EXPECT_TRUE(r.status.ok() ||
                r.status.code() == StatusCode::kUnavailable)
        << r.status.ToString();
    unavailable += r.status.code() == StatusCode::kUnavailable ? 1 : 0;
  }
  EXPECT_GT(unavailable, 0) << "shutdown drained nothing";
}

// ---------------------------------------------------------------------------
// The idle flush: a partial batch waits in the former only while some
// worker of the shard is encoding a batch of several requests.
// ---------------------------------------------------------------------------

/// Waits up to 10 s for the service to start `n` batches (ProcessBatch
/// counts a batch before its injected slow-worker sleep).
bool BatchesStarted(uint64_t n) {
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (obs::GetCounter("serve.batches").value() < n) {
    if (std::chrono::steady_clock::now() > give_up) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return true;
}

TEST_F(BatchTest, IdleShardTakesALoneRequestAtOnce) {
  // Sequential callers never fill a batch and never age one out, so on
  // an idle shard every request is a lone partial batch. It must cost no
  // more than the per-request mode, where each arrival flushes by size.
  auto median_sojourn_ms = [this](int batch_max) {
    serve::ServiceConfig cfg = BatchedService();
    cfg.num_workers = 1;
    cfg.batch_max = batch_max;
    serve::InferenceService svc(features(), TinyEncoder(), cfg);
    svc.InstallModel(
        std::make_shared<TemporalPathEncoder>(features(), TinyEncoder()), 1);
    EXPECT_TRUE(svc.Start().ok());
    std::vector<double> sojourn_ms;
    for (int i = 0; i < 64; ++i) {
      const auto start = std::chrono::steady_clock::now();
      serve::ServeResult r =
          svc.SubmitAndWait(Query(i, static_cast<uint64_t>(i)));
      sojourn_ms.push_back(std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - start)
                               .count());
      EXPECT_TRUE(r.status.ok()) << r.status.ToString();
    }
    svc.Shutdown();
    auto mid = sojourn_ms.begin() + sojourn_ms.size() / 2;
    std::nth_element(sojourn_ms.begin(), mid, sojourn_ms.end());
    return *mid;
  };
  const double per_request = median_sojourn_ms(1);
  const double batched = median_sojourn_ms(16);
  EXPECT_LT(batched, per_request + 0.5)
      << "a lone request waited on an idle shard: median sojourn "
      << batched << " ms at batch_max 16 vs " << per_request
      << " ms at batch_max 1";
}

/// Brings a two-worker shard, every batch held by an injected
/// slow-worker delay, to one worker encoding a batch of two requests
/// while the other idles. The first two queries go out alone and hold
/// both workers; the last two park behind them and leave as one batch
/// when a worker frees up.
void HoldABatchOfTwo(serve::InferenceService& svc,
                     std::vector<serve::PathQuery> queries,
                     std::vector<std::future<serve::ServeResult>>* futures) {
  ASSERT_EQ(queries.size(), 4u);
  for (size_t i = 0; i < queries.size(); ++i) {
    auto submitted = svc.Submit(std::move(queries[i]));
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    futures->push_back(std::move(*submitted));
    if (i < 2) {
      ASSERT_TRUE(BatchesStarted(i + 1));
    }
  }
  ASSERT_TRUE(BatchesStarted(3));
}

TEST_F(BatchTest, ALoneRequestDoesNotWaitBehindAnother) {
  // A batch of one shows the shard keeping up with its arrivals: a
  // request that lands while one worker encodes a lone request is taken
  // by an idle worker at once, not held until that batch finishes.
  serve::ServiceConfig cfg = BatchedService();
  cfg.num_workers = 2;
  cfg.batch_max = 16;
  cfg.batch_ticks = 64;
  serve::InferenceService svc(features(), TinyEncoder(), cfg);
  svc.InstallModel(
      std::make_shared<TemporalPathEncoder>(features(), TinyEncoder()), 1);
  ASSERT_TRUE(svc.Start().ok());
  Install("slow-worker:p=1,delay_ms=200");

  auto first = svc.Submit(Query(0, 950));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(BatchesStarted(1));
  auto second = svc.Submit(Query(1, 951));
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(BatchesStarted(2));
  EXPECT_EQ(first->wait_for(std::chrono::seconds(0)),
            std::future_status::timeout)
      << "the second request waited for the first one's batch";
  EXPECT_TRUE(first->get().status.ok());
  EXPECT_TRUE(second->get().status.ok());
  svc.Shutdown();
}

TEST_F(BatchTest, ArrivalsBatchBehindABatchingWorker) {
  // A batch of several shows arrivals outpacing the workers: the idle
  // worker does not take a partial batch while another encodes one, so
  // duplicates that trickle in meanwhile coalesce into one batch instead
  // of one batch each.
  serve::ServiceConfig cfg = BatchedService();
  cfg.num_workers = 2;
  cfg.batch_max = 16;
  cfg.batch_ticks = 64;  // no age flush within this trace
  serve::InferenceService svc(features(), TinyEncoder(), cfg);
  svc.InstallModel(
      std::make_shared<TemporalPathEncoder>(features(), TinyEncoder()), 1);
  ASSERT_TRUE(svc.Start().ok());
  Install("slow-worker:p=1,delay_ms=100");

  std::vector<std::future<serve::ServeResult>> held;
  ASSERT_NO_FATAL_FAILURE(HoldABatchOfTwo(
      svc, {Query(0, 700), Query(1, 701), Query(2, 702), Query(3, 703)},
      &held));
  // 1 ms apart, so the idle worker would have time to wake between them.
  std::vector<std::future<serve::ServeResult>> duplicates;
  for (uint64_t i = 0; i < 8; ++i) {
    auto submitted = svc.Submit(Query(4, 800 + i, /*time_shift=*/3600));
    ASSERT_TRUE(submitted.ok());
    duplicates.push_back(std::move(*submitted));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (auto& f : held) ASSERT_TRUE(f.get().status.ok());
  std::vector<float> embedding;
  for (auto& f : duplicates) {
    serve::ServeResult r = f.get();
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_EQ(r.rung, serve::Rung::kFull);
    if (embedding.empty()) embedding = r.embedding;
    EXPECT_EQ(r.embedding, embedding);
  }
  EXPECT_EQ(obs::GetCounter("serve.batches").value(), 4u);
  EXPECT_EQ(obs::GetCounter("serve.batch_coalesced").value(), 7u);
  svc.Shutdown();
}

TEST_F(BatchTest, ShutdownWhileAWorkerIsBusyFailsOnlyTheParkedRequests) {
  // One worker encodes a batch of two (held by the injected delay) while
  // the other idles and requests park in the former behind it. Shutdown
  // fails the parked requests, lets the running batches finish, and
  // returns.
  serve::ServiceConfig cfg = BatchedService();
  cfg.num_workers = 2;
  cfg.batch_max = 16;
  cfg.batch_ticks = 64;
  serve::InferenceService svc(features(), TinyEncoder(), cfg);
  svc.InstallModel(
      std::make_shared<TemporalPathEncoder>(features(), TinyEncoder()), 1);
  ASSERT_TRUE(svc.Start().ok());
  Install("slow-worker:p=1,delay_ms=100");

  std::vector<std::future<serve::ServeResult>> held;
  ASSERT_NO_FATAL_FAILURE(HoldABatchOfTwo(
      svc, {Query(0, 900), Query(1, 901), Query(2, 902), Query(3, 903)},
      &held));
  std::vector<std::future<serve::ServeResult>> parked;
  for (uint64_t i = 0; i < 5; ++i) {
    auto submitted = svc.Submit(Query(static_cast<int>(i) + 4, 904 + i));
    ASSERT_TRUE(submitted.ok());
    parked.push_back(std::move(*submitted));
  }
  svc.Shutdown();
  for (auto& f : held) {
    serve::ServeResult r = f.get();
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_EQ(r.rung, serve::Rung::kFull);
  }
  for (auto& f : parked) {
    EXPECT_EQ(f.get().status.code(), StatusCode::kUnavailable);
  }
  EXPECT_EQ(obs::GetCounter("serve.batches").value(), 3u);
}

TEST_F(BatchTest, NoRequestIsStrandedAcrossIdleGaps) {
  // Bursts of every size, some of them duplicate-heavy, separated by
  // idle gaps: each burst leaves a partial batch behind it, and with no
  // timer in the worker loop a lost wake-up would strand it here.
  serve::ServiceConfig cfg = BatchedService();
  cfg.num_workers = 4;
  cfg.batch_max = 16;
  cfg.batch_ticks = 128;
  serve::InferenceService svc(features(), TinyEncoder(), cfg);
  svc.InstallModel(
      std::make_shared<TemporalPathEncoder>(features(), TinyEncoder()), 1);
  ASSERT_TRUE(svc.Start().ok());

  std::vector<std::future<serve::ServeResult>> futures;
  uint64_t id = 0;
  for (int burst = 0; burst < 24; ++burst) {
    const int size = 1 + (burst * 7) % 20;
    for (int i = 0; i < size; ++i, ++id) {
      const int sample = burst % 3 == 0 ? burst : static_cast<int>(id);
      auto submitted = svc.Submit(Query(sample, id));
      ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
      futures.push_back(std::move(*submitted));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1 + burst % 4));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    ASSERT_EQ(futures[i].wait_for(std::chrono::seconds(10)),
              std::future_status::ready)
        << "request " << i << " stranded in the former";
    EXPECT_TRUE(futures[i].get().status.ok());
  }
  svc.Shutdown();
}

// ---------------------------------------------------------------------------
// The batched determinism soak: same trace + plan => identical
// per-request outcomes across runs and worker counts — batch
// boundaries, coalescing, and grouped rung-retry ladders included.
// ---------------------------------------------------------------------------

struct Outcome {
  int code = 0;
  int rung = -1;
  int attempts = 0;
  std::vector<float> embedding;
  bool operator==(const Outcome& o) const {
    return code == o.code && rung == o.rung && attempts == o.attempts &&
           embedding == o.embedding;
  }
};

class BatchSoakTest : public BatchTest {
 protected:
  // encoder-forward exercises the group-keyed retry ladder, quant-encode
  // the group-level int8 rung, alloc and batch-flush the pre-encode
  // degrades, queue-full the admission sheds.
  static constexpr char kSpec[] =
      "encoder-forward:p=0.1;quant-encode:p=0.5,seed=7;alloc:p=0.02;"
      "queue-full:p=0.01;batch-flush:p=0.05";

  std::vector<Outcome> RunSoak(int num_workers, int n) {
    Install(kSpec);
    serve::ServiceConfig cfg = BatchedService();
    cfg.num_workers = num_workers;
    cfg.queue_capacity = 128;
    auto encoder =
        std::make_shared<TemporalPathEncoder>(features(), TinyEncoder());
    auto twin = MakeTwin(*encoder, 1);
    EXPECT_NE(twin, nullptr);
    serve::InferenceService svc(features(), TinyEncoder(), cfg);
    svc.InstallModel(encoder, 1, twin);
    EXPECT_TRUE(svc.Start().ok());

    // Single submitter, ids == tickets, duplicate-heavy trace: arrivals
    // come in runs of 8 identical (path, bucket) keys, so duplicates
    // land inside the same batch window and coalescing is exercised.
    std::vector<Outcome> outcomes(static_cast<size_t>(n));
    std::vector<std::pair<size_t, std::future<serve::ServeResult>>> pending;
    pending.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      auto submitted = svc.Submit(
          Query((i / 8) % 7, static_cast<uint64_t>(i), ((i / 8) % 3) * 500));
      if (!submitted.ok()) {
        outcomes[static_cast<size_t>(i)].code =
            static_cast<int>(submitted.status().code());
        continue;
      }
      pending.emplace_back(static_cast<size_t>(i), std::move(*submitted));
    }
    for (auto& [idx, future] : pending) {
      serve::ServeResult r = future.get();
      Outcome& o = outcomes[idx];
      o.code = static_cast<int>(r.status.code());
      if (r.status.ok()) {
        o.rung = static_cast<int>(r.rung);
        o.attempts = r.attempts;
        o.embedding = std::move(r.embedding);
      }
    }
    svc.Shutdown();
    fault::ClearPlan();
    return outcomes;
  }
};

TEST_F(BatchSoakTest, OutcomesAreIdenticalAcrossRunsAndWorkerCounts) {
  const int n = 3000;
  std::vector<Outcome> run_a = RunSoak(/*num_workers=*/4, n);

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
  EXPECT_GT(rung_count[0], 0) << "full rung never reached";
  EXPECT_GT(rung_count[1], 0) << "quantized rung never reached";
  EXPECT_GT(rung_count[2], 0) << "cached rung never reached";
  EXPECT_GT(obs::GetCounter("serve.batch_coalesced").value(), 0u)
      << "the duplicate-heavy trace never coalesced anything";

  // Same trace, same plan, same worker count: bitwise identical
  // per-request outcomes even though batch COMPOSITION (idle flushes)
  // depends on when workers finish.
  std::vector<Outcome> run_b = RunSoak(/*num_workers=*/4, n);
  ASSERT_EQ(run_a.size(), run_b.size());
  for (size_t i = 0; i < run_a.size(); ++i) {
    ASSERT_TRUE(run_a[i] == run_b[i]) << "outcome diverged at request " << i;
  }

  // And a different worker count reproduces the same prefix: outcomes
  // are a pure function of the request, never of batch membership.
  const int m = 1000;
  std::vector<Outcome> run_c = RunSoak(/*num_workers=*/1, m);
  for (size_t i = 0; i < run_c.size(); ++i) {
    ASSERT_TRUE(run_a[i] == run_c[i])
        << "outcome diverged from single-worker run at request " << i;
  }
}

}  // namespace
}  // namespace tpr
