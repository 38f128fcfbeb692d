#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>

#include "core/curriculum.h"
#include "gradcheck.h"
#include "core/encoder.h"
#include "core/features.h"
#include "core/probe.h"
#include "core/wsc_loss.h"
#include "core/wsccl.h"
#include "par/thread_pool.h"
#include "synth/presets.h"
#include "synth/regime.h"

namespace tpr::core {
namespace {

// Shared tiny fixture: one small city + features, built once. gtest
// calls SetUpTestSuite once per derived suite, so later suites reuse
// the first build.
class CoreTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    if (data_ != nullptr) return;
    auto preset = synth::AalborgPreset();
    synth::ScaleDataset(preset, 0.1);
    auto ds = synth::BuildPresetDataset(preset);
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    data_ = new std::shared_ptr<synth::CityDataset>(
        std::make_shared<synth::CityDataset>(std::move(*ds)));
    FeatureConfig fc;
    fc.temporal_graph.slots_per_day = 48;
    fc.node2vec.walks_per_node = 2;
    fc.node2vec.epochs = 1;
    auto fs = BuildFeatureSpace(*data_, fc);
    ASSERT_TRUE(fs.ok()) << fs.status().ToString();
    features_ = new std::shared_ptr<const FeatureSpace>(
        std::make_shared<const FeatureSpace>(std::move(*fs)));
  }

  static EncoderConfig TinyEncoder() {
    EncoderConfig cfg;
    cfg.d_hidden = 16;
    cfg.projection_dim = 8;
    return cfg;
  }

  static WscConfig TinyWsc() {
    WscConfig cfg;
    cfg.encoder = TinyEncoder();
    cfg.anchors_per_batch = 6;
    return cfg;
  }

  const synth::CityDataset& data() { return **data_; }
  std::shared_ptr<const FeatureSpace> features() { return *features_; }

  static std::shared_ptr<synth::CityDataset>* data_;
  static std::shared_ptr<const FeatureSpace>* features_;
};

std::shared_ptr<synth::CityDataset>* CoreTest::data_ = nullptr;
std::shared_ptr<const FeatureSpace>* CoreTest::features_ = nullptr;

TEST_F(CoreTest, FeatureSpaceShapes) {
  const auto& fs = *features();
  EXPECT_EQ(fs.road_embeddings.num_nodes(), data().network->num_nodes());
  EXPECT_EQ(fs.road_embeddings.dim, fs.config.road_embedding_dim);
  EXPECT_EQ(fs.temporal_embeddings.num_nodes(),
            fs.config.temporal_graph.num_nodes());
  EXPECT_EQ(fs.temporal_embeddings.dim, fs.config.temporal_embedding_dim);
}

TEST_F(CoreTest, EncoderOutputShapes) {
  TemporalPathEncoder encoder(features(), TinyEncoder());
  const auto& sample = data().unlabeled.front();
  const auto encoded = encoder.Encode(sample.path, sample.depart_time_s);
  EXPECT_EQ(encoded.tpr.rows(), 1);
  EXPECT_EQ(encoded.tpr.cols(), 16);
  EXPECT_EQ(encoded.edge_reps.rows(),
            static_cast<int>(sample.path.size()));
  EXPECT_EQ(encoded.edge_reps.cols(), 16);
  EXPECT_EQ(encoded.tpr_proj.cols(), 8);
  EXPECT_EQ(encoded.edge_reps_proj.rows(), encoded.edge_reps.rows());
}

TEST_F(CoreTest, TprIsMeanOfEdgeReps) {
  TemporalPathEncoder encoder(features(), TinyEncoder());
  const auto& sample = data().unlabeled.front();
  const auto encoded = encoder.Encode(sample.path, sample.depart_time_s);
  for (int j = 0; j < encoded.tpr.cols(); ++j) {
    double mean = 0;
    for (int i = 0; i < encoded.edge_reps.rows(); ++i) {
      mean += encoded.edge_reps.value().at(i, j);
    }
    mean /= encoded.edge_reps.rows();
    EXPECT_NEAR(encoded.tpr.value().at(0, j), mean, 1e-5);
  }
}

TEST_F(CoreTest, EncoderDependsOnDepartureTime) {
  TemporalPathEncoder encoder(features(), TinyEncoder());
  const auto& sample = data().unlabeled.front();
  // Monday 8am vs Monday 3am should produce different TPRs.
  const auto morning = encoder.EncodeValue(sample.path, 8 * 3600);
  const auto night = encoder.EncodeValue(sample.path, 3 * 3600);
  double diff = 0;
  for (size_t i = 0; i < morning.size(); ++i) {
    diff += std::fabs(morning[i] - night[i]);
  }
  EXPECT_GT(diff, 1e-4);
}

TEST_F(CoreTest, NtEncoderIgnoresDepartureTime) {
  auto cfg = TinyEncoder();
  cfg.use_temporal = false;
  TemporalPathEncoder encoder(features(), cfg);
  const auto& sample = data().unlabeled.front();
  const auto a = encoder.EncodeValue(sample.path, 8 * 3600);
  const auto b = encoder.EncodeValue(sample.path, 3 * 3600);
  for (size_t i = 0; i < a.size(); ++i) EXPECT_FLOAT_EQ(a[i], b[i]);
}

TEST_F(CoreTest, EncoderDeterministicForSeed) {
  TemporalPathEncoder a(features(), TinyEncoder());
  TemporalPathEncoder b(features(), TinyEncoder());
  const auto& sample = data().unlabeled.front();
  const auto va = a.EncodeValue(sample.path, sample.depart_time_s);
  const auto vb = b.EncodeValue(sample.path, sample.depart_time_s);
  EXPECT_EQ(va, vb);
}

TEST_F(CoreTest, CopyParamsBetweenEncoders) {
  TemporalPathEncoder a(features(), TinyEncoder());
  auto cfg = TinyEncoder();
  cfg.seed = 999;
  TemporalPathEncoder b(features(), cfg);
  ASSERT_TRUE(a.CopyParamsFrom(b).ok());
  const auto& sample = data().unlabeled.front();
  EXPECT_EQ(a.EncodeValue(sample.path, sample.depart_time_s),
            b.EncodeValue(sample.path, sample.depart_time_s));
}

TEST_F(CoreTest, TransformerEncoderVariant) {
  auto cfg = TinyEncoder();
  cfg.sequence_model = SequenceModel::kTransformer;
  cfg.lstm_layers = 1;
  TemporalPathEncoder encoder(features(), cfg);
  const auto& sample = data().unlabeled.front();
  const auto encoded = encoder.Encode(sample.path, sample.depart_time_s);
  EXPECT_EQ(encoded.tpr.cols(), cfg.d_hidden);
  EXPECT_EQ(encoded.edge_reps.rows(),
            static_cast<int>(sample.path.size()));
  for (size_t i = 0; i < encoded.tpr.value().size(); ++i) {
    EXPECT_TRUE(std::isfinite(encoded.tpr.value()[i]));
  }
  // Trainable end to end through the WSC losses.
  auto wsc = TinyWsc();
  wsc.encoder = cfg;
  WscModel model(features(), wsc);
  std::vector<int> idx(12);
  std::iota(idx.begin(), idx.end(), 0);
  EXPECT_TRUE(model.TrainEpoch(idx).ok());
}

TEST_F(CoreTest, AggregationVariants) {
  const auto& sample = data().unlabeled.front();
  auto mean_cfg = TinyEncoder();
  auto max_cfg = TinyEncoder();
  max_cfg.aggregation = Aggregation::kMax;
  auto last_cfg = TinyEncoder();
  last_cfg.aggregation = Aggregation::kLast;

  TemporalPathEncoder mean_enc(features(), mean_cfg);
  TemporalPathEncoder max_enc(features(), max_cfg);
  TemporalPathEncoder last_enc(features(), last_cfg);
  // Same seed -> same LSTM; aggregation alone changes the TPR.
  const auto mean_rep = mean_enc.EncodeValue(sample.path, sample.depart_time_s);
  const auto max_rep = max_enc.EncodeValue(sample.path, sample.depart_time_s);
  const auto last_rep = last_enc.EncodeValue(sample.path, sample.depart_time_s);
  EXPECT_NE(mean_rep, max_rep);
  EXPECT_NE(mean_rep, last_rep);
  // Max aggregation dominates the mean elementwise.
  for (size_t i = 0; i < mean_rep.size(); ++i) {
    EXPECT_GE(max_rep[i], mean_rep[i] - 1e-5f);
  }
  // Last aggregation equals the final edge representation.
  const auto encoded = last_enc.Encode(sample.path, sample.depart_time_s);
  const int last_row = encoded.edge_reps.rows() - 1;
  for (int j = 0; j < encoded.edge_reps.cols(); ++j) {
    EXPECT_FLOAT_EQ(last_rep[j], encoded.edge_reps.value().at(last_row, j));
  }
}

// ---------------------------------------------------------------------------
// WSC losses
// ---------------------------------------------------------------------------

class WscLossTest : public CoreTest {
 protected:
  // Builds a batch of 4 items: 0 and 1 are positives (same path + label),
  // 2 shares the path with a different label, 3 is a different path.
  std::vector<BatchItem> MakeBatch(TemporalPathEncoder& encoder) {
    const auto& p0 = data().unlabeled[0].path;
    const graph::Path* other = &data().unlabeled[1].path;
    for (const auto& s : data().unlabeled) {
      if (s.path != p0) {
        other = &s.path;
        break;
      }
    }
    std::vector<BatchItem> batch(4);
    batch[0] = {&p0, 8 * 3600, 0, encoder.Encode(p0, 8 * 3600)};
    batch[1] = {&p0, 8 * 3600 + 1800, 0, encoder.Encode(p0, 8 * 3600 + 1800)};
    batch[2] = {&p0, 12 * 3600, 2, encoder.Encode(p0, 12 * 3600)};
    batch[3] = {other, 8 * 3600, 0, encoder.Encode(*other, 8 * 3600)};
    return batch;
  }
};

TEST_F(WscLossTest, PositivePairRules) {
  graph::Path a = {1, 2, 3};
  graph::Path b = {1, 2, 3};
  graph::Path c = {4, 5};
  BatchItem x{&a, 0, 0, {}};
  BatchItem same_path_same_label{&b, 100, 0, {}};
  BatchItem same_path_other_label{&b, 0, 1, {}};
  BatchItem other_path{&c, 0, 0, {}};
  EXPECT_TRUE(IsPositivePair(x, same_path_same_label));
  EXPECT_FALSE(IsPositivePair(x, same_path_other_label));
  EXPECT_FALSE(IsPositivePair(x, other_path));
}

TEST_F(WscLossTest, GlobalLossFiniteAndDifferentiable) {
  TemporalPathEncoder encoder(features(), TinyEncoder());
  auto batch = MakeBatch(encoder);
  WscLossConfig cfg;
  nn::Var loss = GlobalWscLoss(batch, cfg);
  ASSERT_TRUE(loss.defined());
  EXPECT_TRUE(std::isfinite(loss.scalar()));
  loss.Backward();
  // Some encoder parameter must receive gradient.
  bool any_grad = false;
  for (const auto& p : encoder.Parameters()) {
    if (!p.grad().empty() && p.grad().Norm() > 0) any_grad = true;
  }
  EXPECT_TRUE(any_grad);
}

TEST_F(WscLossTest, GlobalLossUndefinedWithoutPositives) {
  TemporalPathEncoder encoder(features(), TinyEncoder());
  auto batch = MakeBatch(encoder);
  batch.erase(batch.begin() + 1);   // drop the positive partner
  batch.erase(batch.begin() + 1);   // drop same-path-other-label
  batch.erase(batch.begin() + 1);   // only one item left
  WscLossConfig cfg;
  EXPECT_FALSE(GlobalWscLoss(batch, cfg).defined());
}

TEST_F(WscLossTest, LocalLossFinite) {
  TemporalPathEncoder encoder(features(), TinyEncoder());
  auto batch = MakeBatch(encoder);
  WscLossConfig cfg;
  Rng rng(5);
  nn::Var loss = LocalWscLoss(batch, cfg, rng);
  ASSERT_TRUE(loss.defined());
  EXPECT_TRUE(std::isfinite(loss.scalar()));
}

TEST_F(WscLossTest, GlobalLossPrefersAlignedPositives) {
  // Hand-crafted representations: if the query is closer to its positive
  // than to negatives, the loss must be lower than in the flipped case.
  auto make_item = [](const graph::Path* p, int label,
                      std::vector<float> rep) {
    BatchItem item;
    item.path = p;
    item.weak_label = label;
    item.encoded.tpr = nn::Var::Leaf(nn::Tensor::RowVector(rep));
    item.encoded.tpr_proj = item.encoded.tpr;
    return item;
  };
  static const graph::Path pa = {1, 2};
  static const graph::Path pb = {3, 4};
  WscLossConfig cfg;

  std::vector<BatchItem> aligned = {
      make_item(&pa, 0, {1, 0}), make_item(&pa, 0, {0.9f, 0.1f}),
      make_item(&pb, 1, {-1, 0})};
  std::vector<BatchItem> misaligned = {
      make_item(&pa, 0, {1, 0}), make_item(&pa, 0, {-1, 0}),
      make_item(&pb, 1, {0.9f, 0.1f})};
  EXPECT_LT(GlobalWscLoss(aligned, cfg).scalar(),
            GlobalWscLoss(misaligned, cfg).scalar());
}

// ---------------------------------------------------------------------------
// Trainer, curriculum, pipeline
// ---------------------------------------------------------------------------

TEST_F(CoreTest, SampleDepartureWithLabelMatches) {
  Rng rng(6);
  for (int label : {0, 1, 2}) {
    const int64_t t = SampleDepartureWithLabel(
        synth::WeakLabelScheme::kPeakOffPeak, label, *data().traffic, 0, rng);
    EXPECT_EQ(synth::PopWeakLabel(t), label);
  }
}

TEST_F(CoreTest, TrainEpochRunsAndReportsLoss) {
  WscModel model(features(), TinyWsc());
  std::vector<int> idx(std::min<size_t>(24, data().unlabeled.size()));
  std::iota(idx.begin(), idx.end(), 0);
  auto loss = model.TrainEpoch(idx);
  ASSERT_TRUE(loss.ok()) << loss.status().ToString();
  EXPECT_TRUE(std::isfinite(*loss));
}

TEST_F(CoreTest, TrainEpochRejectsEmptyAndDisabledLosses) {
  WscModel model(features(), TinyWsc());
  EXPECT_FALSE(model.TrainEpoch({}).ok());
  auto cfg = TinyWsc();
  cfg.use_global = false;
  cfg.use_local = false;
  WscModel disabled(features(), cfg);
  EXPECT_FALSE(disabled.TrainEpoch({0, 1}).ok());
}

TEST_F(CoreTest, MetaSetsSortedByLength) {
  std::vector<int> idx(data().unlabeled.size());
  std::iota(idx.begin(), idx.end(), 0);
  auto meta = SplitMetaSets(data(), idx, 3);
  ASSERT_EQ(meta.size(), 3u);
  // Max length of set i <= min length of set i+1.
  for (size_t i = 0; i + 1 < meta.size(); ++i) {
    double max_i = 0, min_next = 1e18;
    for (int s : meta[i]) {
      max_i = std::max(max_i,
                       data().network->PathLength(data().unlabeled[s].path));
    }
    for (int s : meta[i + 1]) {
      min_next = std::min(
          min_next, data().network->PathLength(data().unlabeled[s].path));
    }
    EXPECT_LE(max_i, min_next + 1e-9);
  }
}

TEST_F(CoreTest, MetaSetsPartitionInput) {
  std::vector<int> idx(data().unlabeled.size());
  std::iota(idx.begin(), idx.end(), 0);
  auto meta = SplitMetaSets(data(), idx, 4);
  std::set<int> seen;
  for (const auto& m : meta) {
    for (int s : m) EXPECT_TRUE(seen.insert(s).second);
  }
  EXPECT_EQ(seen.size(), idx.size());
}

TEST_F(CoreTest, BuildStagesOrdersEasyToHard) {
  std::vector<ScoredSample> scored;
  for (int i = 0; i < 12; ++i) scored.push_back({i, static_cast<double>(i)});
  Rng rng(7);
  auto stages = BuildStages(scored, 3, rng);
  ASSERT_EQ(stages.size(), 3u);
  // Highest scores (easiest) land in stage 0.
  for (int s : stages[0]) EXPECT_GE(s, 8);
  for (int s : stages[2]) EXPECT_LE(s, 3);
}

TEST_F(CoreTest, HeuristicCurriculumShortestFirst) {
  std::vector<int> idx(data().unlabeled.size());
  std::iota(idx.begin(), idx.end(), 0);
  auto stages = BuildCurriculum(features(), TinyWsc(),
                                {CurriculumStrategy::kHeuristic, 3, 1}, idx);
  ASSERT_TRUE(stages.ok());
  double mean_first = 0, mean_last = 0;
  for (int s : stages->front()) mean_first += data().unlabeled[s].path.size();
  for (int s : stages->back()) mean_last += data().unlabeled[s].path.size();
  mean_first /= stages->front().size();
  mean_last /= stages->back().size();
  EXPECT_LT(mean_first, mean_last);
}

TEST_F(CoreTest, LearnedDifficultyScoresCoverAllSamples) {
  std::vector<int> idx(std::min<size_t>(30, data().unlabeled.size()));
  std::iota(idx.begin(), idx.end(), 0);
  CurriculumConfig cfg;
  cfg.num_meta_sets = 2;
  cfg.expert_epochs = 1;
  auto scored = EvaluateDifficulty(features(), TinyWsc(), cfg, idx);
  ASSERT_TRUE(scored.ok()) << scored.status().ToString();
  EXPECT_EQ(scored->size(), idx.size());
  for (const auto& s : *scored) {
    // Sum of N-1 = 1 cosine similarity, bounded by [-1, 1].
    EXPECT_GE(s.score, -1.01);
    EXPECT_LE(s.score, 1.01);
  }
}

TEST_F(CoreTest, PipelineTrainsEndToEnd) {
  WsccalConfig cfg;
  cfg.wsc = TinyWsc();
  cfg.curriculum.num_meta_sets = 2;
  cfg.curriculum.expert_epochs = 1;
  cfg.stage_epochs = 1;
  cfg.final_epochs = 1;
  auto pipeline = WsccalPipeline::Train(features(), cfg);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  const auto& sample = data().unlabeled.front();
  const auto rep = (*pipeline)->Encode(sample);
  EXPECT_EQ(rep.size(), 16u);
  for (float v : rep) EXPECT_TRUE(std::isfinite(v));
}

TEST_F(CoreTest, PipelineRejectsNullFeatures) {
  EXPECT_FALSE(WsccalPipeline::Train(nullptr, WsccalConfig{}).ok());
}

// Property sweep over weak-label schemes: training runs and the model's
// WeakLabelOf stays within the scheme's range.
class WeakLabelSchemeTest
    : public CoreTest,
      public ::testing::WithParamInterface<synth::WeakLabelScheme> {};

TEST_P(WeakLabelSchemeTest, TrainerHandlesScheme) {
  auto cfg = TinyWsc();
  cfg.weak_labels = GetParam();
  WscModel model(features(), cfg);
  for (int i = 0; i < 10; ++i) {
    const int label = model.WeakLabelOf(data().unlabeled[i]);
    EXPECT_GE(label, 0);
    EXPECT_LT(label, synth::NumWeakLabels(GetParam()));
  }
  std::vector<int> idx(16);
  std::iota(idx.begin(), idx.end(), 0);
  EXPECT_TRUE(model.TrainEpoch(idx).ok());
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, WeakLabelSchemeTest,
    ::testing::Values(synth::WeakLabelScheme::kPeakOffPeak,
                      synth::WeakLabelScheme::kCongestionIndex));

// End-to-end gradient checks of the WSC losses through the full encoder.
// The batch is two positive pairs with opposite weak labels, so every
// query has at least one positive and one negative for both losses.
class WscLossGradCheck : public CoreTest {
 protected:
  std::vector<BatchItem> MakeBatch() {
    const auto& a = data().unlabeled[0];
    const auto& b = data().unlabeled[1];
    std::vector<BatchItem> batch;
    for (const auto* sample : {&a, &a, &b, &b}) {
      BatchItem item;
      item.path = &sample->path;
      item.depart_time_s = sample->depart_time_s;
      item.weak_label = sample == &a ? 0 : 1;
      batch.push_back(item);
    }
    // Positives of the same path at different departure times (Section V-A).
    batch[1].depart_time_s += 1800;
    batch[3].depart_time_s += 1800;
    return batch;
  }

  static EncoderConfig GradCheckEncoder() {
    EncoderConfig cfg;
    cfg.d_hidden = 8;
    cfg.projection_dim = 4;
    cfg.lstm_layers = 1;
    return cfg;
  }

  static tpr::testing::GradCheckOptions LossOptions() {
    tpr::testing::GradCheckOptions opts;
    opts.max_entries_per_param = 4;
    return opts;
  }
};

TEST_F(WscLossGradCheck, GlobalWscLossMatchesFiniteDifferences) {
  TemporalPathEncoder encoder(features(), GradCheckEncoder());
  WscLossConfig cfg;
  auto loss_fn = [&] {
    auto batch = MakeBatch();
    for (auto& item : batch) {
      item.encoded = encoder.Encode(*item.path, item.depart_time_s);
    }
    return GlobalWscLoss(batch, cfg);
  };
  tpr::testing::ExpectGradientsMatch(loss_fn, encoder.Parameters(),
                                     LossOptions());
}

TEST_F(WscLossGradCheck, LocalWscLossMatchesFiniteDifferences) {
  TemporalPathEncoder encoder(features(), GradCheckEncoder());
  WscLossConfig cfg;
  cfg.pos_edges_per_query = 2;
  cfg.neg_edges_per_query = 3;
  auto loss_fn = [&] {
    auto batch = MakeBatch();
    for (auto& item : batch) {
      item.encoded = encoder.Encode(*item.path, item.depart_time_s);
    }
    Rng rng(123);  // re-seeded so every evaluation samples the same edges
    return LocalWscLoss(batch, cfg, rng);
  };
  tpr::testing::ExpectGradientsMatch(loss_fn, encoder.Parameters(),
                                     LossOptions());
}

// ---------------------------------------------------------------------------
// Golden-probe read-out under distribution shift: the drift detector's
// quality signal must stay finite and honest on degenerate and
// post-shift windows.
// ---------------------------------------------------------------------------

class ProbeShiftTest : public CoreTest {
 protected:
  static void ZeroParameters(TemporalPathEncoder& encoder) {
    for (nn::Var p : encoder.Parameters()) {
      if (!p.defined()) continue;
      nn::Tensor& t = p.mutable_value();
      for (size_t i = 0; i < t.size(); ++i) t.data()[i] = 0.0f;
    }
  }
};

TEST_F(ProbeShiftTest, RidgeReadoutSurvivesDegenerateWindows) {
  TemporalPathEncoder encoder(features(), TinyEncoder());

  // Fewer queries than embedding dimensions: the ridge term keeps the
  // normal equations solvable where plain least squares is singular.
  ProbeSet tiny = BuildProbeSet(data(), 2, 5);
  ASSERT_EQ(tiny.queries.size(), 2u);
  auto tiny_mae = ProbeTravelTimeMae(encoder, tiny);
  ASSERT_TRUE(tiny_mae.ok()) << tiny_mae.status().ToString();
  EXPECT_TRUE(std::isfinite(*tiny_mae));

  // Collapsed embeddings (zeroed encoder) against constant labels: the
  // read-out degenerates to a bias-only fit, which nails a constant
  // label up to ridge shrinkage.
  TemporalPathEncoder collapsed(features(), TinyEncoder());
  ZeroParameters(collapsed);
  ProbeSet constant = BuildProbeSet(data(), 16, 5);
  for (auto& q : constant.queries) q.travel_time_s = 600.0;
  auto const_mae = ProbeTravelTimeMae(collapsed, constant);
  ASSERT_TRUE(const_mae.ok()) << const_mae.status().ToString();
  EXPECT_LT(*const_mae, 600.0 * 0.01);

  // Collapsed embeddings against VARYING labels: a constant predictor
  // cannot fit them, and the honest answer is a large finite MAE, not a
  // solver failure.
  ProbeSet varied = BuildProbeSet(data(), 16, 5);
  auto collapsed_mae = ProbeTravelTimeMae(collapsed, varied);
  ASSERT_TRUE(collapsed_mae.ok()) << collapsed_mae.status().ToString();
  TemporalPathEncoder healthy(features(), TinyEncoder());
  auto healthy_mae = ProbeTravelTimeMae(healthy, varied);
  ASSERT_TRUE(healthy_mae.ok());
  EXPECT_GT(*collapsed_mae, *healthy_mae);
}

TEST_F(ProbeShiftTest, ReadoutRejectsMisshapenEmbeddings) {
  TemporalPathEncoder encoder(features(), TinyEncoder());
  const ProbeSet probe = BuildProbeSet(data(), 8, 5);
  ASSERT_EQ(probe.queries.size(), 8u);
  const int dim = encoder.representation_dim();
  const auto embed = [&encoder](const std::vector<PathTimeItem>& items) {
    return encoder.EncodeValueBatch(items);
  };
  ASSERT_TRUE(ProbeTravelTimeMaeWith(embed, dim, probe).ok());

  // One row short of the query count.
  auto missing_row = ProbeTravelTimeMaeWith(
      [&embed](const std::vector<PathTimeItem>& items) {
        auto rows = embed(items);
        rows.pop_back();
        return rows;
      },
      dim, probe);
  EXPECT_EQ(missing_row.status().code(), StatusCode::kInvalidArgument);

  // One row narrower than representation_dim: reading it would run past
  // its end.
  auto narrow_row = ProbeTravelTimeMaeWith(
      [&embed](const std::vector<PathTimeItem>& items) {
        auto rows = embed(items);
        rows[3].pop_back();
        return rows;
      },
      dim, probe);
  EXPECT_EQ(narrow_row.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ProbeShiftTest, PostShiftLabelsRaiseTheFrozenEncoderMae) {
  // Relabel the probe paths with ground truth from a closed-road world:
  // a handful of paths get dramatically slower while the rest keep their
  // old labels, exactly the heteroscedastic residue a frozen encoder's
  // read-out cannot absorb.
  synth::RegimeShiftConfig cfg;
  cfg.kind = synth::RegimeKind::kClosure;
  cfg.seed = 21;
  cfg.edge_fraction = 0.08;
  const synth::RegimeShift shift =
      synth::MakeRegimeShift(*data().network, cfg);
  synth::TrafficModel shifted(data().network.get(), data().traffic->config(),
                              std::make_shared<const synth::RegimeShift>(shift));

  TemporalPathEncoder encoder(features(), TinyEncoder());
  ProbeSet base = BuildProbeSet(data(), 48, 5);
  ProbeSet post = base;
  int slower = 0;
  for (size_t i = 0; i < post.queries.size(); ++i) {
    auto& q = post.queries[i];
    q.travel_time_s = shifted.PathTravelTime(
        q.path, static_cast<double>(q.depart_time_s));
    if (q.travel_time_s > 1.5 * base.queries[i].travel_time_s) ++slower;
  }
  ASSERT_GT(slower, 0) << "the closure must hit some probe paths";

  auto base_mae = ProbeTravelTimeMae(encoder, base);
  auto post_mae = ProbeTravelTimeMae(encoder, post);
  ASSERT_TRUE(base_mae.ok()) << base_mae.status().ToString();
  ASSERT_TRUE(post_mae.ok()) << post_mae.status().ToString();
  EXPECT_TRUE(std::isfinite(*post_mae));
  EXPECT_GT(*post_mae, *base_mae)
      << "the shifted world must read as a quality regression";
}

TEST_F(ProbeShiftTest, ProbeMaeIsBitwiseIdenticalAtOneAndFourThreads) {
  TemporalPathEncoder encoder(features(), TinyEncoder());
  const ProbeSet probe = BuildProbeSet(data(), 48, 5);
  auto bits = [&] {
    auto mae = ProbeTravelTimeMae(encoder, probe);
    EXPECT_TRUE(mae.ok());
    uint64_t b = 0;
    const double v = mae.ok() ? *mae : -1.0;
    std::memcpy(&b, &v, sizeof b);
    return b;
  };
  const int before = par::DefaultPool().num_threads();
  par::SetDefaultThreads(1);
  const uint64_t solo = bits();
  par::SetDefaultThreads(4);
  const uint64_t quad = bits();
  par::SetDefaultThreads(before);
  EXPECT_EQ(solo, quad)
      << "the detector's input signal must not depend on thread count";
}

}  // namespace
}  // namespace tpr::core
