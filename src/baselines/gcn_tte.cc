#include "baselines/gcn_tte.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "baselines/common.h"
#include "nn/optimizer.h"
#include "synth/traffic_model.h"
#include "util/logging.h"

namespace tpr::baselines {
namespace {

// Distributes each observed path travel time over its edges proportional
// to edge length and averages per key (edge id, or edge id + bucket).
struct EdgeTargets {
  std::vector<float> mean_time;  // per key
  std::vector<char> observed;
};

EdgeTargets BuildEdgeTargets(const core::FeatureSpace& features,
                             const std::vector<int>& train_indices,
                             int buckets_per_edge,
                             const std::function<int(int64_t)>& bucket_of) {
  const auto& data = *features.data;
  const auto& network = *data.network;
  const size_t keys =
      static_cast<size_t>(network.num_edges()) * buckets_per_edge;
  std::vector<double> sum(keys, 0.0);
  std::vector<int> count(keys, 0);
  for (int i : train_indices) {
    const auto& s = data.labeled[i];
    const double path_len = network.PathLength(s.path);
    if (path_len <= 0) continue;
    const int b = bucket_of(s.depart_time_s);
    for (int eid : s.path) {
      const double share =
          s.travel_time_s * network.edge(eid).length_m / path_len;
      const size_t key = static_cast<size_t>(eid) * buckets_per_edge + b;
      sum[key] += share;
      ++count[key];
    }
  }
  EdgeTargets t;
  t.mean_time.resize(keys, 0.0f);
  t.observed.resize(keys, 0);
  for (size_t k = 0; k < keys; ++k) {
    if (count[k] > 0) {
      t.mean_time[k] = static_cast<float>(sum[k] / count[k]);
      t.observed[k] = 1;
    }
  }
  return t;
}

// Free-flow fallback time for edges never observed in training.
float FreeFlowTime(const graph::RoadNetwork& network, int eid) {
  const auto& e = network.edge(eid);
  return static_cast<float>(e.length_m /
                            tpr::synth::BaseSpeedForType(e.road_type));
}

}  // namespace

// ---------------------------------------------------------------------------
// GCN
// ---------------------------------------------------------------------------

GcnTteModel::GcnTteModel(std::shared_ptr<const core::FeatureSpace> features,
                         Config config)
    : features_(std::move(features)), config_(config) {
  adjacency_ = LineGraphAdjacency(*features_->data->network);
  edge_features_ = AllEdgeFeatures(*features_);
  Rng rng(config.seed);
  layer1_ = std::make_unique<nn::Linear>(edge_features_.cols(),
                                         config_.hidden_dim, rng);
  layer2_ = std::make_unique<nn::Linear>(config_.hidden_dim, 1, rng);
}

Status GcnTteModel::Train(const std::vector<int>& train_indices) {
  if (train_indices.empty()) {
    return Status::InvalidArgument("no training samples");
  }
  const auto& network = *features_->data->network;
  const auto targets = BuildEdgeTargets(*features_, train_indices, 1,
                                        [](int64_t) { return 0; });

  // Normalise targets to O(1).
  double mean = 0;
  int observed = 0;
  for (size_t k = 0; k < targets.mean_time.size(); ++k) {
    if (targets.observed[k]) {
      mean += targets.mean_time[k];
      ++observed;
    }
  }
  if (observed == 0) return Status::Internal("no observed edges");
  mean /= observed;

  std::vector<nn::Var> params = layer1_->Parameters();
  auto p2 = layer2_->Parameters();
  params.insert(params.end(), p2.begin(), p2.end());
  nn::Adam opt(params, config_.lr);

  nn::Var a = nn::Var::Leaf(adjacency_);
  nn::Var x = nn::Var::Leaf(edge_features_);
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    nn::Var h = nn::Tanh(layer1_->Forward(nn::MatMul(a, x)));
    nn::Var pred = layer2_->Forward(nn::MatMul(a, h));  // num_edges x 1

    // Masked MSE against observed normalised targets.
    nn::Tensor target(network.num_edges(), 1);
    nn::Tensor mask(network.num_edges(), 1);
    for (int e = 0; e < network.num_edges(); ++e) {
      if (targets.observed[e]) {
        target.at(e, 0) = static_cast<float>(targets.mean_time[e] / mean);
        mask.at(e, 0) = 1.0f;
      }
    }
    nn::Var diff = nn::Sub(pred, nn::Var::Leaf(target));
    nn::Var masked = nn::Mul(diff, nn::Var::Leaf(mask));
    nn::Var loss = nn::Scale(
        nn::Sum(nn::Mul(masked, masked)), 1.0f / static_cast<float>(observed));
    opt.ZeroGrad();
    loss.Backward();
    opt.ClipGradNorm(5.0f);
    opt.Step();
  }

  // Freeze predictions.
  nn::NoGradGuard no_grad;
  nn::Var h = nn::Tanh(layer1_->Forward(nn::MatMul(a, x)));
  nn::Var pred = layer2_->Forward(nn::MatMul(a, h));
  edge_times_.resize(network.num_edges());
  for (int e = 0; e < network.num_edges(); ++e) {
    const float t = static_cast<float>(pred.value().at(e, 0) * mean);
    edge_times_[e] = targets.observed[e]
                         ? std::max(1.0f, t)
                         : FreeFlowTime(network, e);
  }
  return Status::OK();
}

double GcnTteModel::PredictTravelTime(const graph::Path& path,
                                      int64_t /*depart_time_s*/) const {
  double total = 0;
  for (int eid : path) total += edge_times_[eid];
  return total;
}

// ---------------------------------------------------------------------------
// STGCN
// ---------------------------------------------------------------------------

StgcnTteModel::StgcnTteModel(
    std::shared_ptr<const core::FeatureSpace> features, Config config)
    : features_(std::move(features)), config_(config) {
  adjacency_ = LineGraphAdjacency(*features_->data->network);
  edge_features_ = AllEdgeFeatures(*features_);
  Rng rng(config.seed);
  layer1_ = std::make_unique<nn::Linear>(edge_features_.cols(),
                                         config_.hidden_dim, rng);
  layer2_ = std::make_unique<nn::Linear>(config_.hidden_dim,
                                         config_.hidden_dim, rng);
  time_emb_ = std::make_unique<nn::Embedding>(2 * config_.time_buckets, 8, rng);
  out_ = std::make_unique<nn::Linear>(config_.hidden_dim + 8, 1, rng);
}

int StgcnTteModel::BucketOf(int64_t depart_time_s) const {
  constexpr int64_t kDayS = 24 * 3600;
  int64_t t = depart_time_s % (7 * kDayS);
  if (t < 0) t += 7 * kDayS;
  const int day = static_cast<int>(t / kDayS);
  const bool weekday = day < 5;
  const int slot = static_cast<int>((t % kDayS) * config_.time_buckets / kDayS);
  return (weekday ? 0 : config_.time_buckets) + slot;
}

Status StgcnTteModel::Train(const std::vector<int>& train_indices) {
  if (train_indices.empty()) {
    return Status::InvalidArgument("no training samples");
  }
  const auto& network = *features_->data->network;
  const int num_buckets = 2 * config_.time_buckets;
  const auto targets =
      BuildEdgeTargets(*features_, train_indices, num_buckets,
                       [this](int64_t t) { return BucketOf(t); });

  double mean = 0;
  int observed = 0;
  for (size_t k = 0; k < targets.mean_time.size(); ++k) {
    if (targets.observed[k]) {
      mean += targets.mean_time[k];
      ++observed;
    }
  }
  if (observed == 0) return Status::Internal("no observed edge-buckets");
  mean /= observed;

  // Collect observed (edge, bucket) pairs once.
  std::vector<std::pair<int, int>> pairs;
  for (int e = 0; e < network.num_edges(); ++e) {
    for (int b = 0; b < num_buckets; ++b) {
      if (targets.observed[static_cast<size_t>(e) * num_buckets + b]) {
        pairs.emplace_back(e, b);
      }
    }
  }

  std::vector<nn::Var> params = layer1_->Parameters();
  for (const auto* m : {static_cast<const nn::Module*>(layer2_.get()),
                        static_cast<const nn::Module*>(time_emb_.get()),
                        static_cast<const nn::Module*>(out_.get())}) {
    auto p = m->Parameters();
    params.insert(params.end(), p.begin(), p.end());
  }
  nn::Adam opt(params, config_.lr);

  nn::Var a = nn::Var::Leaf(adjacency_);
  nn::Var x = nn::Var::Leaf(edge_features_);
  Rng rng(config_.seed + 9);
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    nn::Var h = nn::Tanh(layer2_->Forward(
        nn::Tanh(layer1_->Forward(nn::MatMul(a, x)))));

    // Sampled observed pairs per epoch (keeps the graph small).
    std::vector<int> edge_rows, bucket_ids;
    std::vector<float> batch_targets;
    const size_t batch = std::min<size_t>(pairs.size(), 256);
    for (size_t k = 0; k < batch; ++k) {
      const auto& [e, b] = pairs[rng.UniformInt(pairs.size())];
      edge_rows.push_back(e);
      bucket_ids.push_back(b);
      batch_targets.push_back(static_cast<float>(
          targets.mean_time[static_cast<size_t>(e) * num_buckets + b] / mean));
    }
    nn::Var h_sel = nn::Gather(h, edge_rows);
    nn::Var t_sel = time_emb_->Forward(bucket_ids);
    nn::Var pred = out_->Forward(nn::ConcatCols({h_sel, t_sel}));
    nn::Var target = nn::Var::Leaf(nn::Tensor::FromValues(
        static_cast<int>(batch), 1, std::move(batch_targets)));
    nn::Var diff = nn::Sub(pred, target);
    nn::Var loss = nn::Mean(nn::Mul(diff, diff));
    opt.ZeroGrad();
    loss.Backward();
    opt.ClipGradNorm(5.0f);
    opt.Step();
  }

  // Freeze per-(bucket, edge) predictions.
  nn::NoGradGuard no_grad;
  nn::Var h = nn::Tanh(layer2_->Forward(
      nn::Tanh(layer1_->Forward(nn::MatMul(a, x)))));
  edge_times_by_bucket_.assign(num_buckets,
                               std::vector<float>(network.num_edges()));
  std::vector<int> all_edges(network.num_edges());
  for (int e = 0; e < network.num_edges(); ++e) all_edges[e] = e;
  for (int b = 0; b < num_buckets; ++b) {
    nn::Var t_sel = time_emb_->Forward(
        std::vector<int>(network.num_edges(), b));
    nn::Var pred =
        out_->Forward(nn::ConcatCols({nn::Gather(h, all_edges), t_sel}));
    for (int e = 0; e < network.num_edges(); ++e) {
      const float t = static_cast<float>(pred.value().at(e, 0) * mean);
      const bool seen =
          targets.observed[static_cast<size_t>(e) * num_buckets + b];
      edge_times_by_bucket_[b][e] =
          seen || t > 1.0f ? std::max(1.0f, t) : FreeFlowTime(network, e);
    }
  }
  return Status::OK();
}

double StgcnTteModel::PredictTravelTime(const graph::Path& path,
                                        int64_t depart_time_s) const {
  const int b = BucketOf(depart_time_s);
  double total = 0;
  for (int eid : path) total += edge_times_by_bucket_[b][eid];
  return total;
}

}  // namespace tpr::baselines
