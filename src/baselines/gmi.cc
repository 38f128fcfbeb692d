#include "baselines/gmi.h"

#include "baselines/common.h"
#include "nn/optimizer.h"

namespace tpr::baselines {

GmiModel::GmiModel(std::shared_ptr<const core::FeatureSpace> features,
                   Config config)
    : features_(std::move(features)), config_(config), rng_(config.seed) {
  const auto& network = *features_->data->network;
  adjacency_ = NodeGraphAdjacency(network);
  const int d = features_->config.road_embedding_dim;
  node_features_ = nn::Tensor(network.num_nodes(), d + 1);
  for (int v = 0; v < network.num_nodes(); ++v) {
    const auto& emb = features_->road_embeddings[v];
    float* row = node_features_.data() + static_cast<size_t>(v) * (d + 1);
    std::copy(emb.begin(), emb.end(), row);
    row[d] = static_cast<float>(network.OutEdges(v).size()) / 8.0f;
  }
  gcn_weight_ = std::make_unique<nn::Linear>(node_features_.cols(),
                                             config_.hidden_dim, rng_);
  feature_proj_ = std::make_unique<nn::Linear>(node_features_.cols(),
                                               config_.hidden_dim, rng_);
}

Status GmiModel::Train() {
  const auto& network = *features_->data->network;
  std::vector<nn::Var> params = gcn_weight_->Parameters();
  auto fp = feature_proj_->Parameters();
  params.insert(params.end(), fp.begin(), fp.end());
  nn::Adam opt(params, config_.lr);

  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    nn::Var x = nn::Var::Leaf(node_features_);
    nn::Var h = nn::Tanh(
        gcn_weight_->Forward(nn::MatMul(nn::Var::Leaf(adjacency_), x)));
    nn::Var fx = feature_proj_->Forward(x);

    // Positive pairs: graph edges (h_u, fx_v). Negatives: random pairs.
    std::vector<nn::Var> losses;
    const int sample_edges = 64;
    for (int s = 0; s < sample_edges; ++s) {
      const int eid = static_cast<int>(
          rng_.UniformInt(static_cast<uint64_t>(network.num_edges())));
      const auto& e = network.edge(eid);
      nn::Var pos = nn::Dot(nn::SliceRow(h, e.from), nn::SliceRow(fx, e.to));
      losses.push_back(nn::Softplus(nn::Scale(pos, -1.0f)));
      for (int k = 0; k < config_.negatives_per_edge; ++k) {
        const int v = static_cast<int>(
            rng_.UniformInt(static_cast<uint64_t>(network.num_nodes())));
        nn::Var neg = nn::Dot(nn::SliceRow(h, e.from), nn::SliceRow(fx, v));
        losses.push_back(nn::Softplus(neg));
      }
    }
    nn::Var loss = nn::Mean(nn::ConcatCols(losses));
    opt.ZeroGrad();
    loss.Backward();
    opt.ClipGradNorm(5.0f);
    opt.Step();
  }

  nn::NoGradGuard no_grad;
  nn::Var h = nn::Tanh(gcn_weight_->Forward(
      nn::MatMul(nn::Var::Leaf(adjacency_), nn::Var::Leaf(node_features_))));
  node_embeddings_ = h.value();
  return Status::OK();
}

std::vector<float> GmiModel::Encode(
    const synth::TemporalPathSample& sample) const {
  const auto& network = *features_->data->network;
  const int d = node_embeddings_.cols();
  std::vector<float> rep(2 * d, 0.0f);
  for (int eid : sample.path) {
    const auto& e = network.edge(eid);
    for (int i = 0; i < d; ++i) {
      rep[i] += node_embeddings_.at(e.from, i);
      rep[d + i] += node_embeddings_.at(e.to, i);
    }
  }
  const float inv = 1.0f / static_cast<float>(sample.path.size());
  for (auto& v : rep) v *= inv;
  return rep;
}

}  // namespace tpr::baselines
