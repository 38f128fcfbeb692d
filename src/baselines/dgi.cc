#include "baselines/dgi.h"

#include <numeric>

#include "baselines/common.h"
#include "nn/optimizer.h"

namespace tpr::baselines {
namespace {

nn::Tensor BuildNodeFeatures(const core::FeatureSpace& features) {
  const auto& network = *features.data->network;
  const int d = features.config.road_embedding_dim;
  nn::Tensor x(network.num_nodes(), d + 1);
  for (int v = 0; v < network.num_nodes(); ++v) {
    const auto& emb = features.road_embeddings[v];
    float* row = x.data() + static_cast<size_t>(v) * (d + 1);
    std::copy(emb.begin(), emb.end(), row);
    row[d] = static_cast<float>(network.OutEdges(v).size()) / 8.0f;
  }
  return x;
}

}  // namespace

DgiModel::DgiModel(std::shared_ptr<const core::FeatureSpace> features,
                   Config config)
    : features_(std::move(features)), config_(config), rng_(config.seed) {
  adjacency_ = NodeGraphAdjacency(*features_->data->network);
  node_features_ = BuildNodeFeatures(*features_);
  gcn_weight_ = std::make_unique<nn::Linear>(node_features_.cols(),
                                             config_.hidden_dim, rng_);
  discriminator_ =
      std::make_unique<nn::Linear>(config_.hidden_dim, config_.hidden_dim,
                                   rng_, /*bias=*/false);
}

nn::Var DgiModel::EncodeNodes(const nn::Var& x) const {
  nn::Var a = nn::Var::Leaf(adjacency_);
  return nn::Tanh(gcn_weight_->Forward(nn::MatMul(a, x)));
}

Status DgiModel::Train() {
  std::vector<nn::Var> params = gcn_weight_->Parameters();
  auto dp = discriminator_->Parameters();
  params.insert(params.end(), dp.begin(), dp.end());
  nn::Adam opt(params, config_.lr);

  const int n = node_features_.rows();
  std::vector<int> perm(n);
  std::iota(perm.begin(), perm.end(), 0);

  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    // Corruption: row-shuffled node features.
    rng_.Shuffle(perm);
    nn::Tensor corrupted(n, node_features_.cols());
    for (int v = 0; v < n; ++v) {
      std::copy(node_features_.data() +
                    static_cast<size_t>(perm[v]) * node_features_.cols(),
                node_features_.data() +
                    static_cast<size_t>(perm[v] + 1) * node_features_.cols(),
                corrupted.data() + static_cast<size_t>(v) * node_features_.cols());
    }

    nn::Var h_real = EncodeNodes(nn::Var::Leaf(node_features_));
    nn::Var h_fake = EncodeNodes(nn::Var::Leaf(std::move(corrupted)));
    nn::Var summary = nn::Sigmoid(nn::RowMean(h_real));

    // Bilinear discriminator: score_i = h_i . (W s).
    nn::Var ws = discriminator_->Forward(summary);        // 1 x d
    auto scores = [&](const nn::Var& h) {
      // (n x d) * (d x 1) -> n x 1 via matmul with ws transposed; emulate
      // with elementwise mul + row sums: sum(h * ws_broadcast, cols).
      nn::Var prod = nn::Mul(h, nn::ConcatRows(
          std::vector<nn::Var>(static_cast<size_t>(h.rows()), ws)));
      // Row sums: mean * cols.
      return prod;
    };
    // loss = mean(softplus(-score_real)) + mean(softplus(score_fake))
    nn::Var real_prod = scores(h_real);
    nn::Var fake_prod = scores(h_fake);
    // Row-sum via matmul with a ones column vector.
    nn::Var ones = nn::Var::Leaf(nn::Tensor(config_.hidden_dim, 1, 1.0f));
    nn::Var real_scores = nn::MatMul(real_prod, ones);  // n x 1
    nn::Var fake_scores = nn::MatMul(fake_prod, ones);
    nn::Var loss = nn::Add(nn::Mean(nn::Softplus(nn::Scale(real_scores, -1.0f))),
                           nn::Mean(nn::Softplus(fake_scores)));

    opt.ZeroGrad();
    loss.Backward();
    opt.ClipGradNorm(5.0f);
    opt.Step();
  }

  // Freeze the node embeddings.
  nn::NoGradGuard no_grad;
  nn::Var h = EncodeNodes(nn::Var::Leaf(node_features_));
  node_embeddings_ = h.value();
  return Status::OK();
}

std::vector<float> DgiModel::Encode(
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
