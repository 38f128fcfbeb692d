#include "baselines/bert_path.h"

#include <numeric>

#include "nn/optimizer.h"

namespace tpr::baselines {

BertPathModel::BertPathModel(
    std::shared_ptr<const core::FeatureSpace> features, Config config)
    : features_(std::move(features)), config_(config), rng_(config.seed) {
  const int num_edges = features_->data->network->num_edges();
  mask_token_ = num_edges;
  Rng init_rng(config.seed);
  token_emb_ = std::make_unique<nn::Embedding>(num_edges + 1,
                                               config_.embed_dim, init_rng);
  output_emb_ = std::make_unique<nn::Embedding>(num_edges, config_.embed_dim,
                                                init_rng);
  gru_ = std::make_unique<nn::GruLayer>(config_.embed_dim,
                                        config_.hidden_dim, init_rng);
  out_proj_ = std::make_unique<nn::Linear>(config_.hidden_dim,
                                           config_.embed_dim, init_rng);
}

nn::Var BertPathModel::HiddenStates(const graph::Path& path,
                                    const std::vector<bool>& masked) const {
  std::vector<int> tokens(path.size());
  for (size_t i = 0; i < path.size(); ++i) {
    tokens[i] = (i < masked.size() && masked[i]) ? mask_token_
                                                 : path[i];
  }
  return gru_->Forward(token_emb_->Forward(tokens));
}

Status BertPathModel::Train() {
  const auto& pool = features_->data->unlabeled;
  if (pool.empty()) return Status::InvalidArgument("empty unlabeled pool");
  const int num_edges = features_->data->network->num_edges();

  std::vector<nn::Var> params = token_emb_->Parameters();
  for (const auto* m : {static_cast<const nn::Module*>(output_emb_.get()),
                        static_cast<const nn::Module*>(gru_.get()),
                        static_cast<const nn::Module*>(out_proj_.get())}) {
    auto p = m->Parameters();
    params.insert(params.end(), p.begin(), p.end());
  }
  nn::Adam opt(params, config_.lr);

  std::vector<int> order(pool.size());
  std::iota(order.begin(), order.end(), 0);
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    rng_.Shuffle(order);
    for (int idx : order) {
      const auto& path = pool[idx].path;
      if (path.size() < 3) continue;
      std::vector<bool> masked(path.size(), false);
      int num_masked = 0;
      for (size_t i = 0; i < path.size(); ++i) {
        if (rng_.Bernoulli(config_.mask_fraction)) {
          masked[i] = true;
          ++num_masked;
        }
      }
      if (num_masked == 0) {
        masked[rng_.UniformInt(path.size())] = true;
        num_masked = 1;
      }

      nn::Var h = HiddenStates(path, masked);
      std::vector<nn::Var> losses;
      for (size_t i = 0; i < path.size(); ++i) {
        if (!masked[i]) continue;
        nn::Var h_i =
            out_proj_->Forward(nn::SliceRow(h, static_cast<int>(i)));
        nn::Var pos_emb = output_emb_->Forward({path[i]});
        losses.push_back(
            nn::Softplus(nn::Scale(nn::Dot(h_i, pos_emb), -1.0f)));
        for (int k = 0; k < config_.negatives; ++k) {
          const int neg = static_cast<int>(
              rng_.UniformInt(static_cast<uint64_t>(num_edges)));
          if (neg == path[i]) continue;
          nn::Var neg_emb = output_emb_->Forward({neg});
          losses.push_back(nn::Softplus(nn::Dot(h_i, neg_emb)));
        }
      }
      if (losses.empty()) continue;
      nn::Var loss = nn::Mean(nn::ConcatCols(losses));
      opt.ZeroGrad();
      loss.Backward();
      opt.ClipGradNorm(5.0f);
      opt.Step();
    }
  }
  return Status::OK();
}

std::vector<float> BertPathModel::Encode(
    const synth::TemporalPathSample& sample) const {
  nn::NoGradGuard no_grad;
  nn::Var h = HiddenStates(sample.path, {});
  nn::Var rep = nn::RowMean(h);
  return std::vector<float>(rep.value().data(),
                            rep.value().data() + rep.value().size());
}

}  // namespace tpr::baselines
