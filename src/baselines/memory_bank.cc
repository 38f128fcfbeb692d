#include "baselines/memory_bank.h"

#include <numeric>

#include "baselines/common.h"
#include "nn/optimizer.h"

namespace tpr::baselines {

MemoryBankModel::MemoryBankModel(
    std::shared_ptr<const core::FeatureSpace> features, Config config)
    : features_(std::move(features)), config_(config), rng_(config.seed) {
  Rng init_rng(config.seed);
  lstm_ = std::make_unique<nn::Lstm>(EdgeFeatureDim(*features_),
                                     config_.hidden_dim, 1, init_rng);
}

nn::Var MemoryBankModel::EncodePath(const graph::Path& path) const {
  const int dim = EdgeFeatureDim(*features_);
  nn::Tensor x(static_cast<int>(path.size()), dim);
  for (size_t i = 0; i < path.size(); ++i) {
    const auto f = EdgeFeatureVector(*features_, path[i]);
    std::copy(f.begin(), f.end(), x.data() + i * dim);
  }
  return nn::RowMean(lstm_->Forward(nn::Var::Leaf(std::move(x))));
}

Status MemoryBankModel::Train() {
  const auto& pool = features_->data->unlabeled;
  if (pool.empty()) return Status::InvalidArgument("empty unlabeled pool");
  nn::Adam opt(lstm_->Parameters(), config_.lr);

  // Initialise the bank with the untrained encoder's outputs.
  bank_.resize(pool.size());
  {
    nn::NoGradGuard no_grad;
    for (size_t i = 0; i < pool.size(); ++i) {
      nn::Var rep = EncodePath(pool[i].path);
      bank_[i].assign(rep.value().data(),
                      rep.value().data() + rep.value().size());
    }
  }

  std::vector<int> order(pool.size());
  std::iota(order.begin(), order.end(), 0);
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    rng_.Shuffle(order);
    for (int idx : order) {
      nn::Var query = EncodePath(pool[idx].path);
      nn::Var pos = nn::Scale(
          nn::CosineSim(query,
                        nn::Var::Leaf(nn::Tensor::RowVector(bank_[idx]))),
          1.0f / config_.temperature);
      std::vector<nn::Var> all_sims = {pos};
      for (int k = 0; k < config_.negatives; ++k) {
        const int j = static_cast<int>(rng_.UniformInt(pool.size()));
        if (j == idx) continue;
        all_sims.push_back(nn::Scale(
            nn::CosineSim(query,
                          nn::Var::Leaf(nn::Tensor::RowVector(bank_[j]))),
            1.0f / config_.temperature));
      }
      // InfoNCE: -log softmax(pos | all).
      nn::Var loss = nn::Sub(nn::LogSumExp(nn::ConcatCols(all_sims)), pos);
      opt.ZeroGrad();
      loss.Backward();
      opt.ClipGradNorm(5.0f);
      opt.Step();

      // Momentum bank update.
      {
        nn::NoGradGuard no_grad;
        nn::Var fresh = EncodePath(pool[idx].path);
        for (size_t d = 0; d < bank_[idx].size(); ++d) {
          bank_[idx][d] = config_.momentum * bank_[idx][d] +
                          (1.0f - config_.momentum) * fresh.value()[d];
        }
      }
    }
  }
  return Status::OK();
}

std::vector<float> MemoryBankModel::Encode(
    const synth::TemporalPathSample& sample) const {
  nn::NoGradGuard no_grad;
  nn::Var rep = EncodePath(sample.path);
  return std::vector<float>(rep.value().data(),
                            rep.value().data() + rep.value().size());
}

}  // namespace tpr::baselines
