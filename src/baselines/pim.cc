#include "baselines/pim.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "baselines/common.h"
#include "nn/optimizer.h"
#include "par/thread_pool.h"

namespace tpr::baselines {

PimModel::PimModel(std::shared_ptr<const core::FeatureSpace> features,
                   Config config)
    : features_(std::move(features)), config_(config), rng_(config.seed) {
  Rng init_rng(config.seed);
  lstm_ = std::make_unique<nn::Lstm>(EdgeFeatureDim(*features_),
                                     config_.hidden_dim, 1, init_rng);
}

nn::Var PimModel::LocalReps(const graph::Path& path) const {
  const int dim = EdgeFeatureDim(*features_);
  nn::Tensor x(static_cast<int>(path.size()), dim);
  for (size_t i = 0; i < path.size(); ++i) {
    const auto f = EdgeFeatureVector(*features_, path[i]);
    std::copy(f.begin(), f.end(), x.data() + i * dim);
  }
  return lstm_->Forward(nn::Var::Leaf(std::move(x)));
}

Status PimModel::Train() {
  const auto& pool = features_->data->unlabeled;
  if (pool.size() < 4) return Status::InvalidArgument("pool too small");
  nn::Adam opt(lstm_->Parameters(), config_.lr);

  std::vector<int> order(pool.size());
  std::iota(order.begin(), order.end(), 0);

  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    // Curriculum negative sampling: early epochs draw negatives from the
    // paths most dissimilar in length (easy); later epochs restrict to
    // increasingly similar-length paths (hard).
    const double hardness =
        static_cast<double>(epoch) / std::max(1, config_.epochs - 1);
    rng_.Shuffle(order);
    for (int idx : order) {
      const auto& anchor_path = pool[idx].path;
      if (anchor_path.size() < 3) continue;

      // Positive view: random edge dropout of the same path.
      graph::Path view;
      for (int e : anchor_path) {
        if (!rng_.Bernoulli(config_.edge_dropout)) view.push_back(e);
      }
      if (view.size() < 2) view = anchor_path;

      // Negatives sorted by length dissimilarity; select from the easy or
      // hard end according to training progress.
      std::vector<std::pair<double, int>> by_dissimilarity;
      for (int k = 0; k < config_.negatives * 4; ++k) {
        const int j = static_cast<int>(rng_.UniformInt(pool.size()));
        if (j == idx) continue;
        const double d = std::fabs(static_cast<double>(pool[j].path.size()) -
                                   static_cast<double>(anchor_path.size()));
        by_dissimilarity.emplace_back(d, j);
      }
      std::sort(by_dissimilarity.begin(), by_dissimilarity.end());
      // hardness 0 -> take the tail (most dissimilar); 1 -> take the head.
      std::vector<int> negatives;
      const int available = static_cast<int>(by_dissimilarity.size());
      const int take = std::min(config_.negatives, available);
      const int offset = static_cast<int>(
          (1.0 - hardness) * (available - take));
      for (int k = 0; k < take; ++k) {
        negatives.push_back(by_dissimilarity[offset + k].second);
      }
      if (negatives.empty()) continue;

      // All rng draws for this anchor (besides the JSD row below) are
      // done; the forward passes only read shared parameters, so they
      // run in parallel into fixed slots without changing the result.
      const int num_neg = static_cast<int>(negatives.size());
      nn::Var anchor_locals, positive_locals;
      std::vector<nn::Var> neg_globals(num_neg);
      par::DefaultPool().ParallelFor(num_neg + 2, [&](int t) {
        if (t == 0) {
          anchor_locals = LocalReps(anchor_path);
        } else if (t == 1) {
          positive_locals = LocalReps(view);
        } else {
          neg_globals[t - 2] =
              nn::RowMean(LocalReps(pool[negatives[t - 2]].path));
        }
      });
      nn::Var anchor = nn::RowMean(anchor_locals);
      nn::Var positive = nn::RowMean(positive_locals);

      // Global InfoNCE with the single positive.
      const float inv_tau = 1.0f / config_.temperature;
      nn::Var pos_sim = nn::Scale(nn::CosineSim(anchor, positive), inv_tau);
      std::vector<nn::Var> sims = {pos_sim};
      for (const nn::Var& g : neg_globals) {
        sims.push_back(nn::Scale(nn::CosineSim(anchor, g), inv_tau));
      }
      nn::Var global_loss =
          nn::Sub(nn::LogSumExp(nn::ConcatCols(sims)), pos_sim);

      // Local JSD term: anchor global vs its own edges (positive) and one
      // edge of each negative path.
      std::vector<nn::Var> local_losses;
      const int r = static_cast<int>(
          rng_.UniformInt(static_cast<uint64_t>(anchor_locals.rows())));
      local_losses.push_back(nn::Softplus(nn::Scale(
          nn::Dot(anchor, nn::SliceRow(anchor_locals, r)), -1.0f)));
      for (const nn::Var& g : neg_globals) {
        local_losses.push_back(nn::Softplus(nn::Dot(anchor, g)));
      }
      nn::Var loss =
          nn::Add(global_loss, nn::Mean(nn::ConcatCols(local_losses)));

      opt.ZeroGrad();
      loss.Backward();
      opt.ClipGradNorm(5.0f);
      opt.Step();
    }
  }
  return Status::OK();
}

std::vector<float> PimModel::Encode(
    const synth::TemporalPathSample& sample) const {
  nn::NoGradGuard no_grad;
  nn::Var rep = nn::RowMean(LocalReps(sample.path));
  return std::vector<float>(rep.value().data(),
                            rep.value().data() + rep.value().size());
}

std::vector<float> PimTemporalModel::Encode(
    const synth::TemporalPathSample& sample) const {
  std::vector<float> rep = PimModel::Encode(sample);
  const int t_node = features_->TemporalNodeFor(sample.depart_time_s);
  const auto& t_vec = features_->temporal_embeddings[t_node];
  rep.insert(rep.end(), t_vec.begin(), t_vec.end());
  return rep;
}

}  // namespace tpr::baselines
