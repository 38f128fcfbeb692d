#include "baselines/infograph.h"

#include <numeric>

#include "baselines/common.h"
#include "nn/optimizer.h"
#include "par/thread_pool.h"

namespace tpr::baselines {

InfoGraphModel::InfoGraphModel(
    std::shared_ptr<const core::FeatureSpace> features, Config config)
    : features_(std::move(features)), config_(config), rng_(config.seed) {
  Rng init_rng(config.seed);
  const int in = EdgeFeatureDim(*features_);
  local_encoder_ = std::make_unique<nn::Mlp>(
      std::vector<int>{in, config_.hidden_dim, config_.hidden_dim}, init_rng);
  global_proj_ = std::make_unique<nn::Linear>(config_.hidden_dim,
                                              config_.hidden_dim, init_rng);
}

nn::Var InfoGraphModel::LocalReps(const graph::Path& path) const {
  const int dim = EdgeFeatureDim(*features_);
  nn::Tensor x(static_cast<int>(path.size()), dim);
  for (size_t i = 0; i < path.size(); ++i) {
    const auto f = EdgeFeatureVector(*features_, path[i]);
    std::copy(f.begin(), f.end(), x.data() + i * dim);
  }
  return local_encoder_->Forward(nn::Var::Leaf(std::move(x)));
}

Status InfoGraphModel::Train() {
  const auto& pool = features_->data->unlabeled;
  if (pool.empty()) return Status::InvalidArgument("empty unlabeled pool");

  std::vector<nn::Var> params = local_encoder_->Parameters();
  auto gp = global_proj_->Parameters();
  params.insert(params.end(), gp.begin(), gp.end());
  nn::Adam opt(params, config_.lr);

  std::vector<int> order(pool.size());
  std::iota(order.begin(), order.end(), 0);
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    rng_.Shuffle(order);
    for (size_t start = 0; start < order.size();
         start += config_.batch_paths) {
      const size_t end =
          std::min(order.size(), start + config_.batch_paths);
      if (end - start < 2) break;

      // The per-path forward passes are independent (shared parameters
      // are only read), so they fill fixed slots in parallel; the
      // rng-coupled loss below stays sequential, keeping the result
      // bitwise identical to the serial version.
      const int b = static_cast<int>(end - start);
      std::vector<nn::Var> locals(b), globals(b);
      par::DefaultPool().ParallelFor(b, [&](int i) {
        nn::Var l = LocalReps(pool[order[start + i]].path);
        locals[i] = l;
        globals[i] = global_proj_->Forward(nn::RowMean(l));
      });

      // JSD MI estimator: positives (local_i of p, global of p), negatives
      // (local_i of p, global of q != p), subsampled per path.
      std::vector<nn::Var> losses;
      for (int p = 0; p < b; ++p) {
        const int rows = locals[p].rows();
        for (int s = 0; s < config_.locals_per_path; ++s) {
          const int r = static_cast<int>(
              rng_.UniformInt(static_cast<uint64_t>(rows)));
          nn::Var local = nn::SliceRow(locals[p], r);
          losses.push_back(nn::Softplus(
              nn::Scale(nn::Dot(local, globals[p]), -1.0f)));
          int q = static_cast<int>(rng_.UniformInt(static_cast<uint64_t>(b)));
          if (q == p) q = (q + 1) % b;
          losses.push_back(nn::Softplus(nn::Dot(local, globals[q])));
        }
      }
      nn::Var loss = nn::Mean(nn::ConcatCols(losses));
      opt.ZeroGrad();
      loss.Backward();
      opt.ClipGradNorm(5.0f);
      opt.Step();
    }
  }
  return Status::OK();
}

std::vector<float> InfoGraphModel::Encode(
    const synth::TemporalPathSample& sample) const {
  nn::NoGradGuard no_grad;
  nn::Var g = global_proj_->Forward(nn::RowMean(LocalReps(sample.path)));
  return std::vector<float>(g.value().data(),
                            g.value().data() + g.value().size());
}

}  // namespace tpr::baselines
