#include "baselines/supervised.h"

#include <algorithm>
#include <cmath>

#include "nn/grad_accumulator.h"
#include "nn/optimizer.h"
#include "par/thread_pool.h"
#include "util/logging.h"

namespace tpr::baselines {

SupervisedBase::SupervisedBase(
    std::shared_ptr<const core::FeatureSpace> features,
    std::vector<int> train_indices, SupervisedConfig config)
    : features_(std::move(features)),
      train_indices_(std::move(train_indices)),
      config_(config),
      rng_(config.seed) {
  encoder_ = std::make_unique<core::TemporalPathEncoder>(features_,
                                                         config_.encoder);
}

double SupervisedBase::RawTarget(
    const synth::TemporalPathSample& sample) const {
  return config_.primary == SupervisedTask::kTravelTime ? sample.travel_time_s
                                                        : sample.rank_score;
}

float SupervisedBase::NormalizedTarget(
    const synth::TemporalPathSample& sample) const {
  return static_cast<float>((RawTarget(sample) - target_mean_) / target_std_);
}

double SupervisedBase::Denormalize(double value) const {
  return value * target_std_ + target_mean_;
}

Status SupervisedBase::InitEncoderFrom(
    const core::TemporalPathEncoder& pretrained) {
  return encoder_->CopyParamsFrom(pretrained);
}

std::vector<nn::Var> SupervisedBase::Parameters() const {
  std::vector<nn::Var> params = encoder_->Parameters();
  for (const auto& p : HeadParameters()) params.push_back(p);
  return params;
}

Status SupervisedBase::Train() {
  if (train_indices_.empty()) {
    return Status::InvalidArgument("no supervised training samples");
  }
  const auto& labeled = features_->data->labeled;

  // Fit the target normalisation on the training split.
  double sum = 0, sum2 = 0;
  for (int i : train_indices_) {
    const double t = RawTarget(labeled[i]);
    sum += t;
    sum2 += t * t;
  }
  target_mean_ = sum / train_indices_.size();
  target_std_ = std::sqrt(
      std::max(1e-6, sum2 / train_indices_.size() - target_mean_ * target_mean_));

  const std::vector<nn::Var> params = Parameters();
  nn::Adam opt(params, config_.lr);
  nn::GradAccumulator accumulator(params);

  // Every shard builds its own graph over the shared model. Sharding a
  // batch into per-shard Sum losses reduced with 1/items reproduces the
  // old Mean-loss gradient exactly, in fixed shard order, so training is
  // bitwise identical for any thread count.
  par::ThreadPool& tp = par::DefaultPool();

  std::vector<int> order = train_indices_;
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    rng_.Shuffle(order);
    for (size_t start = 0; start < order.size(); start += config_.batch_size) {
      const size_t end =
          std::min(order.size(), start + config_.batch_size);
      const int items = static_cast<int>(end - start);
      if (items == 0) continue;
      const int num_shards = std::min(4, items);
      accumulator.BeginBatch(num_shards);

      tp.ParallelFor(num_shards, [&](int s) {
        const size_t lo = start + static_cast<size_t>(items) * s / num_shards;
        const size_t hi =
            start + static_cast<size_t>(items) * (s + 1) / num_shards;
        std::vector<nn::Var> losses;
        losses.reserve(hi - lo);
        for (size_t i = lo; i < hi; ++i) {
          const auto& sample = labeled[order[i]];
          const auto encoded =
              encoder_->Encode(sample.path, sample.depart_time_s);
          losses.push_back(SampleLoss(encoded.tpr, sample));
        }
        accumulator.Backward(s, nn::Sum(nn::ConcatCols(losses)));
      });

      accumulator.Reduce(1.0f / static_cast<float>(items));
      opt.ClipGradNorm(config_.grad_clip);
      opt.Step();
    }
  }
  return Status::OK();
}

std::vector<float> SupervisedBase::Encode(
    const synth::TemporalPathSample& sample) const {
  return encoder_->EncodeValue(sample.path, sample.depart_time_s);
}

double SupervisedBase::PredictPrimary(
    const synth::TemporalPathSample& sample) const {
  nn::NoGradGuard no_grad;
  const auto encoded = encoder_->Encode(sample.path, sample.depart_time_s);
  return Denormalize(HeadPredict(encoded.tpr));
}

// ---------------------------------------------------------------------------
// PathRank
// ---------------------------------------------------------------------------

PathRankModel::PathRankModel(
    std::shared_ptr<const core::FeatureSpace> features,
    std::vector<int> train_indices, SupervisedConfig config)
    : SupervisedBase(std::move(features), std::move(train_indices), config) {
  Rng head_rng(config.seed + 1);
  head_ = std::make_unique<nn::Mlp>(
      std::vector<int>{config.encoder.d_hidden, config.encoder.d_hidden, 1},
      head_rng);
}

nn::Var PathRankModel::SampleLoss(
    const nn::Var& tpr, const synth::TemporalPathSample& sample) const {
  nn::Var pred = head_->Forward(tpr);
  return nn::MseLoss(pred,
                     nn::Tensor::RowVector({NormalizedTarget(sample)}));
}

double PathRankModel::HeadPredict(const nn::Var& tpr) const {
  return head_->Forward(tpr).scalar();
}

std::vector<nn::Var> PathRankModel::HeadParameters() const {
  return head_->Parameters();
}

// ---------------------------------------------------------------------------
// HMTRL
// ---------------------------------------------------------------------------

HmtrlModel::HmtrlModel(std::shared_ptr<const core::FeatureSpace> features,
                       std::vector<int> train_indices,
                       SupervisedConfig config)
    : SupervisedBase(std::move(features), std::move(train_indices), config) {
  Rng head_rng(config.seed + 2);
  time_head_ = std::make_unique<nn::Mlp>(
      std::vector<int>{config.encoder.d_hidden, config.encoder.d_hidden, 1},
      head_rng);
  rank_head_ = std::make_unique<nn::Mlp>(
      std::vector<int>{config.encoder.d_hidden, config.encoder.d_hidden, 1},
      head_rng);
}

nn::Var HmtrlModel::SampleLoss(
    const nn::Var& tpr, const synth::TemporalPathSample& sample) const {
  // Multi-task: the primary task in normalised space plus the auxiliary
  // ranking/time signal (ranking scores are already O(1)).
  const bool time_primary = config_.primary == SupervisedTask::kTravelTime;
  const float time_target =
      time_primary ? NormalizedTarget(sample)
                   : static_cast<float>((sample.travel_time_s - target_mean_) /
                                        target_std_);
  const float rank_target = static_cast<float>(sample.rank_score);

  nn::Var time_loss = nn::MseLoss(time_head_->Forward(tpr),
                                  nn::Tensor::RowVector({time_target}));
  nn::Var rank_loss = nn::MseLoss(rank_head_->Forward(tpr),
                                  nn::Tensor::RowVector({rank_target}));
  // When ranking is primary, the time target's normalisation constants
  // were fit on ranking scores, so damp the auxiliary term.
  const float aux_weight = 0.3f;
  if (time_primary) {
    return nn::Add(time_loss, nn::Scale(rank_loss, aux_weight));
  }
  return nn::Add(rank_loss, nn::Scale(time_loss, aux_weight * 0.01f));
}

double HmtrlModel::HeadPredict(const nn::Var& tpr) const {
  if (config_.primary == SupervisedTask::kTravelTime) {
    return time_head_->Forward(tpr).scalar();
  }
  // Rank head predicts in raw [0,1] space; invert the base
  // denormalisation so PredictPrimary returns the raw value.
  const double raw = rank_head_->Forward(tpr).scalar();
  return (raw - target_mean_) / target_std_;
}

std::vector<nn::Var> HmtrlModel::HeadParameters() const {
  auto p = time_head_->Parameters();
  auto r = rank_head_->Parameters();
  p.insert(p.end(), r.begin(), r.end());
  return p;
}

// ---------------------------------------------------------------------------
// DeepGTT
// ---------------------------------------------------------------------------

DeepGttModel::DeepGttModel(std::shared_ptr<const core::FeatureSpace> features,
                           std::vector<int> train_indices,
                           SupervisedConfig config)
    : SupervisedBase(std::move(features), std::move(train_indices), config) {
  Rng head_rng(config.seed + 3);
  mu_head_ = std::make_unique<nn::Mlp>(
      std::vector<int>{config.encoder.d_hidden, config.encoder.d_hidden, 1},
      head_rng);
  lambda_head_ = std::make_unique<nn::Mlp>(
      std::vector<int>{config.encoder.d_hidden, config.encoder.d_hidden, 1},
      head_rng);
}

nn::Var DeepGttModel::SampleLoss(
    const nn::Var& tpr, const synth::TemporalPathSample& sample) const {
  // Inverse-Gaussian negative log-likelihood of the scale-normalised
  // target x (positive by construction):
  //   -ll = -0.5 log(lambda) + lambda (x - mu)^2 / (2 mu^2 x) + const.
  const float x = static_cast<float>(
      std::max(1e-3, RawTarget(sample) / std::max(1e-9, target_mean_)));
  nn::Var mu = nn::AddScalar(nn::Softplus(mu_head_->Forward(tpr)), 1e-3f);
  nn::Var lambda =
      nn::AddScalar(nn::Softplus(lambda_head_->Forward(tpr)), 1e-3f);
  nn::Var diff = nn::AddScalar(nn::Scale(mu, -1.0f), x);  // x - mu
  nn::Var penalty = nn::Div(nn::Mul(lambda, nn::Mul(diff, diff)),
                            nn::Scale(nn::Mul(mu, mu), 2.0f * x));
  return nn::Sub(penalty, nn::Scale(nn::Log(lambda), 0.5f));
}

double DeepGttModel::HeadPredict(const nn::Var& tpr) const {
  // The IG mean is mu (in x-normalised units).
  nn::Var mu = nn::AddScalar(nn::Softplus(mu_head_->Forward(tpr)), 1e-3f);
  return mu.scalar();
}

double DeepGttModel::Denormalize(double value) const {
  return value * target_mean_;  // scale-only normalisation
}

std::vector<nn::Var> DeepGttModel::HeadParameters() const {
  auto p = mu_head_->Parameters();
  auto l = lambda_head_->Parameters();
  p.insert(p.end(), l.begin(), l.end());
  return p;
}

}  // namespace tpr::baselines
