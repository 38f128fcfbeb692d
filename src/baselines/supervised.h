#ifndef TPR_BASELINES_SUPERVISED_H_
#define TPR_BASELINES_SUPERVISED_H_

#include <memory>

#include "baselines/baseline.h"
#include "core/encoder.h"
#include "nn/modules.h"

namespace tpr::baselines {

/// Primary task a supervised model is trained on (Table X uses the
/// primary/secondary distinction; Table III trains on the evaluated task).
enum class SupervisedTask {
  kTravelTime,
  kRanking,
};

/// Shared configuration of the supervised baselines.
struct SupervisedConfig {
  core::EncoderConfig encoder;
  SupervisedTask primary = SupervisedTask::kTravelTime;
  int epochs = 6;
  int batch_size = 16;
  float lr = 1e-3f;
  float grad_clip = 5.0f;
  uint64_t seed = 41;
};

/// Base class for the supervised path-representation baselines: a
/// temporal path encoder (shared architecture with WSCCL so pre-trained
/// weights are transplantable, cf. Fig. 7) plus task heads trained on
/// strong labels from the labeled training split.
class SupervisedBase : public PathRepresentationModel {
 public:
  SupervisedBase(std::shared_ptr<const core::FeatureSpace> features,
                 std::vector<int> train_indices, SupervisedConfig config);

  Status Train() override;

  /// The frozen encoder representation (used by downstream probes).
  std::vector<float> Encode(
      const synth::TemporalPathSample& sample) const override;

  /// Prediction of the primary task by the model's own head (Fig. 7
  /// evaluates the supervised model directly, without a probe).
  double PredictPrimary(const synth::TemporalPathSample& sample) const;

  /// Transplants a pre-trained temporal path encoder (Fig. 7).
  Status InitEncoderFrom(const core::TemporalPathEncoder& pretrained);

  /// Replaces the labeled training subset (used by the label-budget sweep).
  void set_train_indices(std::vector<int> indices) {
    train_indices_ = std::move(indices);
  }

  /// Encoder + head parameters: what Train() optimizes.
  std::vector<nn::Var> Parameters() const;

 protected:
  /// Loss of one sample given its encoder TPR; subclasses define heads.
  /// Train() calls it concurrently from every minibatch shard.
  virtual nn::Var SampleLoss(
      const nn::Var& tpr, const synth::TemporalPathSample& sample) const = 0;

  /// Raw head prediction in normalised space.
  virtual double HeadPredict(const nn::Var& tpr) const = 0;

  /// Parameters of the task heads.
  virtual std::vector<nn::Var> HeadParameters() const = 0;

  /// Primary-task raw target of a sample.
  double RawTarget(const synth::TemporalPathSample& sample) const;

  /// Primary-task target of a sample, in normalised space.
  float NormalizedTarget(const synth::TemporalPathSample& sample) const;

  /// Maps a normalised head output back to target units. DeepGTT uses a
  /// scale-only normalisation to keep targets positive.
  virtual double Denormalize(double value) const;

  std::shared_ptr<const core::FeatureSpace> features_;
  std::vector<int> train_indices_;
  SupervisedConfig config_;
  std::unique_ptr<core::TemporalPathEncoder> encoder_;
  Rng rng_;
  // Target normalisation (fit on the training split).
  double target_mean_ = 0.0;
  double target_std_ = 1.0;
};

/// PathRank (Yang et al., TKDE 2020): a supervised recurrent path encoder
/// with departure-time context and a regression head for its primary task.
class PathRankModel : public SupervisedBase {
 public:
  PathRankModel(std::shared_ptr<const core::FeatureSpace> features,
                std::vector<int> train_indices, SupervisedConfig config);

  std::string name() const override { return "PathRank"; }

 protected:
  nn::Var SampleLoss(const nn::Var& tpr,
                     const synth::TemporalPathSample& sample) const override;
  double HeadPredict(const nn::Var& tpr) const override;
  std::vector<nn::Var> HeadParameters() const override;

 private:
  std::unique_ptr<nn::Mlp> head_;
};

/// HMTRL (Liu et al., VLDB 2020): multi-task route representation
/// learning — the encoder is trained jointly on travel time and ranking
/// heads; the primary task decides which head PredictPrimary uses.
class HmtrlModel : public SupervisedBase {
 public:
  HmtrlModel(std::shared_ptr<const core::FeatureSpace> features,
             std::vector<int> train_indices, SupervisedConfig config);

  std::string name() const override { return "HMTRL"; }

 protected:
  nn::Var SampleLoss(const nn::Var& tpr,
                     const synth::TemporalPathSample& sample) const override;
  double HeadPredict(const nn::Var& tpr) const override;
  std::vector<nn::Var> HeadParameters() const override;

 private:
  std::unique_ptr<nn::Mlp> time_head_;
  std::unique_ptr<nn::Mlp> rank_head_;
};

/// DeepGTT (Li et al., WWW 2019): deep generative travel-time model — the
/// head outputs the (mu, lambda) parameters of an inverse-Gaussian
/// distribution trained by maximum likelihood on the primary target.
class DeepGttModel : public SupervisedBase {
 public:
  DeepGttModel(std::shared_ptr<const core::FeatureSpace> features,
               std::vector<int> train_indices, SupervisedConfig config);

  std::string name() const override { return "DeepGTT"; }

 protected:
  nn::Var SampleLoss(const nn::Var& tpr,
                     const synth::TemporalPathSample& sample) const override;
  double HeadPredict(const nn::Var& tpr) const override;
  double Denormalize(double value) const override;
  std::vector<nn::Var> HeadParameters() const override;

 private:
  std::unique_ptr<nn::Mlp> mu_head_;
  std::unique_ptr<nn::Mlp> lambda_head_;
};

}  // namespace tpr::baselines

#endif  // TPR_BASELINES_SUPERVISED_H_
