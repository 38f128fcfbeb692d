#ifndef TPR_CORE_WSC_TRAINER_H_
#define TPR_CORE_WSC_TRAINER_H_

#include <memory>
#include <vector>

#include "ckpt/serialize.h"
#include "core/encoder.h"
#include "core/wsc_loss.h"
#include "nn/grad_accumulator.h"
#include "nn/optimizer.h"
#include "synth/weak_labels.h"

namespace tpr::core {

/// Configuration of the basic weakly-supervised contrastive model (WSC).
struct WscConfig {
  EncoderConfig encoder;
  WscLossConfig loss;

  /// Balance between global and local WSC loss (Eq. 12). Paper: 0.8.
  float lambda = 0.8f;

  /// Anchors per minibatch; each anchor gets one generated positive
  /// partner, so the effective batch holds 2x this many temporal paths.
  int anchors_per_batch = 12;

  float lr = 3e-4f;  // paper Section VII-A-6
  float grad_clip = 5.0f;

  synth::WeakLabelScheme weak_labels = synth::WeakLabelScheme::kPeakOffPeak;

  /// Ablation switches (Table VI).
  bool use_global = true;
  bool use_local = true;

  /// Data-parallel shards per minibatch. Each shard is a contiguous
  /// group of anchors (plus their generated positives) whose contrastive
  /// loss and backward pass run as an independent autograd graph; shard
  /// gradients are reduced in shard order before the single Adam step.
  /// The shard structure is a pure function of the batch — never of the
  /// thread count — so training is bitwise identical for any TPR_THREADS
  /// value. Clamped so every shard keeps at least 2 anchors.
  int grad_shards = 4;

  /// Training watchdog. A batch is "bad" when its loss is non-finite or
  /// its pre-clip gradient norm exceeds watchdog_max_grad_norm; bad
  /// batches are skipped (no optimizer step, counted in
  /// wsc.watchdog_skipped) so one poisoned batch cannot NaN every
  /// parameter. After watchdog_max_consecutive_bad consecutive bad
  /// batches the epoch aborts with DataLoss — the signal
  /// WsccalPipeline::Train uses to roll back to the last checkpoint
  /// generation. watchdog_max_consecutive_bad = 0 disables the watchdog.
  float watchdog_max_grad_norm = 1e6f;
  int watchdog_max_consecutive_bad = 8;

  uint64_t seed = 7;
};

/// Samples a departure time whose weak label equals `label` (rejection
/// sampling against the scheme; returns `fallback` after too many tries).
int64_t SampleDepartureWithLabel(synth::WeakLabelScheme scheme, int label,
                                 const synth::TrafficModel& traffic,
                                 int64_t fallback, Rng& rng);

/// The WSC base model: a temporal path encoder trained with the global and
/// local weakly-supervised contrastive losses on the unlabeled pool.
class WscModel {
 public:
  WscModel(std::shared_ptr<const FeatureSpace> features, WscConfig config);

  /// Trains one epoch over the given indices into the unlabeled pool.
  /// Returns the mean batch loss.
  StatusOr<double> TrainEpoch(const std::vector<int>& indices);

  /// Weak label of an unlabeled-pool sample under this model's scheme.
  int WeakLabelOf(const synth::TemporalPathSample& sample) const;

  /// Frozen TPR for any temporal path (inference).
  std::vector<float> Encode(const graph::Path& path,
                            int64_t depart_time_s) const {
    return encoder_->EncodeValue(path, depart_time_s);
  }

  /// Bad-batch streak the watchdog is currently tracking (diagnostics).
  int consecutive_bad_batches() const { return consecutive_bad_; }

  const TemporalPathEncoder& encoder() const { return *encoder_; }
  TemporalPathEncoder* mutable_encoder() { return encoder_.get(); }
  const WscConfig& config() const { return config_; }
  const FeatureSpace& features() const { return *features_; }

  /// Serializes the complete trainer state — encoder parameters, Adam
  /// moments, the minibatch counter that seeds per-shard RNG streams,
  /// and the epoch-shuffle RNG — so a restored model continues training
  /// bit-exactly where the original stopped.
  Status SaveState(ckpt::Writer& w) const;

  /// Restores state written by SaveState into this model. The model
  /// must have been built with an architecture-identical config
  /// (parameter count and shapes are verified).
  Status LoadState(ckpt::Reader& r);

 private:
  std::shared_ptr<const FeatureSpace> features_;
  WscConfig config_;
  std::unique_ptr<TemporalPathEncoder> encoder_;
  std::unique_ptr<nn::Adam> optimizer_;
  std::unique_ptr<nn::GradAccumulator> accumulator_;
  uint64_t step_ = 0;  // minibatch counter, seeds per-shard RNG streams
  int consecutive_bad_ = 0;  // watchdog streak; transient, not checkpointed
  Rng rng_;
};

}  // namespace tpr::core

#endif  // TPR_CORE_WSC_TRAINER_H_
