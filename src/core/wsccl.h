#ifndef TPR_CORE_WSCCL_H_
#define TPR_CORE_WSCCL_H_

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ckpt/checkpoint.h"
#include "core/curriculum.h"
#include "core/wsc_trainer.h"

namespace tpr::core {

/// Configuration of the full advanced framework (WSC + curriculum).
struct WsccalConfig {
  WscConfig wsc;
  CurriculumConfig curriculum;

  /// Epochs per curriculum stage ST_1..ST_M (paper: 1).
  int stage_epochs = 1;

  /// Epochs of the final full-data stage ST_{M+1} (paper: to convergence).
  int final_epochs = 4;

  /// Crash-safe checkpointing. When `ckpt_dir` is non-empty, Train()
  /// resumes from the newest valid checkpoint in that directory and
  /// writes a new one every `checkpoint_every_n_epochs` training epochs
  /// (stage and final-stage epochs count equally; 0 writes only the
  /// completion checkpoint). Checkpoints are Serialize() payloads, so a
  /// resumed run reproduces the uninterrupted run bit-exactly.
  std::string ckpt_dir;
  int checkpoint_every_n_epochs = 1;

  /// How many times Train() rolls back to the last valid checkpoint
  /// generation after the training watchdog aborts with DataLoss (see
  /// WscConfig::watchdog_max_consecutive_bad), before giving up and
  /// returning the error. Rollback needs a ckpt_dir with at least one
  /// checkpoint. Not part of the config fingerprint: it changes failure
  /// handling, never the trained result.
  int max_watchdog_rollbacks = 2;

  /// Test/ops hook simulating a kill: when > 0, Train() returns cleanly
  /// after this many total epochs, without any extra state flush beyond
  /// the periodic checkpoint schedule. The returned pipeline is
  /// partially trained; calling Train() again with the same ckpt_dir
  /// resumes from the last checkpoint.
  int stop_after_epochs = 0;
};

/// The staged WSCCL curriculum and the model it trains: curriculum
/// construction, stages ST_1..ST_M easy to hard, then the final
/// full-data stage ST_{M+1}, then the frozen encoder. The pipeline is the
/// one owner of staged-training state — the stages, the schedule cursor
/// and the trainer — whether it trains a model from scratch (Train) or
/// fine-tunes one epoch at a time (drift adaptation).
class WsccalPipeline {
 public:
  /// Trains end to end on the dataset's unlabeled pool: resumes from
  /// `config.ckpt_dir` when it holds a valid checkpoint, else Start()s,
  /// then runs RunEpoch() until the schedule is complete. Resuming a
  /// checkpoint built under another config fingerprint or on another
  /// unlabeled pool is a FailedPrecondition — a checkpoint is never
  /// silently reinterpreted.
  static StatusOr<std::unique_ptr<WsccalPipeline>> Train(
      std::shared_ptr<const FeatureSpace> features,
      const WsccalConfig& config);

  /// A pipeline with no epoch trained yet: the curriculum over the whole
  /// unlabeled pool and a freshly initialised model. Checkpoint and
  /// stop fields of `config` are Train()'s and ignored here.
  static StatusOr<std::unique_ptr<WsccalPipeline>> Start(
      std::shared_ptr<const FeatureSpace> features,
      const WsccalConfig& config);

  /// Trains the next epoch of the schedule and advances the cursor;
  /// the last final-stage epoch completes the pipeline. Returns the
  /// number of samples the epoch trained on. On error the cursor stays
  /// where it was (the model may hold part of the failed epoch); a
  /// completed pipeline has no epoch left and is a FailedPrecondition.
  StatusOr<size_t> RunEpoch();

  /// The pipeline as bytes — config and pool fingerprints, cursor,
  /// stages and the full trainer state — partial or complete. Periodic
  /// checkpoints, the bench model registry and the drift fine-tune
  /// state all hold this payload.
  StatusOr<std::string> Serialize() const;

  /// Reconstructs a pipeline from Serialize() output. The config must
  /// fingerprint-match the one the payload was built under and
  /// `features` must carry the unlabeled pool its stage indices point
  /// into; either mismatch is a FailedPrecondition. A partial payload
  /// comes back partial: RunEpoch() continues it bit-exactly.
  static StatusOr<std::unique_ptr<WsccalPipeline>> Deserialize(
      std::shared_ptr<const FeatureSpace> features,
      const WsccalConfig& config, std::string_view payload);

  /// Hash of every configuration field that affects the trained result
  /// (architecture, seeds, curriculum schedule — not checkpoint paths).
  /// Stored in checkpoints to refuse cross-config resumes.
  static uint64_t ConfigFingerprint(const WsccalConfig& config);

  /// Frozen TPR for a temporal path.
  std::vector<float> Encode(const graph::Path& path,
                            int64_t depart_time_s) const {
    return model_->Encode(path, depart_time_s);
  }

  std::vector<float> Encode(const synth::TemporalPathSample& sample) const {
    return model_->Encode(sample.path, sample.depart_time_s);
  }

  const WscModel& model() const { return *model_; }
  WscModel* mutable_model() { return model_.get(); }

  /// Mean training loss of the last completed epoch (diagnostics; the
  /// last final-stage epoch for a completed run).
  double final_loss() const { return final_loss_; }

  /// True once every epoch of the schedule has run. A run cut short by
  /// stop_after_epochs, or a caller that stops calling RunEpoch() early,
  /// leaves a partial pipeline.
  bool completed() const { return completed_; }

  /// Total training epochs completed so far (stage + final).
  uint64_t epochs_completed() const { return global_epoch_; }

 private:
  WsccalPipeline(const FeatureSpace& features, const WsccalConfig& config);

  /// Serialize()'s payload; building it into memory cannot fail.
  std::string BuildPayload() const;

  /// Restores cursor, stages, and model state from Serialize() output.
  /// model_ must already be set.
  Status RestorePayload(std::string_view payload);

  /// True when schedule stage `s` (stages_.size() is the final
  /// full-data stage) has samples and an epoch numbered `epoch`.
  bool HasEpoch(int s, int epoch) const;

  /// The (stage, epoch) RunEpoch() runs next: the cursor moved past
  /// stages with nothing left to run. The stage is past the final one
  /// once the schedule is complete.
  std::pair<int, int> NextEpoch() const;

  WsccalConfig config_;
  uint64_t pool_fingerprint_ = 0;  // of the unlabeled pool trained on
  std::unique_ptr<WscModel> model_;
  std::vector<std::vector<int>> stages_;
  // Schedule cursor: the NEXT (stage, epoch) to run. next_stage_ ==
  // stages_.size() addresses the final full-data stage.
  int next_stage_ = 0;
  int next_epoch_ = 0;
  uint64_t global_epoch_ = 0;
  bool completed_ = false;
  double final_loss_ = 0.0;
};

}  // namespace tpr::core

#endif  // TPR_CORE_WSCCL_H_
