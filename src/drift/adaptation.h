#ifndef TPR_DRIFT_ADAPTATION_H_
#define TPR_DRIFT_ADAPTATION_H_

// Drift adaptation: the self-healing half of `tpr::drift`.
//
// The AdaptationController turns a drift detection into a *candidate*
// model generation, never into an incumbent swap — promotion stays the
// rollout controller's call, behind its full gate stack (envelope,
// decode, finiteness, probe budget, int8 twin, canary, auto-rollback).
// The incumbent keeps serving untouched the whole time.
//
// Lifecycle (one explicit Tick() at a time, caller's thread, no threads
// or sleeps of its own — the same tick discipline as tpr::rollout):
//
//   idle ──alarm──▶ fine-tuning ──budget spent──▶ cooldown ──▶ idle
//
//   fine-tuning   runs a core::WsccalPipeline over ONLY the fresh
//                 post-shift trajectory window: a heuristic curriculum
//                 with one epoch per stage, then full-pool epochs, for
//                 `total_epochs` epochs in all. Its model is warm-started
//                 from the LIVE generation's serve checkpoint (read back
//                 through tpr::ckpt). After every epoch the pipeline's
//                 Serialize() payload is checkpointed to `finetune_dir`
//                 behind the candidate and source generations, so a
//                 controller killed at any epoch boundary resumes
//                 bitwise-identically: the published candidate bytes are
//                 the same whether or not the run was interrupted. A
//                 resume onto another fresh pool or another fine-tune
//                 config (`total_epochs` included) is refused.
//   cooldown      the candidate has been published into the rollout
//                 model dir; the controller waits for the rollout
//                 lineage to resolve it (live / quarantined) before
//                 re-arming. The drift detector is Reset() at publish,
//                 so post-adaptation windows rebuild a fresh baseline.
//
// Determinism: training is bitwise thread-independent (tpr::par), the
// curriculum and probe sampling are seeded, fault verdicts are keyed,
// and time never enters the loop — so the full detect → fine-tune →
// publish trace is identical across runs and thread counts.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/features.h"
#include "core/probe.h"
#include "core/wsccl.h"
#include "drift/detector.h"
#include "rollout/controller.h"
#include "serve/service.h"
#include "synth/dataset.h"
#include "util/status.h"

namespace tpr::drift {

struct AdaptationConfig {
  /// The rollout-watched ckpt::CheckpointDir: the live generation is
  /// read from here and the fine-tuned candidate is published back into
  /// it (unless `publish_dir` overrides the destination).
  std::string model_dir;

  /// Candidate destination; empty means `model_dir`. A reference run
  /// (tests, the bitwise kill/resume drill) publishes to a scratch dir
  /// so its bytes can be compared against the real candidate's.
  std::string publish_dir;

  /// Where in-flight fine-tune trainer state is checkpointed (its own
  /// CheckpointDir; removed after a successful publish).
  std::string finetune_dir;

  /// Fine-tune trainer config. `wsc.encoder` must architecturally match
  /// the serving encoder config (the warm start copies parameters).
  core::WscConfig wsc;

  /// Curriculum over the fresh pool. Defaults to the cheap heuristic
  /// (edge-count easy-to-hard) — an incremental fine-tune should not
  /// pay for expert difficulty scoring.
  core::CurriculumConfig curriculum{
      core::CurriculumStrategy::kHeuristic, /*num_meta_sets=*/2,
      /*expert_epochs=*/1};

  /// Fine-tune budget: total epochs over the fresh pool. Epoch e runs
  /// curriculum stage e while stages remain, then full-pool epochs. Part
  /// of the fine-tune's config fingerprint: a resume under a different
  /// budget is refused.
  int total_epochs = 3;

  /// Epochs executed per Tick() (the caller interleaves ticks with
  /// serving work).
  int epochs_per_tick = 1;

  /// Fresh-probe construction for the rollout quality gate: on launch
  /// the rollout controller's probe set is refreshed to labels sampled
  /// from the fresh (post-shift) dataset, so incumbent and candidate
  /// are both scored on the current world.
  size_t probe_queries = 64;
  uint64_t probe_seed = 7;

  /// Non-zero pins the candidate's generation number (reference runs);
  /// 0 derives max(existing generations) + 1.
  uint64_t forced_candidate_generation = 0;

  /// Shard identity (fleet mode): `shard` scopes the fault sites
  /// touched during Tick (ckpt reads/writes of the fine-tune state) to
  /// `site@shard` rules and is copied onto the detector; a non-empty
  /// `metrics_prefix` namespaces the drift counters/gauges
  /// ("shard0." -> "shard0.drift.publishes") and likewise flows into the
  /// detector config. Empty defaults keep the global names.
  std::string shard;
  std::string metrics_prefix;
};

/// Overlays TPR_DRIFT_EPOCHS / TPR_DRIFT_EPOCHS_PER_TICK onto
/// `defaults` (detector knobs live on DriftDetectorConfig). Malformed
/// values and values below 1 keep the default.
AdaptationConfig AdaptationConfigFromEnv(AdaptationConfig defaults);

enum class AdaptState { kIdle = 0, kFineTuning = 1, kCooldown = 2 };

const char* AdaptStateName(AdaptState s);

/// What one Tick() did.
struct AdaptReport {
  std::vector<std::string> events;
  bool published = false;
};

class AdaptationController {
 public:
  /// `service` must outlive the controller and provides the live
  /// generation number. `rollout` may be null (reference runs): then no
  /// probe refresh happens and cooldown resolves immediately.
  AdaptationController(std::shared_ptr<const core::FeatureSpace> features,
                       serve::InferenceService* service,
                       rollout::RolloutController* rollout,
                       const DriftDetectorConfig& detector_config,
                       const AdaptationConfig& config);
  ~AdaptationController();

  AdaptationController(const AdaptationController&) = delete;
  AdaptationController& operator=(const AdaptationController&) = delete;

  /// Feeds one serving-time probe-MAE observation to the detector.
  /// Ignored (returns false) unless idle: while a fine-tune or rollout
  /// resolution is in flight the controller already knows the world
  /// moved. Returns true when this observation raised the alarm.
  bool ObserveProbeMae(double mae);

  /// One control step. `fresh` is the current fresh-trajectory window
  /// (the post-shift stream); a fine-tune trains on the window it was
  /// launched on until it publishes. The first Tick() also checks
  /// `finetune_dir` for an interrupted run and resumes it if that run
  /// trained on `fresh` — alarm state is not required to resume, only to
  /// launch.
  StatusOr<AdaptReport> Tick(
      const std::shared_ptr<const synth::CityDataset>& fresh);

  /// Launches a fine-tune immediately, without an alarm (reference
  /// runs, tests). FailedPrecondition when not idle or no live model.
  Status ForceStartFineTune(
      const std::shared_ptr<const synth::CityDataset>& fresh);

  AdaptState state() const { return state_; }
  DriftDetector& detector() { return detector_; }
  const DriftDetector& detector() const { return detector_; }
  /// Candidate generation of the in-flight or last-published fine-tune
  /// (0 before any launch).
  uint64_t candidate_generation() const { return candidate_gen_; }
  uint64_t fine_tunes_launched() const { return launches_; }
  uint64_t fine_tunes_published() const { return publishes_; }
  uint64_t fine_tunes_resumed() const { return resumes_; }

 private:
  Status StartFineTune(const std::shared_ptr<const synth::CityDataset>& fresh,
                       AdaptReport* report);
  Status TryResume(const std::shared_ptr<const synth::CityDataset>& fresh,
                   AdaptReport* report);
  Status RunEpochs(AdaptReport* report);
  Status PublishCandidate(AdaptReport* report);
  void RefreshRolloutProbe(AdaptReport* report);
  Status SaveFineTuneState() const;

  /// The fine-tune as a pipeline schedule: one epoch per curriculum
  /// stage, then full-pool epochs up to the total budget.
  core::WsccalConfig FineTuneConfig() const;

  /// Fresh-window FeatureSpace: the base space's frozen node2vec
  /// embeddings over the post-shift dataset.
  std::shared_ptr<const core::FeatureSpace> FreshFeatures(
      const std::shared_ptr<const synth::CityDataset>& fresh) const;

  const std::shared_ptr<const core::FeatureSpace> base_features_;
  serve::InferenceService* const service_;
  rollout::RolloutController* const rollout_;
  const AdaptationConfig config_;
  const obs::MetricScope metrics_;  // prefix = config_.metrics_prefix
  DriftDetector detector_;

  AdaptState state_ = AdaptState::kIdle;
  bool resume_checked_ = false;

  // In-flight fine-tune over the fresh window (valid while state_ ==
  // kFineTuning, and candidate_gen_ survives into cooldown).
  std::unique_ptr<core::WsccalPipeline> pipeline_;
  uint64_t candidate_gen_ = 0;
  uint64_t source_gen_ = 0;

  uint64_t launches_ = 0;
  uint64_t publishes_ = 0;
  uint64_t resumes_ = 0;
};

}  // namespace tpr::drift

#endif  // TPR_DRIFT_ADAPTATION_H_
