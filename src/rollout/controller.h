#ifndef TPR_ROLLOUT_CONTROLLER_H_
#define TPR_ROLLOUT_CONTROLLER_H_

// Validated hot-model rollout.
//
// The RolloutController closes the loop between the trainer's serve
// checkpoints and the inference service: it watches a ckpt directory for
// new model generations, validates each candidate *offline* before it
// can touch traffic, canaries the survivors on a deterministic keyed
// slice of requests, and promotes or rolls back based on what the
// traffic shows — recording every decision in the durable lineage
// manifest (manifest.h).
//
// Validation gate, in order, cheapest first:
//   1. envelope      the ckpt CRC envelope must validate (else the file
//                    is moved to quarantine/ on disk)
//   2. decode        the payload must decode against the configured
//                    EncoderConfig (tag, dims, parameter shapes)
//   3. finiteness    every parameter value must be finite
//   4. quality       golden-probe travel-time MAE must stay within
//                    `quality_budget` (relative) of the incumbent's
//   5. quant twin    the candidate's int8-quantized twin (tpr::quant)
//                    must hold probe MAE within `quant_mae_delta`
//                    (relative) of the fp32 candidate's; a passing twin
//                    is published beside the ckpt as quant-<seq>.q8 and
//                    installed with the candidate, a failing twin
//                    quarantines the candidate with it
//
// A gate failure quarantines the generation — on disk AND in the
// manifest — so it is never offered again, including across controller
// restarts. A gate pass starts a canary via the serving layer, whose
// promote/rollback resolution the controller folds back into the
// manifest on a later tick.
//
// Tick discipline. All work happens in explicit Tick() calls on the
// caller's thread; the controller owns no threads and never sleeps.
// Callers that interleave Tick() with request traffic at fixed points
// (the soak tests, the churn bench) therefore get a bitwise-reproducible
// rollout trace at any worker count.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/encoder.h"
#include "core/features.h"
#include "core/probe.h"
#include "obs/metrics.h"
#include "rollout/manifest.h"
#include "serve/service.h"
#include "util/status.h"

namespace tpr::rollout {

struct RolloutConfig {
  /// The ckpt::CheckpointDir the trainer publishes serve models into;
  /// the manifest lives alongside the generation files.
  std::string model_dir;
  /// Relative probe-MAE regression budget: a candidate passes the
  /// quality gate when probe_mae <= incumbent_mae * (1 + budget).
  double quality_budget = 0.10;
  /// Quantized-twin budget: the int8 twin passes gate 5 when
  /// twin_mae <= candidate_mae * (1 + quant_mae_delta). A negative
  /// delta fails every twin deterministically — a quarantine drill.
  double quant_mae_delta = 0.25;
  /// Build, gate, and publish an int8 twin with every candidate.
  /// TPR_QUANT=0/off also disables twins process-wide.
  bool quantize_twins = true;
  /// Shard identity (fleet mode): a non-empty `shard` scopes the fault
  /// sites touched during Init/Tick (rollout-publish, ckpt reads) to
  /// `site@shard` rules; `metrics_prefix` namespaces the rollout
  /// counters/gauges ("shard0." -> "shard0.rollout.promoted"). Empty
  /// defaults keep the single-controller behavior and global names.
  std::string shard;
  std::string metrics_prefix;
};

/// What one Tick() did, for logging and assertions. Events are ordered,
/// human-readable, and deterministic under the tick discipline above.
struct TickReport {
  std::vector<std::string> events;
  bool published = false;
};

class RolloutController {
 public:
  /// `service` must outlive the controller. `probe` is the golden probe
  /// set every candidate (and incumbent) is scored on.
  RolloutController(serve::InferenceService* service,
                    std::shared_ptr<const core::FeatureSpace> features,
                    const core::EncoderConfig& encoder_config,
                    core::ProbeSet probe, const RolloutConfig& config);

  /// Recovers state from an existing manifest (quarantined generations
  /// stay quarantined across restarts). A missing manifest is a fresh
  /// start, not an error.
  Status Init();

  /// One control-loop step:
  ///   1. fold any canary resolution from the service into the manifest
  ///      (promote -> live, retire the old incumbent; rollback ->
  ///      quarantine on disk and in the manifest),
  ///   2. when no canary is in flight, scan for the oldest unseen
  ///      generation and run it through the validation gate — starting a
  ///      canary, bootstrapping the first live model, or quarantining,
  ///   3. publish the manifest if anything changed (a torn publish is
  ///      reported in the TickReport and retried next tick).
  StatusOr<TickReport> Tick();

  const Manifest& manifest() const { return manifest_; }

  /// Incumbent probe MAE (negative before a live model exists).
  double incumbent_mae() const { return incumbent_mae_; }

  /// Replaces the golden probe set — the drift loop swaps in queries
  /// labeled under the CURRENT (post-shift) traffic so incumbent and
  /// adapted candidate are scored on the same world. The cached
  /// incumbent MAE is invalidated and lazily recomputed against the new
  /// probe at the next gate evaluation.
  void RefreshProbe(core::ProbeSet probe);

 private:
  /// Folds one canary resolution into the manifest.
  void ApplyResolution(const serve::CanaryResolution& res,
                       TickReport* report);

  /// Runs the oldest unseen generation through the validation gate and
  /// starts at most one canary or live install per tick.
  Status ScanForCandidate(TickReport* report);

  /// Quarantines `generation` on disk (best effort) and in the manifest.
  void QuarantineGeneration(uint64_t generation, double probe_mae,
                            const std::string& reason, TickReport* report);

  void UpdateGauges() const;

  serve::InferenceService* const service_;
  const std::shared_ptr<const core::FeatureSpace> features_;
  const core::EncoderConfig encoder_config_;
  core::ProbeSet probe_;  // mutable: RefreshProbe swaps in fresh labels
  const RolloutConfig config_;
  const obs::MetricScope metrics_;  // prefix = config_.metrics_prefix
  Manifest manifest_;
  /// Probe MAE of the current incumbent; recomputed on bootstrap and
  /// carried over from the candidate's score on promotion.
  double incumbent_mae_ = -1.0;
  bool dirty_ = false;  // manifest changed since last successful publish
};

}  // namespace tpr::rollout

#endif  // TPR_ROLLOUT_CONTROLLER_H_
