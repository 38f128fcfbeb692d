#include "drift/adaptation.h"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "ckpt/checkpoint.h"
#include "ckpt/serialize.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "util/env.h"
#include "util/logging.h"

namespace tpr::drift {
namespace {

// The state record: tag, version, candidate and source generations,
// then the fine-tune pipeline's Serialize() payload as one string.
constexpr char kStateTag[] = "tpr-drift-finetune";
constexpr uint32_t kStateVersion = 2;

void RemoveStateDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);  // best effort
}

}  // namespace

AdaptationConfig AdaptationConfigFromEnv(AdaptationConfig defaults) {
  defaults.total_epochs =
      EnvNumber("TPR_DRIFT_EPOCHS", defaults.total_epochs, 1);
  defaults.epochs_per_tick =
      EnvNumber("TPR_DRIFT_EPOCHS_PER_TICK", defaults.epochs_per_tick, 1);
  return defaults;
}

const char* AdaptStateName(AdaptState s) {
  switch (s) {
    case AdaptState::kIdle: return "idle";
    case AdaptState::kFineTuning: return "fine-tuning";
    case AdaptState::kCooldown: return "cooldown";
  }
  return "unknown";
}

AdaptationController::AdaptationController(
    std::shared_ptr<const core::FeatureSpace> features,
    serve::InferenceService* service, rollout::RolloutController* rollout,
    const DriftDetectorConfig& detector_config, const AdaptationConfig& config)
    : base_features_(std::move(features)),
      service_(service),
      rollout_(rollout),
      config_(config),
      metrics_(config_.metrics_prefix),
      detector_([&] {
        // The shard identity flows into the detector so its metrics and
        // drift-detect fault verdicts carry the same namespace.
        DriftDetectorConfig dc = detector_config;
        if (dc.metrics_prefix.empty()) dc.metrics_prefix = config.metrics_prefix;
        if (dc.shard.empty()) dc.shard = config.shard;
        return dc;
      }()) {
  TPR_CHECK(base_features_ != nullptr);
  TPR_CHECK(service_ != nullptr);
  TPR_CHECK(!config_.model_dir.empty());
  TPR_CHECK(!config_.finetune_dir.empty());
  TPR_CHECK(config_.total_epochs > 0);
  TPR_CHECK(config_.epochs_per_tick > 0);
}

AdaptationController::~AdaptationController() = default;

core::WsccalConfig AdaptationController::FineTuneConfig() const {
  core::WsccalConfig c;
  c.wsc = config_.wsc;
  c.curriculum = config_.curriculum;
  c.stage_epochs = 1;
  c.final_epochs = config_.total_epochs;
  return c;
}

bool AdaptationController::ObserveProbeMae(double mae) {
  if (state_ != AdaptState::kIdle) return false;
  return detector_.Observe(mae);
}

std::shared_ptr<const core::FeatureSpace> AdaptationController::FreshFeatures(
    const std::shared_ptr<const synth::CityDataset>& fresh) const {
  // The frozen node2vec embeddings carry over — the network topology did
  // not change — while the dataset (trajectories, traffic, weak labels)
  // is the fresh post-shift window the trainer learns from.
  auto fs = std::make_shared<core::FeatureSpace>(*base_features_);
  fs->data = fresh;
  return fs;
}

StatusOr<AdaptReport> AdaptationController::Tick(
    const std::shared_ptr<const synth::CityDataset>& fresh) {
  TPR_CHECK(fresh != nullptr);
  fault::ScopedShard shard_scope(config_.shard);
  AdaptReport report;
  if (!resume_checked_) {
    resume_checked_ = true;
    TPR_RETURN_IF_ERROR(TryResume(fresh, &report));
  }
  switch (state_) {
    case AdaptState::kIdle: {
      if (detector_.alarmed()) {
        TPR_RETURN_IF_ERROR(StartFineTune(fresh, &report));
      }
      break;
    }
    case AdaptState::kFineTuning: {
      TPR_RETURN_IF_ERROR(RunEpochs(&report));
      break;
    }
    case AdaptState::kCooldown: {
      bool resolved = rollout_ == nullptr;
      if (rollout_ != nullptr) {
        const rollout::ModelRecord* rec =
            rollout_->manifest().Find(candidate_gen_);
        resolved = rec != nullptr &&
                   (rec->state == rollout::ModelState::kLive ||
                    rec->state == rollout::ModelState::kRetired ||
                    rec->state == rollout::ModelState::kQuarantined);
      }
      if (resolved) {
        state_ = AdaptState::kIdle;
        report.events.push_back("cooldown resolved: candidate gen " +
                                std::to_string(candidate_gen_) +
                                " reached a terminal rollout state");
      }
      break;
    }
  }
  metrics_.gauge("drift.adapt_state")
      .Set(static_cast<double>(static_cast<int>(state_)));
  return report;
}

Status AdaptationController::ForceStartFineTune(
    const std::shared_ptr<const synth::CityDataset>& fresh) {
  if (state_ != AdaptState::kIdle) {
    return Status::FailedPrecondition("adaptation already in flight");
  }
  resume_checked_ = true;  // an explicit launch supersedes stale state
  AdaptReport report;
  return StartFineTune(fresh, &report);
}

Status AdaptationController::StartFineTune(
    const std::shared_ptr<const synth::CityDataset>& fresh,
    AdaptReport* report) {
  obs::Counter& launches = metrics_.counter("drift.finetune_launches");
  const uint64_t source_gen = service_->model_generation();
  if (source_gen == 0) {
    return Status::FailedPrecondition(
        "drift adaptation needs a live generation to warm-start from");
  }
  ckpt::CheckpointDir model_dir(config_.model_dir);
  auto bytes = ckpt::ReadFileBytes(model_dir.PathFor(source_gen));
  if (!bytes.ok()) return bytes.status();
  auto payload = ckpt::UnwrapPayload(*bytes);
  if (!payload.ok()) return payload.status();

  auto fresh_features = FreshFeatures(fresh);
  auto decoded = serve::InferenceService::DecodeModelPayload(
      *payload, fresh_features, config_.wsc.encoder);
  if (!decoded.ok()) return decoded.status();

  auto pipeline = core::WsccalPipeline::Start(fresh_features, FineTuneConfig());
  if (!pipeline.ok()) return pipeline.status();
  // Warm start: the live generation's parameter values, shape-checked.
  TPR_RETURN_IF_ERROR(
      (*pipeline)->mutable_model()->mutable_encoder()->CopyParamsFrom(
          *decoded->encoder));

  uint64_t max_gen = source_gen;
  for (uint64_t s : model_dir.ListSeqs()) max_gen = std::max(max_gen, s);
  if (rollout_ != nullptr) {
    for (const auto& rec : rollout_->manifest().records()) {
      max_gen = std::max(max_gen, rec.generation);
    }
  }
  candidate_gen_ = config_.forced_candidate_generation != 0
                       ? config_.forced_candidate_generation
                       : max_gen + 1;
  source_gen_ = source_gen;
  pipeline_ = std::move(*pipeline);
  state_ = AdaptState::kFineTuning;
  ++launches_;
  launches.Add();
  report->events.push_back(
      "fine-tune launched: warm start from live gen " +
      std::to_string(source_gen_) + ", candidate gen " +
      std::to_string(candidate_gen_) + ", " +
      std::to_string(fresh->unlabeled.size()) + " fresh trajectories");
  // Persist the launch record so a kill before the first epoch still
  // resumes instead of needing a second alarm.
  TPR_RETURN_IF_ERROR(SaveFineTuneState());
  RefreshRolloutProbe(report);
  return Status::OK();
}

Status AdaptationController::SaveFineTuneState() const {
  auto payload = pipeline_->Serialize();
  if (!payload.ok()) return payload.status();
  ckpt::Writer w;
  w.Str(kStateTag);
  w.U32(kStateVersion);
  w.U64(candidate_gen_);
  w.U64(source_gen_);
  w.Str(*payload);
  ckpt::CheckpointDir cdir(config_.finetune_dir);
  return cdir.Save(pipeline_->epochs_completed() + 1, w.TakeBytes());
}

Status AdaptationController::TryResume(
    const std::shared_ptr<const synth::CityDataset>& fresh,
    AdaptReport* report) {
  obs::Counter& resumed = metrics_.counter("drift.finetune_resumes");
  ckpt::CheckpointDir cdir(config_.finetune_dir);
  auto loaded = cdir.LoadLatest();
  if (!loaded.ok()) {
    if (loaded.status().code() != StatusCode::kNotFound) {
      report->events.push_back("resume skipped: " +
                               loaded.status().message());
    }
    return Status::OK();
  }
  // Any decode failure from here on means the state is foreign, corrupt,
  // or from a different world — refuse it, wipe the directory, and stay
  // idle rather than wedging the control loop on a bad file.
  uint64_t candidate_gen = 0, source_gen = 0;
  std::unique_ptr<core::WsccalPipeline> pipeline;
  std::string refusal;
  Status parsed = [&]() -> Status {
    ckpt::Reader r(loaded->payload);
    std::string tag;
    uint32_t version = 0;
    TPR_RETURN_IF_ERROR(r.Str(&tag));
    TPR_RETURN_IF_ERROR(r.U32(&version));
    if (tag != kStateTag || version != kStateVersion) {
      refusal = "foreign fine-tune state";
      return Status::InvalidArgument(refusal);
    }
    TPR_RETURN_IF_ERROR(r.U64(&candidate_gen));
    TPR_RETURN_IF_ERROR(r.U64(&source_gen));
    std::string payload;
    TPR_RETURN_IF_ERROR(r.Str(&payload));
    auto restored = core::WsccalPipeline::Deserialize(
        FreshFeatures(fresh), FineTuneConfig(), payload);
    if (!restored.ok()) return restored.status();
    pipeline = std::move(*restored);
    return Status::OK();
  }();
  if (!parsed.ok()) {
    if (refusal.empty()) refusal = parsed.message();
    report->events.push_back("resume refused: " + refusal);
    RemoveStateDir(config_.finetune_dir);
    return Status::OK();
  }

  candidate_gen_ = candidate_gen;
  source_gen_ = source_gen;
  pipeline_ = std::move(pipeline);
  state_ = AdaptState::kFineTuning;
  ++resumes_;
  resumed.Add();
  report->events.push_back(
      "fine-tune resumed: candidate gen " + std::to_string(candidate_gen_) +
      " at epoch " + std::to_string(pipeline_->epochs_completed()) + "/" +
      std::to_string(config_.total_epochs));
  RefreshRolloutProbe(report);
  return Status::OK();
}

Status AdaptationController::RunEpochs(AdaptReport* report) {
  obs::Counter& epochs = metrics_.counter("drift.finetune_epochs");
  const uint64_t total = static_cast<uint64_t>(config_.total_epochs);
  for (int i = 0; i < config_.epochs_per_tick &&
                  pipeline_->epochs_completed() < total;
       ++i) {
    auto samples = pipeline_->RunEpoch();
    if (!samples.ok()) return samples.status();
    epochs.Add();
    TPR_RETURN_IF_ERROR(SaveFineTuneState());
    report->events.push_back(
        "fine-tune epoch " + std::to_string(pipeline_->epochs_completed()) +
        "/" + std::to_string(total) + " on " + std::to_string(*samples) +
        " samples");
  }
  if (pipeline_->epochs_completed() >= total) {
    TPR_RETURN_IF_ERROR(PublishCandidate(report));
  }
  return Status::OK();
}

Status AdaptationController::PublishCandidate(AdaptReport* report) {
  obs::Counter& published = metrics_.counter("drift.publishes");
  const std::string& dir =
      config_.publish_dir.empty() ? config_.model_dir : config_.publish_dir;
  TPR_RETURN_IF_ERROR(serve::InferenceService::SaveModel(
      pipeline_->model().encoder(), dir, candidate_gen_));
  report->events.push_back("candidate gen " + std::to_string(candidate_gen_) +
                           " published for rollout validation");
  report->published = true;
  ++publishes_;
  published.Add();
  // The candidate is durable; the in-flight trainer state is obsolete.
  RemoveStateDir(config_.finetune_dir);
  pipeline_.reset();
  detector_.Reset();
  state_ = AdaptState::kCooldown;
  return Status::OK();
}

void AdaptationController::RefreshRolloutProbe(AdaptReport* report) {
  if (rollout_ == nullptr) return;
  core::ProbeSet probe =
      core::BuildProbeSet(*pipeline_->model().features().data,
                          config_.probe_queries, config_.probe_seed);
  rollout_->RefreshProbe(std::move(probe));
  report->events.push_back(
      "rollout probe refreshed onto the fresh window (" +
      std::to_string(config_.probe_queries) + " queries)");
}

}  // namespace tpr::drift
