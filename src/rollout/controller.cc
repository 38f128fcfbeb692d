#include "rollout/controller.h"

#include <cstdio>
#include <utility>

#include "ckpt/checkpoint.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "quant/quant.h"
#include "util/logging.h"

namespace tpr::rollout {
namespace {

std::string FormatMae(double mae) {
  if (mae < 0) return "n/a";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4f", mae);
  return buf;
}

}  // namespace

RolloutController::RolloutController(
    serve::InferenceService* service,
    std::shared_ptr<const core::FeatureSpace> features,
    const core::EncoderConfig& encoder_config, core::ProbeSet probe,
    const RolloutConfig& config)
    : service_(service),
      features_(std::move(features)),
      encoder_config_(encoder_config),
      probe_(std::move(probe)),
      config_(config),
      metrics_(config_.metrics_prefix) {
  TPR_CHECK(service_ != nullptr);
  TPR_CHECK(!config_.model_dir.empty());
  TPR_CHECK(config_.quality_budget >= 0.0);
}

Status RolloutController::Init() {
  fault::ScopedShard shard_scope(config_.shard);
  auto loaded = Manifest::Load(config_.model_dir, config_.metrics_prefix);
  if (loaded.ok()) {
    manifest_ = *std::move(loaded);
    // The incumbent's probe score travels with its manifest record, so a
    // restarted controller gates candidates against the same baseline.
    if (const ModelRecord* live = manifest_.Find(manifest_.live_generation())) {
      incumbent_mae_ = live->probe_mae;
    }
  } else if (loaded.status().code() != StatusCode::kNotFound) {
    return loaded.status();
  }
  UpdateGauges();
  return Status::OK();
}

void RolloutController::RefreshProbe(core::ProbeSet probe) {
  probe_ = std::move(probe);
  // Invalidate the cached incumbent score: the next gate evaluation
  // re-scores the live model on the new probe (the `incumbent_mae_ < 0`
  // lazy-recompute path in ScanForCandidate).
  incumbent_mae_ = -1.0;
  metrics_.counter("rollout.probe_refreshes").Add(1);
}

StatusOr<TickReport> RolloutController::Tick() {
  fault::ScopedShard shard_scope(config_.shard);
  TickReport report;
  while (auto res = service_->TakeCanaryResolution()) {
    ApplyResolution(*res, &report);
  }
  if (!service_->canary_status().installed) {
    TPR_RETURN_IF_ERROR(ScanForCandidate(&report));
  }
  if (dirty_) {
    Status published =
        manifest_.Publish(config_.model_dir, config_.metrics_prefix);
    if (published.ok()) {
      dirty_ = false;
      report.published = true;
      report.events.push_back(
          "published manifest (publish " +
          std::to_string(manifest_.publish_count()) + ")");
    } else {
      // A torn publish left a corrupt MANIFEST behind; the mirror still
      // holds the last good state and the next tick republishes.
      report.events.push_back("publish failed: " + published.message());
    }
  }
  UpdateGauges();
  return report;
}

void RolloutController::ApplyResolution(const serve::CanaryResolution& res,
                                        TickReport* report) {
  const std::string traffic = " (routed " + std::to_string(res.routed) +
                              ", clean " + std::to_string(res.clean) + ")";
  if (res.verdict == serve::CanaryVerdict::kPromoted) {
    const uint64_t prev_live = manifest_.live_generation();
    if (ModelRecord* old_live = manifest_.Find(prev_live)) {
      ModelRecord retired = *old_live;
      retired.state = ModelState::kRetired;
      retired.reason = "superseded by gen " + std::to_string(res.generation);
      manifest_.Upsert(std::move(retired));
    }
    ModelRecord rec;
    if (const ModelRecord* existing = manifest_.Find(res.generation)) {
      rec = *existing;
    }
    rec.generation = res.generation;
    rec.state = ModelState::kLive;
    rec.reason = res.reason;
    incumbent_mae_ = rec.probe_mae;
    manifest_.Upsert(std::move(rec));
    manifest_.set_live_generation(res.generation);
    manifest_.set_canary_generation(0);
    // Best-effort retention pin: the live generation's ckpt file is
    // exempt from keep-last-K pruning so a restart can always reload
    // the serving model even after many candidate publishes.
    (void)ckpt::CheckpointDir(config_.model_dir).Pin(res.generation);
    metrics_.counter("rollout.promoted").Add(1);
    report->events.push_back("canary gen " + std::to_string(res.generation) +
                             " promoted: " + res.reason + traffic);
  } else {
    double probe_mae = -1.0;
    if (const ModelRecord* existing = manifest_.Find(res.generation)) {
      probe_mae = existing->probe_mae;
    }
    QuarantineGeneration(res.generation, probe_mae,
                         "canary rolled back: " + res.reason + traffic,
                         report);
    manifest_.set_canary_generation(0);
    metrics_.counter("rollout.rolled_back").Add(1);
  }
  dirty_ = true;
}

Status RolloutController::ScanForCandidate(TickReport* report) {
  ckpt::CheckpointDir dir(config_.model_dir);
  for (uint64_t seq : dir.ListSeqs()) {
    if (manifest_.Find(seq) != nullptr) continue;  // already decided

    // Gate 1: the file must read and its envelope must validate. Read
    // errors are transient (a flaky disk, an injected ckpt-read fault):
    // leave the file alone and retry on a later tick.
    auto bytes = ckpt::ReadFileBytes(dir.PathFor(seq));
    if (!bytes.ok()) {
      report->events.push_back("gen " + std::to_string(seq) +
                               " unreadable, will retry: " +
                               bytes.status().message());
      return Status::OK();
    }
    metrics_.counter("rollout.candidates").Add(1);
    auto payload = ckpt::UnwrapPayload(*bytes);
    if (!payload.ok()) {
      QuarantineGeneration(
          seq, -1.0, "envelope: " + payload.status().message(), report);
      continue;
    }

    // Gate 2: decode against the configured encoder shape.
    auto decoded = serve::InferenceService::DecodeModelPayload(
        *payload, features_, encoder_config_);
    if (!decoded.ok()) {
      QuarantineGeneration(seq, -1.0,
                           "decode: " + decoded.status().message(), report);
      continue;
    }
    if (decoded->generation != seq) {
      QuarantineGeneration(seq, -1.0,
                           "generation mismatch: payload says " +
                               std::to_string(decoded->generation),
                           report);
      continue;
    }

    // Gate 3: finite parameters.
    if (!core::AllParametersFinite(*decoded->encoder)) {
      QuarantineGeneration(seq, -1.0, "non-finite parameters", report);
      continue;
    }

    // Gate 4: golden-probe quality.
    auto cand_mae = core::ProbeTravelTimeMae(*decoded->encoder, probe_);
    if (!cand_mae.ok()) {
      QuarantineGeneration(seq, -1.0,
                           "probe: " + cand_mae.status().message(), report);
      continue;
    }

    const bool bootstrap = service_->live_model() == nullptr;
    if (!bootstrap) {
      if (incumbent_mae_ < 0) {
        // The live model was installed outside the controller (e.g. a
        // direct LoadModel); score it once so the gate has a baseline.
        auto inc = core::ProbeTravelTimeMae(*service_->live_model(), probe_);
        if (inc.ok()) incumbent_mae_ = *inc;
      }
      metrics_.gauge("rollout.canary_probe_delta")
          .Set(incumbent_mae_ >= 0 ? *cand_mae - incumbent_mae_ : 0.0);
      if (incumbent_mae_ >= 0 &&
          *cand_mae > incumbent_mae_ * (1.0 + config_.quality_budget)) {
        QuarantineGeneration(seq, *cand_mae,
                             "quality regression: probe mae " +
                                 FormatMae(*cand_mae) + " vs incumbent " +
                                 FormatMae(incumbent_mae_) + " (budget " +
                                 std::to_string(config_.quality_budget) + ")",
                             report);
        continue;
      }
    }

    // Gate 5: the int8-quantized twin. Most expensive gate, so it runs
    // last; the golden-probe queries double as the calibration set, so
    // twin and candidate are calibrated and scored on identical inputs.
    std::shared_ptr<const quant::QuantizedEncoder> twin;
    if (config_.quantize_twins && quant::QuantEnabledFromEnv() &&
        encoder_config_.sequence_model == core::SequenceModel::kLstm) {
      std::vector<core::PathTimeItem> calibration;
      calibration.reserve(probe_.queries.size());
      for (const auto& q : probe_.queries) {
        calibration.push_back({&q.path, q.depart_time_s});
      }
      auto qmodel = quant::QuantizeEncoder(*decoded->encoder, calibration);
      if (!qmodel.ok()) {
        QuarantineGeneration(
            seq, *cand_mae,
            "quantized twin build: " + qmodel.status().message(), report);
        continue;
      }
      qmodel->generation = seq;
      auto built = std::make_shared<const quant::QuantizedEncoder>(
          features_, *std::move(qmodel));
      auto twin_mae = core::ProbeTravelTimeMaeWith(
          [&built](const std::vector<core::PathTimeItem>& items) {
            return built->EncodeValueBatch(items);
          },
          built->representation_dim(), probe_);
      if (!twin_mae.ok()) {
        QuarantineGeneration(
            seq, *cand_mae,
            "quantized twin probe: " + twin_mae.status().message(), report);
        continue;
      }
      metrics_.gauge("rollout.quant_probe_delta").Set(*twin_mae - *cand_mae);
      if (*twin_mae > *cand_mae * (1.0 + config_.quant_mae_delta)) {
        // The twin fails -> the candidate it shadows goes with it: a
        // generation is only servable as the fp32 + int8 pair.
        QuarantineGeneration(seq, *cand_mae,
                             "quantized twin mae " + FormatMae(*twin_mae) +
                                 " vs fp32 candidate " + FormatMae(*cand_mae) +
                                 " (delta budget " +
                                 std::to_string(config_.quant_mae_delta) + ")",
                             report);
        continue;
      }
      Status saved = quant::SaveQuantizedModel(config_.model_dir,
                                               built->model(), seq);
      if (!saved.ok()) {
        // The in-memory twin still serves this process; only a restarted
        // service loses the quantized rung for this generation.
        metrics_.counter("rollout.quant_artifact_failures").Add(1);
        report->events.push_back("gen " + std::to_string(seq) +
                                 " quant artifact save failed: " +
                                 saved.message());
      }
      metrics_.counter("rollout.quant_twins").Add(1);
      report->events.push_back("gen " + std::to_string(seq) +
                               " quantized twin passed (mae " +
                               FormatMae(*twin_mae) + " vs fp32 " +
                               FormatMae(*cand_mae) + ")");
      twin = std::move(built);
    } else {
      report->events.push_back("gen " + std::to_string(seq) +
                               " quantized twin skipped");
    }

    if (bootstrap) {
      // Bootstrap: the first valid generation goes straight to live —
      // there is no incumbent to canary against.
      service_->InstallModel(decoded->encoder, seq, twin);
      incumbent_mae_ = *cand_mae;
      ModelRecord rec;
      rec.generation = seq;
      rec.state = ModelState::kLive;
      rec.probe_mae = *cand_mae;
      rec.reason = "bootstrap";
      manifest_.Upsert(std::move(rec));
      manifest_.set_live_generation(seq);
      (void)ckpt::CheckpointDir(config_.model_dir).Pin(seq);
      dirty_ = true;
      metrics_.counter("rollout.bootstraps").Add(1);
      report->events.push_back("gen " + std::to_string(seq) +
                               " bootstrapped live (mae " +
                               FormatMae(*cand_mae) + ")");
      return Status::OK();
    }

    TPR_RETURN_IF_ERROR(service_->BeginCanary(decoded->encoder, seq, twin));
    ModelRecord rec;
    rec.generation = seq;
    rec.state = ModelState::kCanary;
    rec.probe_mae = *cand_mae;
    rec.incumbent_mae = incumbent_mae_;
    rec.reason = "validated";
    manifest_.Upsert(std::move(rec));
    manifest_.set_canary_generation(seq);
    dirty_ = true;
    metrics_.counter("rollout.canaries").Add(1);
    report->events.push_back("gen " + std::to_string(seq) +
                             " passed validation, canarying (mae " +
                             FormatMae(*cand_mae) + " vs incumbent " +
                             FormatMae(incumbent_mae_) + ")");
    return Status::OK();
  }
  return Status::OK();
}

void RolloutController::QuarantineGeneration(uint64_t generation,
                                             double probe_mae,
                                             const std::string& reason,
                                             TickReport* report) {
  // Best effort on disk: the file may already be gone (pruned) or the
  // quarantine may race a prune; the manifest record is what guarantees
  // the generation is never offered again. The quantized twin artifact
  // never outlives its fp32 generation.
  (void)ckpt::CheckpointDir(config_.model_dir).Quarantine(generation);
  quant::RemoveQuantArtifact(config_.model_dir, generation);
  ModelRecord rec;
  rec.generation = generation;
  rec.state = ModelState::kQuarantined;
  rec.probe_mae = probe_mae;
  rec.incumbent_mae = incumbent_mae_;
  rec.reason = reason;
  manifest_.Upsert(std::move(rec));
  dirty_ = true;
  metrics_.counter("rollout.quarantined").Add(1);
  report->events.push_back("gen " + std::to_string(generation) +
                           " quarantined: " + reason);
}

void RolloutController::UpdateGauges() const {
  metrics_.gauge("rollout.live_generation")
      .Set(static_cast<double>(manifest_.live_generation()));
  metrics_.gauge("rollout.canary_generation")
      .Set(static_cast<double>(manifest_.canary_generation()));
}

}  // namespace tpr::rollout
