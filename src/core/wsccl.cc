#include "core/wsccl.h"

#include <atomic>
#include <cstring>
#include <numeric>
#include <string>
#include <utility>

#include "ckpt/serialize.h"
#include "kern/arena.h"
#include "obs/metrics.h"
#include "par/thread_pool.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace tpr::core {
namespace {

constexpr char kPipelineTag[] = "wsccl-pipeline";
// Version 2 added the fingerprint of the unlabeled pool the stage
// indices point into.
constexpr uint32_t kPipelineVersion = 2;

uint64_t FloatBits(float x) {
  uint32_t b = 0;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

/// Deterministic content fingerprint of an unlabeled pool: a payload's
/// stage indices mean nothing on any other pool.
uint64_t PoolFingerprint(const synth::CityDataset& data) {
  uint64_t h = MixSeed(0xD21F7A5EULL, data.unlabeled.size());
  for (const auto& s : data.unlabeled) {
    h = MixSeed(h, static_cast<uint64_t>(s.depart_time_s));
    for (int e : s.path) {
      h = MixSeed(h, static_cast<uint64_t>(static_cast<uint32_t>(e)) + 1);
    }
  }
  return h;
}

}  // namespace

uint64_t WsccalPipeline::ConfigFingerprint(const WsccalConfig& config) {
  const WscConfig& w = config.wsc;
  const EncoderConfig& e = w.encoder;
  uint64_t h = 0x575343434Cu;  // "WSCCL"
  for (uint64_t v : {
           static_cast<uint64_t>(e.d_rt), static_cast<uint64_t>(e.d_lanes),
           static_cast<uint64_t>(e.d_oneway),
           static_cast<uint64_t>(e.d_signal),
           static_cast<uint64_t>(e.d_hidden),
           static_cast<uint64_t>(e.lstm_layers),
           static_cast<uint64_t>(e.sequence_model),
           static_cast<uint64_t>(e.aggregation),
           static_cast<uint64_t>(e.use_temporal),
           static_cast<uint64_t>(e.use_projection_head),
           static_cast<uint64_t>(e.projection_dim), e.seed,
           FloatBits(w.loss.temperature),
           static_cast<uint64_t>(w.loss.pos_edges_per_query),
           static_cast<uint64_t>(w.loss.neg_edges_per_query),
           FloatBits(w.lambda), static_cast<uint64_t>(w.anchors_per_batch),
           FloatBits(w.lr), FloatBits(w.grad_clip),
           static_cast<uint64_t>(w.weak_labels),
           static_cast<uint64_t>(w.use_global),
           static_cast<uint64_t>(w.use_local),
           static_cast<uint64_t>(w.grad_shards),
           FloatBits(w.watchdog_max_grad_norm),
           static_cast<uint64_t>(w.watchdog_max_consecutive_bad), w.seed,
           static_cast<uint64_t>(config.curriculum.strategy),
           static_cast<uint64_t>(config.curriculum.num_meta_sets),
           static_cast<uint64_t>(config.curriculum.expert_epochs),
           static_cast<uint64_t>(config.stage_epochs),
           static_cast<uint64_t>(config.final_epochs)}) {
    h = MixSeed(h, v);
  }
  return h;
}

WsccalPipeline::WsccalPipeline(const FeatureSpace& features,
                               const WsccalConfig& config)
    : config_(config), pool_fingerprint_(PoolFingerprint(*features.data)) {}

std::string WsccalPipeline::BuildPayload() const {
  ckpt::Writer w;
  w.Str(kPipelineTag);
  w.U32(kPipelineVersion);
  w.U64(ConfigFingerprint(config_));
  w.U64(pool_fingerprint_);
  w.U8(completed_ ? 1 : 0);
  w.I32(next_stage_);
  w.I32(next_epoch_);
  w.U64(global_epoch_);
  w.F64(final_loss_);
  w.U32(static_cast<uint32_t>(stages_.size()));
  for (const auto& stage : stages_) {
    w.U32(static_cast<uint32_t>(stage.size()));
    for (int idx : stage) w.I32(idx);
  }
  const Status st = model_->SaveState(w);
  TPR_CHECK(st.ok()) << st.ToString();
  return w.TakeBytes();
}

StatusOr<std::string> WsccalPipeline::Serialize() const {
  return BuildPayload();
}

Status WsccalPipeline::RestorePayload(std::string_view payload) {
  ckpt::Reader r(payload);
  std::string tag;
  TPR_RETURN_IF_ERROR(r.Str(&tag));
  if (tag != kPipelineTag) {
    return Status::FailedPrecondition("not a WSCCL pipeline checkpoint: " +
                                      tag);
  }
  uint32_t version = 0;
  TPR_RETURN_IF_ERROR(r.U32(&version));
  if (version != kPipelineVersion) {
    return Status::FailedPrecondition(
        "unsupported pipeline checkpoint version " + std::to_string(version));
  }
  uint64_t fingerprint = 0;
  TPR_RETURN_IF_ERROR(r.U64(&fingerprint));
  if (fingerprint != ConfigFingerprint(config_)) {
    return Status::FailedPrecondition(
        "checkpoint was trained under a different WSCCL configuration; "
        "refusing to resume");
  }
  uint64_t pool = 0;
  TPR_RETURN_IF_ERROR(r.U64(&pool));
  if (pool != pool_fingerprint_) {
    return Status::FailedPrecondition(
        "checkpoint was trained on a different unlabeled pool; refusing to "
        "resume");
  }
  uint8_t completed = 0;
  TPR_RETURN_IF_ERROR(r.U8(&completed));
  TPR_RETURN_IF_ERROR(r.I32(&next_stage_));
  TPR_RETURN_IF_ERROR(r.I32(&next_epoch_));
  TPR_RETURN_IF_ERROR(r.U64(&global_epoch_));
  TPR_RETURN_IF_ERROR(r.F64(&final_loss_));
  uint32_t num_stages = 0;
  TPR_RETURN_IF_ERROR(r.U32(&num_stages));
  const size_t pool_size = model_->features().data->unlabeled.size();
  if (num_stages > pool_size + 1) {
    return Status::OutOfRange("checkpoint stage count exceeds pool size");
  }
  stages_.assign(num_stages, {});
  for (auto& stage : stages_) {
    uint32_t len = 0;
    TPR_RETURN_IF_ERROR(r.U32(&len));
    if (len > pool_size) {
      return Status::OutOfRange("checkpoint stage length exceeds pool size");
    }
    stage.resize(len);
    for (auto& idx : stage) {
      TPR_RETURN_IF_ERROR(r.I32(&idx));
      if (idx < 0 || static_cast<size_t>(idx) >= pool_size) {
        return Status::OutOfRange("checkpoint stage index out of pool range");
      }
    }
  }
  if (next_stage_ < 0 ||
      next_stage_ > static_cast<int>(stages_.size()) + 1 || next_epoch_ < 0) {
    return Status::OutOfRange("checkpoint schedule cursor out of range");
  }
  completed_ = completed != 0;
  return model_->LoadState(r);
}

StatusOr<std::unique_ptr<WsccalPipeline>> WsccalPipeline::Deserialize(
    std::shared_ptr<const FeatureSpace> features, const WsccalConfig& config,
    std::string_view payload) {
  if (features == nullptr) return Status::InvalidArgument("null features");
  auto pipeline =
      std::unique_ptr<WsccalPipeline>(new WsccalPipeline(*features, config));
  pipeline->model_ = std::make_unique<WscModel>(features, config.wsc);
  TPR_RETURN_IF_ERROR(pipeline->RestorePayload(payload));
  return pipeline;
}

StatusOr<std::unique_ptr<WsccalPipeline>> WsccalPipeline::Start(
    std::shared_ptr<const FeatureSpace> features, const WsccalConfig& config) {
  if (features == nullptr) return Status::InvalidArgument("null features");
  const auto& pool = features->data->unlabeled;
  if (pool.empty()) return Status::InvalidArgument("empty unlabeled pool");
  std::vector<int> all(pool.size());
  std::iota(all.begin(), all.end(), 0);
  auto pipeline =
      std::unique_ptr<WsccalPipeline>(new WsccalPipeline(*features, config));
  StatusOr<std::vector<std::vector<int>>> stages = [&] {
    obs::ScopedSpan span("wsccl.build_curriculum");
    return BuildCurriculum(features, config.wsc, config.curriculum, all);
  }();
  if (!stages.ok()) return stages.status();
  pipeline->stages_ = std::move(*stages);
  {
    obs::ScopedSpan span("wsccl.build_model");
    pipeline->model_ = std::make_unique<WscModel>(features, config.wsc);
  }
  pipeline->completed_ = pipeline->NextEpoch().first >
                         static_cast<int>(pipeline->stages_.size());
  return pipeline;
}

bool WsccalPipeline::HasEpoch(int s, int epoch) const {
  const bool final_stage = s == static_cast<int>(stages_.size());
  const size_t size = final_stage ? model_->features().data->unlabeled.size()
                                  : stages_[s].size();
  return size > 0 &&
         epoch < (final_stage ? config_.final_epochs : config_.stage_epochs);
}

std::pair<int, int> WsccalPipeline::NextEpoch() const {
  int s = next_stage_;
  int epoch = next_epoch_;
  while (s <= static_cast<int>(stages_.size()) && !HasEpoch(s, epoch)) {
    ++s;
    epoch = 0;
  }
  return {s, epoch};
}

StatusOr<size_t> WsccalPipeline::RunEpoch() {
  // Stages ST_1..ST_M easy to hard (Section VI-C), then the final
  // full-data stage ST_{M+1}.
  const int num_stages = static_cast<int>(stages_.size());
  const auto [s, epoch] = NextEpoch();
  if (s > num_stages) {
    return Status::FailedPrecondition("the training schedule is complete");
  }
  const bool final_stage = s == num_stages;
  std::vector<int> all;
  if (final_stage) {
    all.resize(model_->features().data->unlabeled.size());
    std::iota(all.begin(), all.end(), 0);
  }
  const std::vector<int>& indices = final_stage ? all : stages_[s];
  obs::ScopedSpan span(final_stage ? "wsccl.final_stage" : "wsccl.stage",
                       "stage", static_cast<double>(s));
  auto loss = model_->TrainEpoch(indices);
  if (!loss.ok()) return loss.status();
  ++global_epoch_;
  final_loss_ = *loss;
  // The cursor names the NEXT epoch to run, so a checkpoint written now
  // resumes directly after this epoch.
  if (HasEpoch(s, epoch + 1)) {
    next_stage_ = s;
    next_epoch_ = epoch + 1;
  } else {
    next_stage_ = s + 1;
    next_epoch_ = 0;
  }
  completed_ = NextEpoch().first > num_stages;
  return indices.size();
}

StatusOr<std::unique_ptr<WsccalPipeline>> WsccalPipeline::Train(
    std::shared_ptr<const FeatureSpace> features, const WsccalConfig& config) {
  if (features == nullptr) return Status::InvalidArgument("null features");
  if (features->data->unlabeled.empty()) {
    return Status::InvalidArgument("empty unlabeled pool");
  }
  obs::ScopedSpan train_span("wsccl.train");

  std::unique_ptr<WsccalPipeline> pipeline;
  std::unique_ptr<ckpt::CheckpointDir> cdir;
  if (!config.ckpt_dir.empty()) {
    cdir = std::make_unique<ckpt::CheckpointDir>(config.ckpt_dir);
    auto loaded = cdir->LoadLatest();
    if (loaded.ok()) {
      obs::ScopedSpan resume_span("wsccl.resume");
      auto resumed = Deserialize(features, config, loaded->payload);
      if (!resumed.ok()) return resumed.status();
      pipeline = std::move(*resumed);
      if (obs::MetricsEnabled()) {
        obs::GetCounter("wsccl.resumes").Add(1);
        obs::GetGauge("wsccl.resume_epoch")
            .Set(static_cast<double>(pipeline->global_epoch_));
      }
      // A completed checkpoint IS the trained model; nothing to train.
      if (pipeline->completed_) return pipeline;
    }
  }
  if (pipeline == nullptr) {
    auto started = Start(features, config);
    if (!started.ok()) return started.status();
    pipeline = std::move(*started);
  }

  // Watchdog recovery: a DataLoss abort (a run of poisoned batches)
  // rolls the pipeline back to the last durable checkpoint generation
  // and re-runs the schedule from its cursor, a bounded number of times.
  // Any other error — or DataLoss with nothing to roll back to — is
  // returned as-is. Per-stage loss and wall time land in
  // wsccl.stage<i>.* metrics.
  int rollbacks = 0;
  double stage_seconds = 0.0;  // of the running stage, in this process
  while (!pipeline->completed_) {
    const int stage = pipeline->NextEpoch().first;
    Stopwatch sw;
    auto samples = pipeline->RunEpoch();
    if (!samples.ok()) {
      const Status& st = samples.status();
      if (st.code() != StatusCode::kDataLoss || cdir == nullptr ||
          rollbacks >= config.max_watchdog_rollbacks) {
        return st;
      }
      auto reloaded = cdir->LoadLatest();
      if (!reloaded.ok()) return st;
      TPR_RETURN_IF_ERROR(pipeline->RestorePayload(reloaded->payload));
      ++rollbacks;
      obs::GetCounter("wsccl.watchdog_rollbacks").Add(1);
      TPR_LOG(Warning) << "watchdog rollback " << rollbacks << "/"
                       << config.max_watchdog_rollbacks
                       << ": resuming from checkpoint seq " << reloaded->seq
                       << " (" << st.ToString() << ")";
      stage_seconds = 0.0;
      continue;
    }
    stage_seconds += sw.ElapsedSeconds();
    if (pipeline->next_stage_ > stage) {
      if (obs::MetricsEnabled()) {
        const std::string prefix =
            stage == static_cast<int>(pipeline->stages_.size())
                ? "wsccl.final_stage"
                : "wsccl.stage" + std::to_string(stage);
        obs::GetGauge(prefix + ".loss").Set(pipeline->final_loss_);
        obs::GetGauge(prefix + ".seconds").Set(stage_seconds);
      }
      stage_seconds = 0.0;
    }
    if (pipeline->completed_) break;
    const uint64_t epochs = pipeline->global_epoch_;
    if (cdir != nullptr && config.checkpoint_every_n_epochs > 0 &&
        epochs % static_cast<uint64_t>(config.checkpoint_every_n_epochs) ==
            0) {
      obs::ScopedSpan span("wsccl.checkpoint");
      TPR_RETURN_IF_ERROR(cdir->Save(epochs, pipeline->BuildPayload()));
    }
    if (config.stop_after_epochs > 0 &&
        epochs >= static_cast<uint64_t>(config.stop_after_epochs)) {
      // Simulated kill: return the partial pipeline as-is. State past
      // the last periodic checkpoint is intentionally lost.
      return pipeline;
    }
  }

  if (cdir != nullptr) {
    obs::ScopedSpan span("wsccl.checkpoint");
    TPR_RETURN_IF_ERROR(
        cdir->Save(pipeline->global_epoch_, pipeline->BuildPayload()));
  }
  // Training is over: the per-worker arenas hold a full training step's
  // worth of recycled graph buffers each. Hand that memory back so a
  // long-lived process (serving, benches over many cities) does not pin
  // peak-training RSS.
  std::atomic<uint64_t> released{0};
  {
    obs::ScopedSpan span("wsccl.trim_arenas");
    par::DefaultPool().RunOnAllWorkers(
        [&released](int) { released += kern::TrimThreadArena(); });
  }
  if (obs::MetricsEnabled()) {
    obs::GetCounter("nn.arena_trimmed_bytes").Add(released.load());
  }
  return pipeline;
}

}  // namespace tpr::core
