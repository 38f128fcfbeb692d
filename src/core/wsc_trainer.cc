#include "core/wsc_trainer.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "fault/fault.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "par/thread_pool.h"
#include "synth/dataset.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace tpr::core {
namespace {

constexpr char kModelTag[] = "wsc-model";
constexpr uint32_t kModelVersion = 1;

}  // namespace

Status WscModel::SaveState(ckpt::Writer& w) const {
  w.Str(kModelTag);
  w.U32(kModelVersion);
  w.U64(step_);
  ckpt::WriteRng(w, rng_);
  ckpt::WriteParamValues(w, encoder_->Parameters());
  ckpt::WriteAdamState(w, *optimizer_);
  return Status::OK();
}

Status WscModel::LoadState(ckpt::Reader& r) {
  std::string tag;
  TPR_RETURN_IF_ERROR(r.Str(&tag));
  if (tag != kModelTag) {
    return Status::FailedPrecondition("not a WSC model checkpoint: " + tag);
  }
  uint32_t version = 0;
  TPR_RETURN_IF_ERROR(r.U32(&version));
  if (version != kModelVersion) {
    return Status::FailedPrecondition(
        "unsupported WSC model checkpoint version " +
        std::to_string(version));
  }
  TPR_RETURN_IF_ERROR(r.U64(&step_));
  TPR_RETURN_IF_ERROR(ckpt::ReadRng(r, &rng_));
  TPR_RETURN_IF_ERROR(ckpt::ReadParamValuesInto(r, encoder_->Parameters()));
  TPR_RETURN_IF_ERROR(ckpt::ReadAdamStateInto(r, optimizer_.get()));
  return Status::OK();
}

int64_t SampleDepartureWithLabel(synth::WeakLabelScheme scheme, int label,
                                 const synth::TrafficModel& traffic,
                                 int64_t fallback, Rng& rng) {
  // The default demand mixture is immutable; constructing it once saves
  // an allocation per rejection-sampling call on the training hot path.
  static const synth::DatasetConfig demand;
  for (int attempt = 0; attempt < 200; ++attempt) {
    const int64_t t = synth::SampleDepartureTime(demand, rng);
    if (synth::WeakLabelFor(scheme, traffic, t) == label) return t;
  }
  return fallback;
}

WscModel::WscModel(std::shared_ptr<const FeatureSpace> features,
                   WscConfig config)
    : features_(std::move(features)), config_(config), rng_(config.seed) {
  TPR_CHECK(features_ != nullptr);
  encoder_ = std::make_unique<TemporalPathEncoder>(features_, config_.encoder);
  optimizer_ = std::make_unique<nn::Adam>(encoder_->Parameters(), config_.lr);
  accumulator_ =
      std::make_unique<nn::GradAccumulator>(encoder_->Parameters());
}

int WscModel::WeakLabelOf(const synth::TemporalPathSample& sample) const {
  return synth::WeakLabelFor(config_.weak_labels, *features_->data->traffic,
                             sample.depart_time_s);
}

StatusOr<double> WscModel::TrainEpoch(const std::vector<int>& indices) {
  if (indices.empty()) return Status::InvalidArgument("no training samples");
  if (!config_.use_global && !config_.use_local) {
    return Status::InvalidArgument("both losses disabled");
  }
  obs::ScopedSpan epoch_span("wsc.train_epoch", "samples",
                             static_cast<double>(indices.size()));
  Stopwatch epoch_sw;
  const auto& pool = features_->data->unlabeled;
  const auto& traffic = *features_->data->traffic;

  std::vector<int> order = indices;
  rng_.Shuffle(order);

  par::ThreadPool& tp = par::DefaultPool();

  double total_loss = 0.0;
  int batches = 0;
  const int anchors = std::max(2, config_.anchors_per_batch);

  for (size_t start = 0; start < order.size(); start += anchors) {
    const size_t end = std::min(order.size(), start + anchors);
    const int batch_anchors = static_cast<int>(end - start);
    if (batch_anchors < 2) break;  // a lone anchor has no negatives

    // Shard structure: contiguous anchor ranges of near-equal size,
    // at least 2 anchors each so every shard can form positives AND
    // negatives. Depends only on the batch, never on the thread count.
    const int num_shards =
        std::clamp(config_.grad_shards, 1, batch_anchors / 2);
    ++step_;
    accumulator_->BeginBatch(num_shards);
    std::vector<double> shard_losses(num_shards,
                                     std::numeric_limits<double>::quiet_NaN());

    tp.ParallelFor(num_shards, [&](int s) {
      obs::ScopedSpan shard_span("wsc.shard", "shard", s);
      // Independent deterministic RNG stream per (batch, shard).
      Rng shard_rng(MixSeed(MixSeed(config_.seed, step_),
                            static_cast<uint64_t>(s)));

      // Build the shard: each anchor plus one generated positive (same
      // path, fresh departure time with the same weak label).
      const size_t lo = start + static_cast<size_t>(batch_anchors) * s /
                                    num_shards;
      const size_t hi = start + static_cast<size_t>(batch_anchors) *
                                    (s + 1) / num_shards;
      std::vector<BatchItem> batch;
      batch.reserve(2 * (hi - lo));
      for (size_t i = lo; i < hi; ++i) {
        const auto& sample = pool[order[i]];
        BatchItem anchor;
        anchor.path = &sample.path;
        anchor.depart_time_s = sample.depart_time_s;
        anchor.weak_label = synth::WeakLabelFor(config_.weak_labels, traffic,
                                                sample.depart_time_s);
        BatchItem positive = anchor;
        positive.depart_time_s = SampleDepartureWithLabel(
            config_.weak_labels, anchor.weak_label, traffic,
            sample.depart_time_s, shard_rng);
        batch.push_back(anchor);
        batch.push_back(positive);
      }

      // Forward pass: this shard's own graph over the shared encoder.
      for (auto& item : batch) {
        item.encoded = encoder_->Encode(*item.path, item.depart_time_s);
      }

      // Joint objective (Eq. 12), as a minimisation.
      std::vector<nn::Var> parts;
      if (config_.use_global) {
        nn::Var g = GlobalWscLoss(batch, config_.loss);
        if (g.defined()) parts.push_back(nn::Scale(g, config_.lambda));
      }
      if (config_.use_local) {
        nn::Var l = LocalWscLoss(batch, config_.loss, shard_rng);
        if (l.defined()) parts.push_back(nn::Scale(l, 1.0f - config_.lambda));
      }
      if (parts.empty()) return;
      nn::Var loss =
          parts.size() == 1 ? parts[0] : nn::Sum(nn::ConcatCols(parts));

      accumulator_->Backward(s, loss);
      shard_losses[s] = loss.scalar();
    });

    const int defined = accumulator_->captured();
    if (defined == 0) continue;

    double batch_loss = 0.0;
    bool finite_loss = true;
    for (double l : shard_losses) {
      if (std::isnan(l)) continue;  // NaN marks an undefined shard
      if (!std::isfinite(l)) finite_loss = false;
      batch_loss += l;
    }
    if (!std::isfinite(batch_loss)) finite_loss = false;

    // Deterministic reduction (fixed shard order), then one Adam step on
    // the shared parameters.
    accumulator_->Reduce(1.0f / static_cast<float>(defined));
    const float grad_norm = optimizer_->ClipGradNorm(config_.grad_clip);

    // Watchdog: a non-finite loss, an exploding pre-clip gradient norm,
    // or an injected nan-loss fault (drills) marks the batch bad. Bad
    // batches are skipped — the next Reduce overwrites the gradients
    // reduced here — and a long enough streak aborts the epoch so the
    // pipeline can roll back to the last checkpoint.
    if (config_.watchdog_max_consecutive_bad > 0) {
      const bool bad = !finite_loss || !std::isfinite(grad_norm) ||
                       grad_norm > config_.watchdog_max_grad_norm ||
                       fault::ShouldFail(fault::kNanLoss, step_);
      if (bad) {
        ++consecutive_bad_;
        obs::GetCounter("wsc.watchdog_skipped").Add(1);
        TPR_LOG(Warning) << "watchdog: skipping bad batch at step " << step_
                         << " (loss=" << batch_loss
                         << ", grad_norm=" << grad_norm << ", streak "
                         << consecutive_bad_ << "/"
                         << config_.watchdog_max_consecutive_bad << ")";
        if (consecutive_bad_ >= config_.watchdog_max_consecutive_bad) {
          consecutive_bad_ = 0;
          return Status::DataLoss(
              "watchdog: " +
              std::to_string(config_.watchdog_max_consecutive_bad) +
              " consecutive bad batches (last step " +
              std::to_string(step_) + ")");
        }
        continue;
      }
      consecutive_bad_ = 0;
    }
    optimizer_->Step();

    total_loss += batch_loss / defined;
    ++batches;
  }
  if (batches == 0) return Status::Internal("no batches were formed");
  const double mean_loss = total_loss / batches;
  if (obs::MetricsEnabled()) {
    obs::GetCounter("wsc.batches").Add(batches);
    obs::GetHistogram("wsc.epoch_seconds").Observe(epoch_sw.ElapsedSeconds());
    obs::GetGauge("wsc.last_epoch_loss").Set(mean_loss);
  }
  return mean_loss;
}

}  // namespace tpr::core
