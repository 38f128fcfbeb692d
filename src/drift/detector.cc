#include "drift/detector.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "fault/fault.h"
#include "obs/metrics.h"
#include "util/env.h"
#include "util/logging.h"

namespace tpr::drift {

DriftDetectorConfig DriftDetectorConfigFromEnv(DriftDetectorConfig defaults) {
  defaults.window = EnvNumber("TPR_DRIFT_WINDOW", defaults.window, 1);
  defaults.delta = EnvNumber("TPR_DRIFT_DELTA", defaults.delta, 0.0);
  defaults.lambda =
      EnvNumber("TPR_DRIFT_LAMBDA", defaults.lambda, kSmallestPositive);
  defaults.min_windows =
      EnvNumber("TPR_DRIFT_MIN_WINDOWS", defaults.min_windows, 1);
  defaults.cooldown_windows =
      EnvNumber("TPR_DRIFT_COOLDOWN", defaults.cooldown_windows, 0);
  return defaults;
}

DriftDetector::DriftDetector(const DriftDetectorConfig& config)
    : config_(config), metrics_(config_.metrics_prefix) {
  TPR_CHECK(config_.window > 0);
  TPR_CHECK(config_.min_windows > 0);
  TPR_CHECK(config_.cooldown_windows >= 0);
  TPR_CHECK(config_.delta >= 0.0);
  TPR_CHECK(config_.lambda > 0.0);
}

bool DriftDetector::Observe(double mae) {
  if (!std::isfinite(mae) || mae <= 0.0) {
    mae = std::numeric_limits<double>::min();
  }
  window_sum_ += mae;
  if (++window_count_ < config_.window) return false;
  const double window_mean = window_sum_ / config_.window;
  window_sum_ = 0.0;
  window_count_ = 0;
  return CloseWindow(window_mean);
}

bool DriftDetector::CloseWindow(double window_mean_mae) {
  // Per-instance handles: two detectors in one process (fleet shards)
  // must not fold into whichever instance's prefix resolved first, which
  // is exactly what the former function-local statics did.
  obs::Counter& windows_counter = metrics_.counter("drift.windows");
  obs::Counter& detections_counter = metrics_.counter("drift.detections");
  obs::Gauge& mae_gauge = metrics_.gauge("drift.window_mae");
  obs::Gauge& stat_gauge = metrics_.gauge("drift.ph_statistic");
  obs::Gauge& mean_gauge = metrics_.gauge("drift.baseline_log_mean");

  ++windows_;
  windows_counter.Add();
  mae_gauge.Set(window_mean_mae);
  if (cooldown_left_ > 0) {
    --cooldown_left_;
    return false;
  }
  if (alarmed_) return false;  // sticky: hold until Reset()

  const double x = std::log(window_mean_mae);
  ++run_windows_;
  mean_ += (x - mean_) / static_cast<double>(run_windows_);
  m_ += x - mean_ - config_.delta;
  m_min_ = std::min(m_min_, m_);
  const double stat = m_ - m_min_;
  stat_gauge.Set(stat);
  mean_gauge.Set(mean_);

  bool alarm = run_windows_ >= static_cast<uint64_t>(config_.min_windows) &&
               stat > config_.lambda;
  // The fault site flips the verdict: injected false positives exercise
  // the spurious-fine-tune path, injected false negatives delay
  // detection by a window. Keyed by the monotone window counter, so a
  // p-mode plan yields the same flip pattern on every run.
  bool flipped;
  {
    fault::ScopedShard shard_scope(config_.shard);
    flipped = fault::ShouldFail(fault::kDriftDetect, windows_);
  }
  if (flipped) alarm = !alarm;
  if (alarm) {
    alarmed_ = true;
    ++detections_;
    detections_counter.Add();
  }
  return alarm;
}

void DriftDetector::Reset() {
  window_sum_ = 0.0;
  window_count_ = 0;
  run_windows_ = 0;
  cooldown_left_ = config_.cooldown_windows;
  mean_ = 0.0;
  m_ = 0.0;
  m_min_ = 0.0;
  alarmed_ = false;
}

core::ProbeSet RelabelProbeSet(const core::ProbeSet& base,
                               const synth::TrafficModel& traffic) {
  core::ProbeSet fresh;
  fresh.ridge_lambda = base.ridge_lambda;
  fresh.queries.reserve(base.queries.size());
  for (const core::ProbeQuery& q : base.queries) {
    core::ProbeQuery r = q;
    r.travel_time_s = traffic.PathTravelTime(
        q.path, static_cast<double>(q.depart_time_s));
    fresh.queries.push_back(std::move(r));
  }
  return fresh;
}

}  // namespace tpr::drift
