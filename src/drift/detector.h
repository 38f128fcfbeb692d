#ifndef TPR_DRIFT_DETECTOR_H_
#define TPR_DRIFT_DETECTOR_H_

// Serving-time drift detection (`tpr::drift`).
//
// The detector watches the golden-probe travel-time MAE — the same
// deterministic quality signal the rollout gates score candidates on —
// and raises an alarm when it climbs persistently, via a windowed
// Page–Hinkley test in log space:
//
//   observations are averaged into windows of `window` samples; for
//   each closed window with mean u_w, the test tracks
//     x_w   = ln(u_w)
//     mean  = running mean of x_1..x_w
//     m_w   = m_{w-1} + (x_w - mean - delta)
//     PH_w  = m_w - min(m_1..m_w)
//   and alarms when PH_w > lambda after at least `min_windows` windows.
//
// Working in ln(MAE) makes delta/lambda relative: delta is the tolerated
// fractional growth per window (drift allowance), lambda the cumulative
// fractional excess that constitutes drift — so one threshold setting
// works at any MAE scale. Everything is pure sequential arithmetic over
// the observation stream: the statistic is bitwise identical at any
// thread count because thread count never enters the computation.
//
// The verdict of every closed window passes through the `drift-detect`
// fault site: an injected fault flips it, yielding deterministic false
// positives (spurious fine-tunes the rollout gates must absorb) and
// false negatives (missed windows the next window must catch).

#include <cstdint>
#include <string>

#include "core/probe.h"
#include "obs/metrics.h"
#include "synth/traffic_model.h"

namespace tpr::drift {

/// Detector thresholds. Deterministic and config-driven; `FromEnv`
/// overlays the TPR_DRIFT_* environment knobs.
struct DriftDetectorConfig {
  /// Probe-MAE observations averaged into one window.
  int window = 4;

  /// Page–Hinkley drift allowance per window, in log-MAE units
  /// (0.01 tolerates ~1% MAE growth per window).
  double delta = 0.01;

  /// Alarm threshold on the PH statistic, in log-MAE units
  /// (0.25 alarms on ~28% cumulative MAE excess over the baseline).
  double lambda = 0.25;

  /// Windows observed before alarms may fire (baseline warm-up).
  int min_windows = 3;

  /// Windows ignored entirely after Reset() (post-adaptation settling).
  int cooldown_windows = 1;

  /// Obs namespace for this detector's metrics ("shard0." ->
  /// "shard0.drift.windows"). Per-instance — two detectors in one
  /// process with distinct prefixes record independently; the empty
  /// default keeps the historical global names.
  std::string metrics_prefix;

  /// Shard scope installed around each window's `drift-detect` fault
  /// verdict so `drift-detect@shardK` rules target one detector.
  std::string shard;
};

/// Overlays TPR_DRIFT_WINDOW / TPR_DRIFT_DELTA / TPR_DRIFT_LAMBDA /
/// TPR_DRIFT_MIN_WINDOWS / TPR_DRIFT_COOLDOWN onto `defaults`.
/// Malformed values, and values the detector would reject (a window or
/// min_windows below 1, a negative cooldown or delta, a lambda <= 0),
/// are ignored (the default survives).
DriftDetectorConfig DriftDetectorConfigFromEnv(
    DriftDetectorConfig defaults = {});

/// Windowed Page–Hinkley detector over probe-MAE observations. Not
/// thread-safe: feed it from one control thread (determinism depends on
/// observation order, which is the caller's to fix).
class DriftDetector {
 public:
  explicit DriftDetector(const DriftDetectorConfig& config);

  /// Feeds one probe-MAE observation (must be > 0 and finite; anything
  /// else is clamped to the smallest positive normal). Returns true
  /// exactly when this observation closes a window whose — possibly
  /// fault-flipped — verdict raises the alarm. The alarm is sticky:
  /// once raised, further windows are not scored until Reset().
  bool Observe(double mae);

  /// Restarts the baseline (new world after an adaptation) and enters
  /// the cooldown: the next `cooldown_windows` windows are dropped.
  void Reset();

  bool alarmed() const { return alarmed_; }
  double statistic() const { return m_ - m_min_; }
  double baseline_log_mean() const { return mean_; }
  /// Closed windows since construction (monotone; fault-site key).
  uint64_t windows() const { return windows_; }
  uint64_t detections() const { return detections_; }
  const DriftDetectorConfig& config() const { return config_; }

 private:
  bool CloseWindow(double window_mean_mae);

  DriftDetectorConfig config_;
  obs::MetricScope metrics_;  // prefix = config_.metrics_prefix
  double window_sum_ = 0.0;
  int window_count_ = 0;
  uint64_t windows_ = 0;         // all closed windows, never reset
  uint64_t run_windows_ = 0;     // closed windows since last Reset
  int cooldown_left_ = 0;
  double mean_ = 0.0;            // running mean of ln(window MAE)
  double m_ = 0.0;               // PH cumulative deviation
  double m_min_ = 0.0;           // running min of m_
  bool alarmed_ = false;
  uint64_t detections_ = 0;
};

/// Relabels `base`'s probe queries with noise-free travel times under
/// `traffic` — the serving-time ground truth of the current (possibly
/// shifted) regime, on the same fixed query paths/departures.
core::ProbeSet RelabelProbeSet(const core::ProbeSet& base,
                               const synth::TrafficModel& traffic);

}  // namespace tpr::drift

#endif  // TPR_DRIFT_DETECTOR_H_
