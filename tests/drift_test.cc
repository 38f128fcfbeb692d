#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/checkpoint.h"
#include "core/features.h"
#include "core/probe.h"
#include "drift/adaptation.h"
#include "drift/detector.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "par/thread_pool.h"
#include "rollout/controller.h"
#include "rollout/manifest.h"
#include "serve/service.h"
#include "synth/dataset.h"
#include "synth/presets.h"
#include "synth/regime.h"

namespace tpr::drift {
namespace {

using core::FeatureSpace;
using serve::InferenceService;
using serve::ServiceConfig;

std::string ScratchDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "tpr_drift_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

uint64_t Bits(double v) {
  uint64_t b = 0;
  static_assert(sizeof b == sizeof v);
  __builtin_memcpy(&b, &v, sizeof b);
  return b;
}

// ---------------------------------------------------------------------------
// Detector unit tests: the windowed Page–Hinkley statistic in log space.
// ---------------------------------------------------------------------------

DriftDetectorConfig TinyDetector() {
  DriftDetectorConfig cfg;
  cfg.window = 4;
  cfg.delta = 0.01;
  cfg.lambda = 0.25;
  cfg.min_windows = 3;
  cfg.cooldown_windows = 1;
  return cfg;
}

class DetectorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::ClearPlan();
    obs::SetMetricsEnabled(true);
    obs::ResetAllMetrics();
  }
  void TearDown() override {
    fault::ClearPlan();
    obs::SetMetricsEnabled(false);
  }
};

TEST_F(DetectorTest, StationarySignalNeverAlarms) {
  DriftDetector det(TinyDetector());
  for (int i = 0; i < 40; ++i) {
    EXPECT_FALSE(det.Observe(10.0)) << "observation " << i;
  }
  EXPECT_FALSE(det.alarmed());
  EXPECT_EQ(det.windows(), 10u);
  EXPECT_EQ(det.detections(), 0u);
  // Constant input: the cumulative deviation only loses delta per window,
  // so the statistic stays pinned at zero.
  EXPECT_DOUBLE_EQ(det.statistic(), 0.0);
  EXPECT_NEAR(det.baseline_log_mean(), std::log(10.0), 1e-12);
  EXPECT_EQ(obs::GetCounter("drift.windows").value(), 10u);
  EXPECT_DOUBLE_EQ(obs::GetGauge("drift.window_mae").value(), 10.0);
}

TEST_F(DetectorTest, StepChangeAlarmsAtADeterministicWindow) {
  DriftDetector det(TinyDetector());
  // Five quiet windows at MAE 10, then the world shifts to MAE 15 — a
  // 50% relative regression. ln(15/10) ≈ 0.405 per window dwarfs the
  // 0.01 drift allowance, so the very first post-shift window crosses
  // lambda = 0.25.
  int alarm_obs = -1;
  int obs_no = 0;
  for (int i = 0; i < 5 * 4; ++i, ++obs_no) ASSERT_FALSE(det.Observe(10.0));
  for (int i = 0; i < 2 * 4 && alarm_obs < 0; ++i, ++obs_no) {
    if (det.Observe(15.0)) alarm_obs = obs_no;
  }
  EXPECT_EQ(alarm_obs, 23) << "alarm must fire exactly when window 6 closes";
  EXPECT_TRUE(det.alarmed());
  EXPECT_EQ(det.detections(), 1u);
  EXPECT_GT(det.statistic(), det.config().lambda);
  EXPECT_EQ(obs::GetCounter("drift.detections").value(), 1u);

  // Sticky: further windows are not scored until Reset().
  for (int i = 0; i < 8; ++i) EXPECT_FALSE(det.Observe(30.0));
  EXPECT_EQ(det.detections(), 1u);

  // Reset rebuilds the baseline on the new world; the first window after
  // reset is dropped (cooldown), and a now-stationary signal stays quiet.
  det.Reset();
  EXPECT_FALSE(det.alarmed());
  for (int i = 0; i < 6 * 4; ++i) {
    EXPECT_FALSE(det.Observe(15.0)) << "observation " << i;
  }
  EXPECT_EQ(det.detections(), 1u);
}

TEST_F(DetectorTest, NonFiniteObservationsAreClampedNotFatal) {
  DriftDetector det(TinyDetector());
  const double bad[] = {std::nan(""), -3.0, 0.0,
                        std::numeric_limits<double>::infinity()};
  for (double v : bad) det.Observe(v);  // one full window of garbage
  EXPECT_EQ(det.windows(), 1u);
  EXPECT_TRUE(std::isfinite(det.statistic()));
  EXPECT_TRUE(std::isfinite(det.baseline_log_mean()));
  for (int i = 0; i < 40; ++i) det.Observe(10.0);
  EXPECT_TRUE(std::isfinite(det.statistic()));
}

TEST_F(DetectorTest, StatisticIsBitwiseDeterministicAcrossRunsAndThreadCounts) {
  // The statistic is pure sequential arithmetic over the observation
  // stream — thread count never enters it. Pin that: the same stream
  // yields bit-identical statistics under 1-thread and 4-thread pools.
  auto run = [] {
    DriftDetector det(TinyDetector());
    std::vector<uint64_t> stats;
    for (int i = 0; i < 64; ++i) {
      det.Observe(10.0 + 0.25 * (i % 7) + (i >= 40 ? 4.0 : 0.0));
      stats.push_back(Bits(det.statistic()));
    }
    stats.push_back(det.detections());
    return stats;
  };
  const int before = par::DefaultPool().num_threads();
  par::SetDefaultThreads(1);
  const auto solo = run();
  par::SetDefaultThreads(4);
  const auto quad = run();
  par::SetDefaultThreads(before);
  EXPECT_EQ(solo, run());
  EXPECT_EQ(solo, quad);
}

TEST_F(DetectorTest, FaultSiteFlipsVerdictsBothWays) {
  // p=1 flips EVERY verdict: a stationary signal false-positives on the
  // first scored window...
  auto plan = fault::FaultPlan::Parse("drift-detect:p=1");
  ASSERT_TRUE(plan.ok());
  fault::InstallPlan(*std::move(plan));
  DriftDetector fp(TinyDetector());
  int alarm_window = -1;
  for (int i = 0; i < 5 * 4 && alarm_window < 0; ++i) {
    if (fp.Observe(10.0)) alarm_window = static_cast<int>(fp.windows());
  }
  EXPECT_EQ(alarm_window, 1) << "injected false positive";
  EXPECT_EQ(obs::GetCounter("fault.drift-detect.injected").value(), 1u);

  // ...and an nth=6 plan suppresses the genuine window-6 alarm (false
  // negative), so detection lands one window later.
  fault::ClearPlan();
  plan = fault::FaultPlan::Parse("drift-detect:nth=6");
  ASSERT_TRUE(plan.ok());
  fault::InstallPlan(*std::move(plan));
  DriftDetector fn(TinyDetector());
  alarm_window = -1;
  for (int i = 0; i < 5 * 4; ++i) ASSERT_FALSE(fn.Observe(10.0));
  for (int i = 0; i < 3 * 4 && alarm_window < 0; ++i) {
    if (fn.Observe(15.0)) alarm_window = static_cast<int>(fn.windows());
  }
  EXPECT_EQ(alarm_window, 7)
      << "suppressed at window 6, caught at window 7";
  fault::ClearPlan();
}

TEST_F(DetectorTest, ConfigFromEnvOverlaysAndIgnoresGarbage) {
  ::setenv("TPR_DRIFT_WINDOW", "8", 1);
  ::setenv("TPR_DRIFT_DELTA", "0.02", 1);
  ::setenv("TPR_DRIFT_LAMBDA", "not-a-number", 1);
  ::setenv("TPR_DRIFT_MIN_WINDOWS", "5", 1);
  ::setenv("TPR_DRIFT_COOLDOWN", "2", 1);
  DriftDetectorConfig cfg = DriftDetectorConfigFromEnv();
  ::unsetenv("TPR_DRIFT_WINDOW");
  ::unsetenv("TPR_DRIFT_DELTA");
  ::unsetenv("TPR_DRIFT_LAMBDA");
  ::unsetenv("TPR_DRIFT_MIN_WINDOWS");
  ::unsetenv("TPR_DRIFT_COOLDOWN");
  EXPECT_EQ(cfg.window, 8);
  EXPECT_DOUBLE_EQ(cfg.delta, 0.02);
  EXPECT_DOUBLE_EQ(cfg.lambda, DriftDetectorConfig{}.lambda)
      << "malformed value must keep the default";
  EXPECT_EQ(cfg.min_windows, 5);
  EXPECT_EQ(cfg.cooldown_windows, 2);

  ::setenv("TPR_DRIFT_EPOCHS", "9", 1);
  AdaptationConfig acfg = AdaptationConfigFromEnv(AdaptationConfig{});
  ::unsetenv("TPR_DRIFT_EPOCHS");
  EXPECT_EQ(acfg.total_epochs, 9);

  // Out of range is garbage too: the detector and the controller would
  // abort on it at construction. A zero cooldown and a zero delta are
  // valid; a double as large as 99999999999 is in range.
  const DriftDetectorConfig dflt;
  const AdaptationConfig adflt;
  const std::vector<const char*> knobs = {
      "TPR_DRIFT_WINDOW", "TPR_DRIFT_DELTA", "TPR_DRIFT_LAMBDA",
      "TPR_DRIFT_MIN_WINDOWS", "TPR_DRIFT_COOLDOWN", "TPR_DRIFT_EPOCHS",
      "TPR_DRIFT_EPOCHS_PER_TICK"};
  for (const char* bad : {"0", "-3", "99999999999"}) {
    SCOPED_TRACE(bad);
    for (const char* knob : knobs) ::setenv(knob, bad, 1);
    cfg = DriftDetectorConfigFromEnv();
    acfg = AdaptationConfigFromEnv(AdaptationConfig{});
    for (const char* knob : knobs) ::unsetenv(knob);
    const double parsed = std::strtod(bad, nullptr);
    EXPECT_EQ(cfg.window, dflt.window);
    EXPECT_EQ(cfg.min_windows, dflt.min_windows);
    EXPECT_EQ(cfg.cooldown_windows,
              std::string(bad) == "0" ? 0 : dflt.cooldown_windows);
    EXPECT_DOUBLE_EQ(cfg.delta, parsed >= 0.0 ? parsed : dflt.delta);
    EXPECT_DOUBLE_EQ(cfg.lambda, parsed > 0.0 ? parsed : dflt.lambda);
    EXPECT_EQ(acfg.total_epochs, adflt.total_epochs);
    EXPECT_EQ(acfg.epochs_per_tick, adflt.epochs_per_tick);
  }
}

// ---------------------------------------------------------------------------
// Fixture: tiny city + features, built once for the adaptation suite.
// ---------------------------------------------------------------------------

class DriftTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto preset = synth::AalborgPreset();
    synth::ScaleDataset(preset, 0.1);
    auto ds = synth::BuildPresetDataset(preset);
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    data_ = new std::shared_ptr<synth::CityDataset>(
        std::make_shared<synth::CityDataset>(std::move(*ds)));
    core::FeatureConfig fc;
    fc.temporal_graph.slots_per_day = 48;
    fc.node2vec.walks_per_node = 2;
    fc.node2vec.epochs = 1;
    auto fs = core::BuildFeatureSpace(*data_, fc);
    ASSERT_TRUE(fs.ok()) << fs.status().ToString();
    features_ = new std::shared_ptr<const FeatureSpace>(
        std::make_shared<const FeatureSpace>(std::move(*fs)));

    // One fresh post-shift window, shared by every test: incidents on 5%
    // of edges plus a holiday-season demand surge.
    synth::RegimeShiftConfig incident;
    incident.kind = synth::RegimeKind::kIncident;
    incident.seed = 11;
    incident.edge_fraction = 0.05;
    synth::RegimeShiftConfig seasonal;
    seasonal.kind = synth::RegimeKind::kSeasonalDemand;
    seasonal.demand_scale = 1.4;
    const synth::RegimeShift shift =
        Compose(synth::MakeRegimeShift(*(*data_)->network, incident),
                synth::MakeRegimeShift(*(*data_)->network, seasonal));
    synth::DatasetConfig fresh_cfg;
    fresh_cfg.num_unlabeled_trajectories = 40;
    fresh_cfg.departures_per_trajectory = 2;
    fresh_cfg.num_labeled_groups = 30;
    fresh_cfg.alternatives_per_group = 2;
    fresh_cfg.seed = 777;
    auto fresh = synth::GenerateShiftedDataset(**data_, shift, fresh_cfg);
    ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
    fresh_ = new std::shared_ptr<const synth::CityDataset>(
        std::make_shared<const synth::CityDataset>(std::move(*fresh)));
  }

  static void TearDownTestSuite() {
    delete fresh_;
    fresh_ = nullptr;
    delete features_;
    features_ = nullptr;
    delete data_;
    data_ = nullptr;
  }

  void SetUp() override {
    fault::ClearPlan();
    obs::SetMetricsEnabled(true);
    obs::ResetAllMetrics();
  }
  void TearDown() override {
    fault::ClearPlan();
    obs::SetMetricsEnabled(false);
  }

  static core::EncoderConfig TinyEncoder() {
    core::EncoderConfig cfg;
    cfg.d_hidden = 16;
    cfg.projection_dim = 8;
    return cfg;
  }

  static core::WscConfig TinyWsc() {
    core::WscConfig cfg;
    cfg.encoder = TinyEncoder();
    cfg.anchors_per_batch = 6;
    return cfg;
  }

  static ServiceConfig TinyService() {
    ServiceConfig cfg;
    cfg.num_workers = 2;
    cfg.queue_capacity = 128;
    cfg.block_when_full = true;
    cfg.max_retries = 2;
    cfg.backoff_base_ms = 0.01;
    cfg.backoff_max_ms = 0.05;
    cfg.cache_capacity = 256;
    cfg.time_bucket_s = 600;
    cfg.canary_permille = 300;
    cfg.canary_promote_after = 8;
    return cfg;
  }

  static AdaptationConfig TinyAdaptation(const std::string& model_dir) {
    AdaptationConfig cfg;
    cfg.model_dir = model_dir;
    cfg.finetune_dir = model_dir + "/finetune";
    cfg.wsc = TinyWsc();
    cfg.total_epochs = 2;
    cfg.epochs_per_tick = 1;
    cfg.probe_queries = 32;
    return cfg;
  }

  /// Fast-alarm detector: two-observation windows, alarm allowed from
  /// window 2 on.
  static DriftDetectorConfig FastDetector() {
    DriftDetectorConfig cfg;
    cfg.window = 2;
    cfg.delta = 0.01;
    cfg.lambda = 0.25;
    cfg.min_windows = 2;
    cfg.cooldown_windows = 1;
    return cfg;
  }

  const synth::CityDataset& data() { return **data_; }
  std::shared_ptr<const FeatureSpace> features() { return *features_; }
  std::shared_ptr<const synth::CityDataset> fresh() { return *fresh_; }

  std::shared_ptr<core::TemporalPathEncoder> MakeEncoder() {
    return std::make_shared<core::TemporalPathEncoder>(features(),
                                                       TinyEncoder());
  }

  static std::shared_ptr<synth::CityDataset>* data_;
  static std::shared_ptr<const FeatureSpace>* features_;
  static std::shared_ptr<const synth::CityDataset>* fresh_;
};

std::shared_ptr<synth::CityDataset>* DriftTest::data_ = nullptr;
std::shared_ptr<const FeatureSpace>* DriftTest::features_ = nullptr;
std::shared_ptr<const synth::CityDataset>* DriftTest::fresh_ = nullptr;

TEST_F(DriftTest, RelabelProbeSetSwapsLabelsOntoTheShiftedWorld) {
  const core::ProbeSet base = core::BuildProbeSet(data(), 32, 5);
  const core::ProbeSet shifted = RelabelProbeSet(base, *fresh()->traffic);
  ASSERT_EQ(shifted.queries.size(), base.queries.size());
  int changed = 0;
  for (size_t i = 0; i < base.queries.size(); ++i) {
    EXPECT_EQ(shifted.queries[i].path, base.queries[i].path);
    EXPECT_EQ(shifted.queries[i].depart_time_s, base.queries[i].depart_time_s);
    EXPECT_GT(shifted.queries[i].travel_time_s, 0.0);
    if (std::fabs(shifted.queries[i].travel_time_s -
                  base.queries[i].travel_time_s) > 1.0) {
      ++changed;
    }
  }
  EXPECT_GT(changed, 0) << "the regime shift must move some labels";
}

// ---------------------------------------------------------------------------
// Full loop: detect -> fine-tune -> candidate -> canary -> promote, with
// the incumbent serving untouched throughout.
// ---------------------------------------------------------------------------

TEST_F(DriftTest, DetectionFineTunesAndPromotesThroughTheRolloutGates) {
  const std::string dir = ScratchDir("loop");
  auto enc = MakeEncoder();
  ASSERT_TRUE(InferenceService::SaveModel(*enc, dir, 1).ok());

  InferenceService svc(features(), TinyEncoder(), TinyService());
  rollout::RolloutConfig rcfg;
  rcfg.model_dir = dir;
  // The plumbing is under test, not the learning curve: a generous
  // budget keeps the fine-tuned candidate inside the quality gate.
  rcfg.quality_budget = 0.50;
  rcfg.quantize_twins = false;
  rollout::RolloutController rollout(&svc, features(), TinyEncoder(),
                                     core::BuildProbeSet(data(), 48, 5), rcfg);
  ASSERT_TRUE(rollout.Init().ok());
  ASSERT_TRUE(rollout.Tick().ok());  // bootstrap gen 1
  ASSERT_EQ(svc.model_generation(), 1u);
  ASSERT_TRUE(svc.Start().ok());

  AdaptationController adapt(features(), &svc, &rollout, FastDetector(),
                             TinyAdaptation(dir));

  // Quiet serving: stationary probe MAE, no alarm, ticks are no-ops.
  for (int i = 0; i < 8; ++i) ASSERT_FALSE(adapt.ObserveProbeMae(12.0));
  auto quiet = adapt.Tick(fresh());
  ASSERT_TRUE(quiet.ok()) << quiet.status().ToString();
  EXPECT_TRUE(quiet->events.empty());
  EXPECT_EQ(adapt.state(), AdaptState::kIdle);

  // The shift lands: probe MAE jumps 2x and the detector alarms.
  bool alarmed = false;
  for (int i = 0; i < 8 && !alarmed; ++i) {
    alarmed = adapt.ObserveProbeMae(24.0);
  }
  ASSERT_TRUE(alarmed);

  // Launch tick: warm start from gen 1, curriculum over the fresh pool,
  // rollout probe refreshed onto the post-shift labels.
  auto launch = adapt.Tick(fresh());
  ASSERT_TRUE(launch.ok()) << launch.status().ToString();
  EXPECT_EQ(adapt.state(), AdaptState::kFineTuning);
  EXPECT_EQ(adapt.fine_tunes_launched(), 1u);
  EXPECT_EQ(adapt.candidate_generation(), 2u);
  auto has_event = [](const AdaptReport& r, const std::string& needle) {
    for (const std::string& e : r.events) {
      if (e.find(needle) != std::string::npos) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_event(*launch, "fine-tune launched"));
  EXPECT_TRUE(has_event(*launch, "rollout probe refreshed"));

  // Two epochs at one per tick, then the candidate publishes.
  bool published = false;
  for (int i = 0; i < 4 && !published; ++i) {
    auto r = adapt.Tick(fresh());
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    published = r->published;
  }
  ASSERT_TRUE(published);
  EXPECT_EQ(adapt.state(), AdaptState::kCooldown);
  EXPECT_EQ(adapt.fine_tunes_published(), 1u);
  EXPECT_FALSE(std::filesystem::exists(dir + "/finetune"))
      << "fine-tune state must be cleaned up after publish";
  // While the rollout lineage is unresolved, cooldown holds and new
  // observations are ignored.
  EXPECT_FALSE(adapt.ObserveProbeMae(24.0));

  // The rollout controller picks the candidate up and canaries it
  // against the refreshed (post-shift) probe.
  auto scan = rollout.Tick();
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  ASSERT_TRUE(svc.canary_status().installed);
  EXPECT_EQ(svc.canary_status().generation, 2u);
  EXPECT_GE(obs::GetCounter("rollout.probe_refreshes").value(), 1u);
  auto held = adapt.Tick(fresh());
  ASSERT_TRUE(held.ok());
  EXPECT_EQ(adapt.state(), AdaptState::kCooldown) << "canary still in flight";

  // Incumbent traffic flows clean through the whole canary.
  std::vector<std::future<serve::ServeResult>> futures;
  for (int i = 0; i < 64; ++i) {
    const auto& s = data().unlabeled[static_cast<size_t>(i) %
                                     data().unlabeled.size()];
    serve::PathQuery q;
    q.path = s.path;
    q.depart_time_s = s.depart_time_s;
    q.id = static_cast<uint64_t>(i) + 1;
    auto submitted = svc.Submit(q);
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    futures.push_back(std::move(*submitted));
  }
  for (auto& f : futures) {
    serve::ServeResult r = f.get();
    EXPECT_TRUE(r.status.ok()) << r.status.ToString();
  }
  auto fold = rollout.Tick();
  ASSERT_TRUE(fold.ok()) << fold.status().ToString();
  EXPECT_EQ(svc.model_generation(), 2u) << "adapted candidate promoted";
  const rollout::ModelRecord* rec = rollout.manifest().Find(2);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->state, rollout::ModelState::kLive);

  // Promotion pinned the new live generation against ckpt pruning.
  EXPECT_EQ(ckpt::CheckpointDir(dir).PinnedSeq().value_or(0), 2u);

  // Cooldown resolves and the loop re-arms with a fresh baseline.
  auto rearm = adapt.Tick(fresh());
  ASSERT_TRUE(rearm.ok());
  EXPECT_EQ(adapt.state(), AdaptState::kIdle);
  EXPECT_FALSE(adapt.detector().alarmed());
  svc.Shutdown();
}

TEST_F(DriftTest, LaunchWithoutLiveGenerationIsFailedPrecondition) {
  const std::string dir = ScratchDir("nolive");
  InferenceService svc(features(), TinyEncoder(), TinyService());
  AdaptationController adapt(features(), &svc, nullptr, FastDetector(),
                             TinyAdaptation(dir));
  EXPECT_EQ(adapt.ForceStartFineTune(fresh()).code(),
            StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// Bitwise determinism: a fine-tune killed at an epoch boundary and
// resumed publishes the exact same candidate bytes as an uninterrupted
// run, at 1 and at 4 threads.
// ---------------------------------------------------------------------------

class DriftResumeTest : public DriftTest {
 protected:
  /// Runs a fine-tune to completion against `model_dir` (which must hold
  /// live gen 1), publishing candidate gen 7 into `publish_dir`. When
  /// `kill_after_first_epoch`, the controller is destroyed after one
  /// epoch and a NEW controller resumes from the checkpointed state.
  void RunFineTune(const std::string& model_dir,
                   const std::string& publish_dir,
                   const std::string& finetune_dir,
                   bool kill_after_first_epoch, uint64_t* resumes_out) {
    InferenceService svc(features(), TinyEncoder(), TinyService());
    auto enc = MakeEncoder();
    svc.InstallModel(enc, 1, nullptr);

    AdaptationConfig cfg = TinyAdaptation(model_dir);
    cfg.publish_dir = publish_dir;
    cfg.finetune_dir = finetune_dir;
    cfg.total_epochs = 3;
    cfg.forced_candidate_generation = 7;

    auto drive = [&](AdaptationController& ctl, int max_ticks) {
      for (int i = 0; i < max_ticks; ++i) {
        if (ctl.state() == AdaptState::kCooldown) return;
        auto r = ctl.Tick(fresh());
        ASSERT_TRUE(r.ok()) << r.status().ToString();
      }
    };

    if (kill_after_first_epoch) {
      {
        AdaptationController ctl(features(), &svc, nullptr, FastDetector(),
                                 cfg);
        ASSERT_TRUE(ctl.ForceStartFineTune(fresh()).ok());
        auto r = ctl.Tick(fresh());  // epoch 1 of 3, then "killed"
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        ASSERT_EQ(ctl.state(), AdaptState::kFineTuning);
      }
      AdaptationController resumed(features(), &svc, nullptr, FastDetector(),
                                   cfg);
      drive(resumed, 8);
      EXPECT_EQ(resumed.fine_tunes_resumed(), 1u);
      EXPECT_EQ(resumed.fine_tunes_published(), 1u);
      if (resumes_out) *resumes_out = resumed.fine_tunes_resumed();
    } else {
      AdaptationController ctl(features(), &svc, nullptr, FastDetector(),
                               cfg);
      ASSERT_TRUE(ctl.ForceStartFineTune(fresh()).ok());
      drive(ctl, 8);
      EXPECT_EQ(ctl.fine_tunes_published(), 1u);
      if (resumes_out) *resumes_out = ctl.fine_tunes_resumed();
    }
  }

  static std::string CandidateBytes(const std::string& dir) {
    auto bytes = ckpt::ReadFileBytes(ckpt::CheckpointDir(dir).PathFor(7));
    EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
    return bytes.ok() ? *bytes : std::string();
  }
};

TEST_F(DriftResumeTest, KilledAndResumedFineTunePublishesIdenticalBytes) {
  const std::string model_dir = ScratchDir("resume_model");
  auto enc = MakeEncoder();
  ASSERT_TRUE(InferenceService::SaveModel(*enc, model_dir, 1).ok());

  // Reference: straight through.
  const std::string ref_out = ScratchDir("resume_ref");
  RunFineTune(model_dir, ref_out, ScratchDir("resume_ref_ft"),
              /*kill_after_first_epoch=*/false, nullptr);
  if (HasFatalFailure()) return;
  const std::string ref = CandidateBytes(ref_out);
  ASSERT_FALSE(ref.empty());

  // Fine-tuning actually moved the parameters off the warm start.
  auto source = ckpt::ReadFileBytes(ckpt::CheckpointDir(model_dir).PathFor(1));
  ASSERT_TRUE(source.ok());
  EXPECT_NE(ref, *source);

  // Kill + resume must reproduce the reference bytes exactly.
  uint64_t resumes = 0;
  const std::string kill_out = ScratchDir("resume_kill");
  RunFineTune(model_dir, kill_out, ScratchDir("resume_kill_ft"),
              /*kill_after_first_epoch=*/true, &resumes);
  if (HasFatalFailure()) return;
  EXPECT_EQ(resumes, 1u);
  EXPECT_EQ(obs::GetCounter("drift.finetune_resumes").value(), 1u);
  EXPECT_EQ(CandidateBytes(kill_out), ref)
      << "kill+resume diverged from the uninterrupted run";

  // And the whole thing is thread-count independent.
  const int before = par::DefaultPool().num_threads();
  par::SetDefaultThreads(4);
  const std::string quad_out = ScratchDir("resume_quad");
  RunFineTune(model_dir, quad_out, ScratchDir("resume_quad_ft"),
              /*kill_after_first_epoch=*/true, nullptr);
  par::SetDefaultThreads(before);
  if (HasFatalFailure()) return;
  EXPECT_EQ(CandidateBytes(quad_out), ref)
      << "4-thread kill+resume diverged from the 1-thread reference";
}

TEST_F(DriftResumeTest, ResumeRefusesAForeignOrStaleState) {
  const std::string model_dir = ScratchDir("refuse_model");
  auto enc = MakeEncoder();
  ASSERT_TRUE(InferenceService::SaveModel(*enc, model_dir, 1).ok());
  InferenceService svc(features(), TinyEncoder(), TinyService());
  svc.InstallModel(enc, 1, nullptr);

  const auto refused = [](const AdaptReport& report) {
    for (const std::string& e : report.events) {
      if (e.find("resume refused") != std::string::npos) return true;
    }
    return false;
  };

  // A foreign payload in the fine-tune dir: the first tick refuses it,
  // wipes the state, and stays idle.
  AdaptationConfig cfg = TinyAdaptation(model_dir);
  cfg.finetune_dir = ScratchDir("refuse_ft");
  ASSERT_TRUE(
      ckpt::CheckpointDir(cfg.finetune_dir).Save(1, "not drift state").ok());
  AdaptationController ctl(features(), &svc, nullptr, FastDetector(), cfg);
  auto r = ctl.Tick(fresh());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(ctl.state(), AdaptState::kIdle);
  EXPECT_EQ(ctl.fine_tunes_resumed(), 0u);
  EXPECT_TRUE(refused(*r));
  EXPECT_FALSE(std::filesystem::exists(cfg.finetune_dir))
      << "refused state must be wiped";

  // A stale state: a fine-tune killed after epoch 1 on fresh pool A and
  // ticked with pool B. Its curriculum indexes pool A's trajectories, so
  // the resume is refused the same way.
  AdaptationConfig stale_cfg = TinyAdaptation(model_dir);
  stale_cfg.finetune_dir = ScratchDir("refuse_stale_ft");
  {
    AdaptationController killed(features(), &svc, nullptr, FastDetector(),
                                 stale_cfg);
    ASSERT_TRUE(killed.ForceStartFineTune(fresh()).ok());
    auto t = killed.Tick(fresh());  // epoch 1 of 2, then "killed"
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    ASSERT_EQ(killed.state(), AdaptState::kFineTuning);
  }
  ASSERT_TRUE(std::filesystem::exists(stale_cfg.finetune_dir));
  const std::shared_ptr<const synth::CityDataset> pool_b = *data_;
  AdaptationController stale(features(), &svc, nullptr, FastDetector(),
                             stale_cfg);
  auto s = stale.Tick(pool_b);
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  EXPECT_EQ(stale.state(), AdaptState::kIdle);
  EXPECT_EQ(stale.fine_tunes_resumed(), 0u);
  EXPECT_TRUE(refused(*s));
  EXPECT_FALSE(std::filesystem::exists(stale_cfg.finetune_dir))
      << "refused state must be wiped";
}

}  // namespace
}  // namespace tpr::drift
