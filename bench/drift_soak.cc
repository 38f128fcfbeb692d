// Drift-adaptation soak for `tpr::drift`: the full online loop under a
// serving workload, twice in a row over a cumulatively drifting world.
//
//   steady   — gen 1 bootstraps live and serves; the detector watches a
//              stationary golden-probe MAE and stays quiet.
//   shift 1  — an incident + seasonal-demand regime shift lands. The
//              live model's MAE on the post-shift probe jumps, the
//              Page–Hinkley detector alarms, and the adaptation
//              controller fine-tunes a candidate from the live
//              generation over the fresh trajectory window, publishing
//              it through the rollout gates (canary -> promote) while
//              incumbent traffic keeps flowing.
//   shift 2  — a rush-hour migration + second incident compose onto the
//              shifted world. Same loop, plus a kill/resume drill: the
//              adaptation controller is destroyed after its first
//              fine-tune epoch and a new one resumes from the
//              checkpointed trainer state, publishing the identical
//              candidate it would have produced uninterrupted.
//
// stdout carries only the deterministic trace (control events, probe
// MAE values, request/canary counts) so run_benches.sh can `cmp` the
// 1-thread and 4-thread runs byte for byte; latency and wall time go to
// stderr and the JSON record. With TPR_FAULT set (the CI drift-soak
// leg: drift-detect + rollout-publish), flipped detector verdicts and
// torn manifest publishes perturb the trace, so exact-count checks
// relax — but the invariants hold in every mode: zero non-injected
// request failures, every launched fine-tune reaches a terminal rollout
// state, and the loop never wedges.

#include <algorithm>
#include <chrono>
#include <deque>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/checkpoint.h"
#include "core/probe.h"
#include "drift/adaptation.h"
#include "drift/detector.h"
#include "fault/fault.h"
#include "harness.h"
#include "rollout/controller.h"
#include "serve/service.h"
#include "synth/regime.h"

namespace tpr::bench {
namespace {

bool FaultMode() { return std::getenv("TPR_FAULT") != nullptr; }

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<size_t>(q * (values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

struct RequestStats {
  long ok = 0;
  long errors = 0;
  long canary_served = 0;
  std::vector<double> latencies_ms;
};

/// Closed-loop batch of requests against the base-world sample paths
/// (the network never changes; only traffic does). Ids continue across
/// batches so keyed canary routing never repeats a verdict.
void RunBatch(serve::InferenceService& service,
              const std::vector<synth::TemporalPathSample>& samples,
              int num_requests, uint64_t* next_id, RequestStats* stats) {
  using Clock = std::chrono::steady_clock;
  struct Pending {
    Clock::time_point submitted;
    std::future<serve::ServeResult> future;
  };
  std::deque<Pending> pending;
  auto drain_one = [&] {
    Pending p = std::move(pending.front());
    pending.pop_front();
    const serve::ServeResult result = p.future.get();
    stats->latencies_ms.push_back(std::chrono::duration<double, std::milli>(
                                      Clock::now() - p.submitted)
                                      .count());
    if (result.status.ok()) {
      ++stats->ok;
      if (result.canary) ++stats->canary_served;
    } else {
      ++stats->errors;
    }
  };
  for (int i = 0; i < num_requests; ++i) {
    const auto& sample = samples[static_cast<size_t>(i) % samples.size()];
    serve::PathQuery query;
    query.path = sample.path;
    query.depart_time_s = sample.depart_time_s + (i % 7) * 450;
    query.id = (*next_id)++;
    auto submitted = service.Submit(std::move(query));
    TPR_CHECK(submitted.ok()) << submitted.status().ToString();
    pending.push_back({Clock::now(), std::move(*submitted)});
    while (pending.size() >= 8) drain_one();
  }
  while (!pending.empty()) drain_one();
}

/// Probe MAE of a model generation read back from the rollout-watched
/// checkpoint dir — the same offline read-out the gates use, scored on
/// whatever probe labels the caller passes (pre- or post-shift world).
double GenerationProbeMae(const std::string& model_dir, uint64_t generation,
                          const std::shared_ptr<const core::FeatureSpace>& fs,
                          const core::EncoderConfig& encoder_config,
                          const core::ProbeSet& probe) {
  auto bytes =
      ckpt::ReadFileBytes(ckpt::CheckpointDir(model_dir).PathFor(generation));
  TPR_CHECK(bytes.ok()) << bytes.status().ToString();
  auto payload = ckpt::UnwrapPayload(*bytes);
  TPR_CHECK(payload.ok()) << payload.status().ToString();
  auto decoded =
      serve::InferenceService::DecodeModelPayload(*payload, fs, encoder_config);
  TPR_CHECK(decoded.ok()) << decoded.status().ToString();
  auto mae = core::ProbeTravelTimeMae(*decoded->encoder, probe);
  TPR_CHECK(mae.ok()) << mae.status().ToString();
  return *mae;
}

void PrintEvents(const char* who, const std::vector<std::string>& events) {
  for (const std::string& e : events) {
    std::printf("[trace] %s: %s\n", who, e.c_str());
  }
}

bool Terminal(const rollout::ModelRecord* rec) {
  return rec != nullptr && (rec->state == rollout::ModelState::kLive ||
                            rec->state == rollout::ModelState::kRetired ||
                            rec->state == rollout::ModelState::kQuarantined);
}

/// Everything one adaptation cycle needs to touch; the cycle may destroy
/// and rebuild the controller mid-fine-tune (the kill/resume drill).
struct Loop {
  serve::InferenceService* service;
  rollout::RolloutController* rollout;
  std::unique_ptr<drift::AdaptationController>* adapt;
  std::shared_ptr<const core::FeatureSpace> features;
  drift::DriftDetectorConfig detector_config;
  drift::AdaptationConfig adapt_config;
  const std::vector<synth::TemporalPathSample>* samples;
  uint64_t* next_id;
  RequestStats* stats;
};

void RebuildController(Loop& loop) {
  loop.adapt->reset();  // destroy first: one controller owns finetune_dir
  *loop.adapt = std::make_unique<drift::AdaptationController>(
      loop.features, loop.service, loop.rollout, loop.detector_config,
      loop.adapt_config);
}

/// Drives an armed (or injected) alarm through fine-tune, publish,
/// canary, and terminal resolution, interleaving request batches with
/// every control tick. Returns the number of candidate publishes this
/// cycle used. `kill_after_first_epoch` runs the resume drill.
int DriveAdaptationCycle(Loop& loop,
                         const std::shared_ptr<const synth::CityDataset>& fresh,
                         bool kill_after_first_epoch) {
  // Counters come from obs, not the controller: the kill drill replaces
  // the controller object mid-cycle, resetting its member tallies.
  const uint64_t publishes_before =
      obs::GetCounter("drift.publishes").value();
  const uint64_t epoch_counter_before =
      obs::GetCounter("drift.finetune_epochs").value();

  // Fine-tune until the candidate publishes.
  bool published = false;
  bool killed = false;
  for (int tick = 0; tick < 64 && !published; ++tick) {
    auto report = loop.adapt->get()->Tick(fresh);
    if (!report.ok()) {
      TPR_CHECK(FaultMode()) << report.status().ToString();
      std::printf("[trace] adapt: tick error tolerated under faults: %s\n",
                  report.status().ToString().c_str());
    } else {
      PrintEvents("adapt", report->events);
      published = report->published;
    }
    RunBatch(*loop.service, *loop.samples, 16, loop.next_id, loop.stats);
    if (kill_after_first_epoch && !killed && !published &&
        obs::GetCounter("drift.finetune_epochs").value() >
            epoch_counter_before) {
      std::printf(
          "[trace] drill: destroying the adaptation controller after "
          "epoch 1 and resuming from checkpointed trainer state\n");
      RebuildController(loop);
      killed = true;
    }
  }
  TPR_CHECK(published) << "fine-tune never published a candidate";
  drift::AdaptationController* adapt = loop.adapt->get();
  const uint64_t candidate = adapt->candidate_generation();

  // Rollout picks the candidate up, canaries it over live traffic, and
  // resolves it (promote on clean canary; quarantine/rollback
  // otherwise). Publish faults only tear the manifest file — the next
  // tick republishes from the mirror.
  bool resolved = false;
  for (int tick = 0; tick < 32 && !resolved; ++tick) {
    auto report = loop.rollout->Tick();
    TPR_CHECK(report.ok()) << report.status().ToString();
    PrintEvents("rollout", report->events);
    resolved = Terminal(loop.rollout->manifest().Find(candidate));
    if (!resolved) {
      RunBatch(*loop.service, *loop.samples, 64, loop.next_id, loop.stats);
    }
  }
  TPR_CHECK(resolved) << "candidate gen " << candidate
                      << " never reached a terminal rollout state";

  // Cooldown resolves against the terminal record and the loop re-arms.
  for (int tick = 0; tick < 8 && adapt->state() != drift::AdaptState::kIdle;
       ++tick) {
    auto report = adapt->Tick(fresh);
    if (report.ok()) {
      PrintEvents("adapt", report->events);
    } else {
      TPR_CHECK(FaultMode()) << report.status().ToString();
    }
  }
  TPR_CHECK(adapt->state() == drift::AdaptState::kIdle);
  return static_cast<int>(obs::GetCounter("drift.publishes").value() -
                          publishes_before);
}

/// Feeds `n` identical probe-MAE observations (quiet serving: the world
/// is stationary between shifts, so the windowed statistic stays put).
void ObserveQuiet(drift::AdaptationController& adapt, double mae, int n) {
  for (int i = 0; i < n; ++i) adapt.ObserveProbeMae(mae);
}

}  // namespace
}  // namespace tpr::bench

int main(int argc, char** argv) {
  using namespace tpr;
  using namespace tpr::bench;
  Init(argc, argv);
  obs::SetMetricsEnabled(true);
  // Line-buffer the trace so a mid-run TPR_CHECK abort still shows how
  // far the loop got (and the 1-vs-N cmp sees identical bytes anyway).
  std::setvbuf(stdout, nullptr, _IOLBF, 0);

  const PreparedCity city = PrepareCity(synth::AalborgPreset());
  TPR_CHECK(!city.data->unlabeled.empty());

  core::EncoderConfig encoder_config;
  if (Smoke()) {
    encoder_config.d_hidden = 32;
    encoder_config.lstm_layers = 1;
  }
  core::WscConfig wsc;
  wsc.encoder = encoder_config;
  wsc.anchors_per_batch = Smoke() ? 6 : 12;

  serve::ServiceConfig service_config;
  service_config.num_workers = 4;
  service_config.queue_capacity = 64;
  service_config.block_when_full = true;
  service_config.max_retries = 2;
  service_config.backoff_base_ms = 0.2;
  service_config.backoff_max_ms = 5.0;
  service_config.cache_capacity = 512;
  service_config.time_bucket_s = 900;
  service_config.canary_permille = 250;
  service_config.canary_promote_after = Smoke() ? 16 : 64;
  serve::InferenceService service(city.features, encoder_config,
                                  service_config);

  // A malformed TPR_FAULT spec must fail loudly, not soak nothing.
  TPR_CHECK(fault::InstallPlanFromEnv().ok());
  const std::string model_dir =
      std::filesystem::temp_directory_path().string() + "/tpr-drift-bench-" +
      std::to_string(::getpid());
  std::filesystem::remove_all(model_dir);

  rollout::RolloutConfig rollout_config;
  rollout_config.model_dir = model_dir;
  // The loop under test is the adaptation plumbing, not the learning
  // curve of a smoke-sized fine-tune: a generous budget keeps an
  // honestly-adapted candidate inside the quality gate.
  rollout_config.quality_budget = 0.50;
  rollout_config.quantize_twins = false;
  const core::ProbeSet base_probe = core::BuildProbeSet(*city.data, 64, 7);
  rollout::RolloutController rollout(&service, city.features, encoder_config,
                                     base_probe, rollout_config);
  TPR_CHECK(rollout.Init().ok());

  // Detector + adaptation knobs: bench defaults tuned for short quiet
  // phases, overridable through the TPR_DRIFT_* environment.
  drift::DriftDetectorConfig detector_config;
  detector_config.window = 2;
  detector_config.delta = 0.01;
  detector_config.lambda = 0.20;
  detector_config.min_windows = 2;
  detector_config.cooldown_windows = 1;
  detector_config = drift::DriftDetectorConfigFromEnv(detector_config);

  drift::AdaptationConfig adapt_config;
  adapt_config.model_dir = model_dir;
  adapt_config.finetune_dir = model_dir + "/finetune";
  adapt_config.wsc = wsc;
  adapt_config.total_epochs = Smoke() ? 2 : 3;
  adapt_config.epochs_per_tick = 1;
  adapt_config.probe_queries = Smoke() ? 48 : 64;
  adapt_config = drift::AdaptationConfigFromEnv(adapt_config);

  auto adapt = std::make_unique<drift::AdaptationController>(
      city.features, &service, &rollout, detector_config, adapt_config);

  // Gen 1 bootstraps straight to live.
  core::TemporalPathEncoder gen1(city.features, encoder_config);
  TPR_CHECK(serve::InferenceService::SaveModel(gen1, model_dir, 1).ok());
  {
    auto report = rollout.Tick();
    TPR_CHECK(report.ok()) << report.status().ToString();
    PrintEvents("rollout", report->events);
  }
  TPR_CHECK(service.model_generation() == 1);
  TPR_CHECK(service.Start().ok());
  std::printf("[trace] bootstrap: live gen 1\n");

  RequestStats stats;
  uint64_t next_id = 1;
  Loop loop{&service,        &rollout, &adapt,   city.features,
            detector_config, adapt_config, &city.data->unlabeled, &next_id,
            &stats};

  // ---- Steady phase: stationary probe MAE, detector quiet. ----
  const int steady_requests = Smoke() ? 128 : 1024;
  std::fprintf(stderr, "[bench] steady phase: %d requests...\n",
               steady_requests);
  const double steady_mae = GenerationProbeMae(
      model_dir, 1, city.features, encoder_config, base_probe);
  std::printf("[trace] steady: live probe mae %.12g\n", steady_mae);
  ObserveQuiet(*adapt, steady_mae, 8);
  RunBatch(service, city.data->unlabeled, steady_requests, &next_id, &stats);
  if (!FaultMode()) {
    TPR_CHECK(!adapt->detector().alarmed())
        << "stationary MAE must not alarm";
  } else if (adapt->detector().alarmed()) {
    // An injected false positive: the gates absorb the spurious
    // fine-tune (trained on the still-unshifted world).
    std::printf("[trace] steady: injected false alarm; absorbing\n");
    DriveAdaptationCycle(loop, city.data, /*kill_after_first_epoch=*/false);
  }

  // ---- Two regime shifts, cumulative: world 2 composes onto world 1.
  struct ShiftSpec {
    const char* name;
    synth::RegimeShift shift;
    uint64_t dataset_seed;
    bool kill_drill;
  };
  const auto& network = *city.data->network;
  synth::RegimeShiftConfig incident1;
  incident1.kind = synth::RegimeKind::kIncident;
  incident1.seed = 11;
  incident1.edge_fraction = 0.08;
  incident1.speed_scale = 0.35;
  synth::RegimeShiftConfig seasonal;
  seasonal.kind = synth::RegimeKind::kSeasonalDemand;
  seasonal.demand_scale = 1.5;
  // Shift 2 must *degrade* the probe to trip the (one-sided) detector:
  // capacity loss — a closure plus a wide incident — always slows the
  // affected paths. A pure rush-hour migration can lower probe MAE
  // (fixed-departure queries fall out of the moved peak), which is
  // exactly the kind of drift the detector deliberately ignores.
  synth::RegimeShiftConfig closure;
  closure.kind = synth::RegimeKind::kClosure;
  closure.seed = 23;
  closure.edge_fraction = 0.04;
  synth::RegimeShiftConfig incident2;
  incident2.kind = synth::RegimeKind::kIncident;
  incident2.seed = 31;
  incident2.edge_fraction = 0.10;
  incident2.speed_scale = 0.30;

  std::vector<ShiftSpec> shifts;
  shifts.push_back({"incident+seasonal",
                    synth::Compose(synth::MakeRegimeShift(network, incident1),
                                   synth::MakeRegimeShift(network, seasonal)),
                    9001, /*kill_drill=*/false});
  shifts.push_back({"closure+incident",
                    synth::Compose(synth::MakeRegimeShift(network, closure),
                                   synth::MakeRegimeShift(network, incident2)),
                    9002, /*kill_drill=*/true});

  synth::DatasetConfig fresh_config;
  fresh_config.num_unlabeled_trajectories = Smoke() ? 48 : 240;
  fresh_config.departures_per_trajectory = 2;
  fresh_config.num_labeled_groups = Smoke() ? 24 : 96;
  fresh_config.alternatives_per_group = 2;

  double recovery_ratio_min = 1e9;
  int publishes_per_shift_max = 0;
  std::shared_ptr<const synth::CityDataset> world = city.data;
  double quiet_mae = steady_mae;

  for (size_t s = 0; s < shifts.size(); ++s) {
    const ShiftSpec& spec = shifts[s];
    std::fprintf(stderr, "[bench] shift %zu (%s)...\n", s + 1, spec.name);
    fresh_config.seed = spec.dataset_seed;
    auto shifted =
        synth::GenerateShiftedDataset(*world, spec.shift, fresh_config);
    TPR_CHECK(shifted.ok()) << shifted.status().ToString();
    auto fresh = std::make_shared<const synth::CityDataset>(
        std::move(*shifted));

    // The golden probe relabeled under the post-shift ground truth: the
    // serving-time quality signal of the new world.
    const core::ProbeSet probe_now =
        drift::RelabelProbeSet(base_probe, *fresh->traffic);
    const uint64_t live_before = service.model_generation();
    const double degraded_mae = GenerationProbeMae(
        model_dir, live_before, city.features, encoder_config, probe_now);
    std::printf(
        "[trace] shift %zu (%s): live gen %llu probe mae %.12g -> %.12g\n",
        s + 1, spec.name, static_cast<unsigned long long>(live_before),
        quiet_mae, degraded_mae);

    // Serving under the shifted world: each probe evaluation interval
    // feeds one observation; the Page-Hinkley statistic climbs until
    // the alarm fires.
    int observations = 0;
    while (!adapt->detector().alarmed() && observations < 600) {
      adapt->ObserveProbeMae(degraded_mae);
      ++observations;
      if (observations % 8 == 0) {
        RunBatch(service, city.data->unlabeled, 16, &next_id, &stats);
      }
    }
    TPR_CHECK(adapt->detector().alarmed())
        << "shift " << s + 1 << " never tripped the detector";
    std::printf(
        "[trace] shift %zu: detector alarmed after %d observations "
        "(statistic %.12g)\n",
        s + 1, observations, adapt->detector().statistic());

    // The kill drill rebuilds the controller in place; `adapt` (the
    // owning unique_ptr) stays the one handle to the current one.
    const int publishes = DriveAdaptationCycle(loop, fresh, spec.kill_drill);

    const uint64_t live_after = service.model_generation();
    const double recovered_mae = GenerationProbeMae(
        model_dir, live_after, city.features, encoder_config, probe_now);
    const double ratio =
        recovered_mae > 0 ? degraded_mae / recovered_mae : 0.0;
    std::printf(
        "[trace] shift %zu resolved: live gen %llu, probe mae %.12g, "
        "recovery ratio %.12g, publishes %d\n",
        s + 1, static_cast<unsigned long long>(live_after), recovered_mae,
        ratio, publishes);
    if (!FaultMode()) {
      TPR_CHECK(live_after > live_before) << "candidate was not promoted";
      TPR_CHECK(ckpt::CheckpointDir(model_dir).PinnedSeq().value_or(0) ==
                live_after)
          << "promotion must pin the live generation";
      TPR_CHECK(!std::filesystem::exists(adapt_config.finetune_dir))
          << "fine-tune state must be cleaned up after publish";
      if (spec.kill_drill) {
        TPR_CHECK(obs::GetCounter("drift.finetune_resumes").value() >= 1)
            << "the kill drill must resume from checkpointed state";
      }
    }
    recovery_ratio_min = std::min(recovery_ratio_min, ratio);
    publishes_per_shift_max = std::max(publishes_per_shift_max, publishes);

    char metric[64];
    std::snprintf(metric, sizeof metric, "drift.shift%zu", s + 1);
    Record(std::string(metric) + ".degraded_mae", degraded_mae);
    Record(std::string(metric) + ".recovered_mae", recovered_mae);

    // Quiet serving on the new world re-baselines the detector.
    world = fresh;
    quiet_mae = recovered_mae;
    ObserveQuiet(*adapt, quiet_mae, 8);
  }

  service.Shutdown();
  std::filesystem::remove_all(model_dir);

  TPR_CHECK(stats.errors == 0)
      << stats.errors << " non-injected request failures";

  Record("drift.requests_ok", static_cast<double>(stats.ok));
  Record("drift.requests_errors", static_cast<double>(stats.errors));
  Record("drift.canary_served", static_cast<double>(stats.canary_served));
  Record("drift.publishes_per_shift_max",
         static_cast<double>(publishes_per_shift_max));
  Record("drift.recovery_ratio_min", recovery_ratio_min);
  Record("drift.p50_ms", Percentile(stats.latencies_ms, 0.50));
  Record("drift.p99_ms", Percentile(stats.latencies_ms, 0.99));
  for (const char* counter :
       {"drift.windows", "drift.detections", "drift.finetune_launches",
        "drift.finetune_epochs", "drift.finetune_resumes", "drift.publishes",
        "rollout.probe_refreshes", "rollout.promoted", "rollout.rolled_back",
        "rollout.quarantined", "rollout.publish_torn"}) {
    Record(counter, static_cast<double>(obs::GetCounter(counter).value()));
  }

  std::printf("\nOnline drift adaptation through the rollout gates\n\n");
  TablePrinter table({"Metric", "Value"});
  table.AddRow({"requests ok", std::to_string(stats.ok)});
  table.AddRow({"requests failed", std::to_string(stats.errors)});
  table.AddRow({"canary-served requests",
                std::to_string(stats.canary_served)});
  table.AddRow({"detector windows",
                std::to_string(obs::GetCounter("drift.windows").value())});
  table.AddRow({"detections",
                std::to_string(obs::GetCounter("drift.detections").value())});
  table.AddRow(
      {"fine-tunes launched",
       std::to_string(obs::GetCounter("drift.finetune_launches").value())});
  table.AddRow(
      {"fine-tunes resumed",
       std::to_string(obs::GetCounter("drift.finetune_resumes").value())});
  table.AddRow({"candidates published",
                std::to_string(obs::GetCounter("drift.publishes").value())});
  table.AddRow({"promotions",
                std::to_string(obs::GetCounter("rollout.promoted").value())});
  table.AddRow({"live generation",
                std::to_string(service.model_generation())});
  table.AddRow({"max publishes per shift",
                std::to_string(publishes_per_shift_max)});
  table.AddRow({"min recovery ratio",
                TablePrinter::Num(recovery_ratio_min, 4)});
  std::printf("%s\n", table.ToString().c_str());

  std::fprintf(stderr, "[bench] p50 %.3f ms, p99 %.3f ms\n",
               Percentile(stats.latencies_ms, 0.50),
               Percentile(stats.latencies_ms, 0.99));
  return 0;
}
