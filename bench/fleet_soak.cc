// Multi-city fleet soak for `tpr::route`: sharded serving behind the
// deterministic routing tier, under targeted faults.
//
//   scaling    — the batched serving path at 1 shard vs N shards (one
//                single-worker service per shard, requests pipelined
//                through the router round-robin over cities). On a
//                machine with >= N cores the fleet should scale near
//                linearly; `fleet.scaling_ratio` carries the median
//                N-shard / 1-shard req/s ratio of 3 interleaved pairs
//                into the gate.
//   isolation  — two full passes over fresh per-shard stacks (service +
//                rollout + drift adaptation per city, all namespaced
//                under <root>/shard-<city>/):
//                  clean  — no fault plan, no regime shift; every shard
//                           serves the same fixed request schedule.
//                  bombed — shard 0 takes encoder-forward +
//                           route-dispatch faults, a torn first rollout
//                           publish, AND a regime shift that trips its
//                           drift detector into a fine-tune republish —
//                           while shards 1..N-1 run the identical
//                           schedule untouched.
//                The bench asserts the healthy shards' full request
//                traces (route error, status, rung, generation,
//                embedding bytes) are BYTE-IDENTICAL across the two
//                passes: fault isolation is bitwise, not statistical.
//
// stdout carries only the deterministic trace so run_benches.sh can
// `cmp` TPR_THREADS=1 and =4 runs byte for byte; timing goes to stderr
// and the JSON record. With TPR_FAULT set (the CI fleet-soak leg), the
// env plan replaces the built-in bombed-pass plan — it must target only
// @shard0-qualified sites, or the isolation check will rightly fail.

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
#include "route/router.h"
#include "route/shard.h"
#include "synth/fleet.h"
#include "synth/regime.h"

namespace tpr::bench {
namespace {

bool EnvFaultMode() { return std::getenv("TPR_FAULT") != nullptr; }

/// Worker threads per shard service: the soak follows TPR_THREADS so the
/// 1-vs-4 determinism cmp actually varies the worker count.
int ShardWorkers() { return std::max(1, par::ConfiguredThreads()); }

uint64_t Fnv1a(const void* data, size_t n, uint64_t h = 0xcbf29ce484222325ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 0x100000001b3ull;
  return h;
}

/// One request's trace line: everything the determinism contract
/// covers, nothing it does not (no latency, no queue depth).
std::string TraceLine(uint64_t id, const route::RouteResult& r) {
  std::string line = "req " + HexId(id) + " " + RouteErrorName(r.error) +
                     " code=" + std::to_string(static_cast<int>(r.status.code()));
  if (r.status.ok()) {
    line += " rung=" + std::string(serve::RungName(r.serve.rung)) + " gen=" +
            std::to_string(r.serve.generation) + " emb=" +
            HexId(Fnv1a(r.serve.embedding.data(),
                        r.serve.embedding.size() * sizeof(float)));
  }
  return line + "\n";
}

struct ShardTraffic {
  uint64_t seq = 0;            // per-city id sequence
  long ok = 0;
  long errors = 0;             // any non-OK outcome (injected or not)
  std::string trace;           // cmp'd across passes for healthy shards
};

/// One closed-loop batch of `n` requests for `city`, pipelined through
/// the router. Ids are per-city (`(city+1)<<32 | seq`), so a shard's
/// verdict stream never depends on the other shards' traffic.
void RunBatch(route::Router& router, int city,
              const std::vector<synth::TemporalPathSample>& samples, int n,
              ShardTraffic* t) {
  struct Pending {
    uint64_t id;
    route::RoutedSubmit sub;
  };
  std::deque<Pending> pending;
  auto drain_one = [&] {
    Pending p = std::move(pending.front());
    pending.pop_front();
    route::RouteResult r;
    r.city_id = city;
    r.error = p.sub.error;
    r.shard_index = p.sub.shard_index;
    r.status = std::move(p.sub.status);
    if (r.status.ok()) {
      r.serve = p.sub.result.get();
      r.status = r.serve.status;
    }
    r.status.ok() ? ++t->ok : ++t->errors;
    t->trace += TraceLine(p.id, r);
  };
  for (int i = 0; i < n; ++i) {
    const uint64_t id =
        (static_cast<uint64_t>(city + 1) << 32) | t->seq++;
    const auto& sample = samples[static_cast<size_t>(id % samples.size())];
    route::CityRequest req;
    req.city_id = city;
    req.query.path = sample.path;
    req.query.depart_time_s = sample.depart_time_s + (id % 7) * 450;
    req.query.id = id;
    pending.push_back({id, router.Submit(req)});
    while (pending.size() >= 8) drain_one();
  }
  while (!pending.empty()) drain_one();
}

void PrintEvents(const char* who, const std::vector<std::string>& events) {
  for (const std::string& e : events) {
    std::string line = e;
    // Publish failures name the per-run temp dir (embeds the pid).
    const size_t path = line.find(" in /");
    if (path != std::string::npos) line.resize(path);
    std::printf("[trace] %s: %s\n", who, line.c_str());
  }
}

/// One fully prepared fleet city (dataset + features are built once and
/// shared by every pass — they are immutable).
struct FleetWorld {
  synth::FleetCity city;
  std::shared_ptr<synth::CityDataset> data;
  std::shared_ptr<const core::FeatureSpace> features;
  core::ProbeSet probe;
};

std::vector<FleetWorld> PrepareFleet(const synth::CityFleet& fleet) {
  std::vector<FleetWorld> worlds;
  for (const synth::FleetCity& city : fleet.cities()) {
    std::fprintf(stderr, "[bench] preparing %s...\n", city.name.c_str());
    auto ds = fleet.BuildDataset(city.city_id);
    TPR_CHECK(ds.ok()) << ds.status().ToString();
    FleetWorld w;
    w.city = city;
    w.data = std::make_shared<synth::CityDataset>(std::move(*ds));
    auto fs = core::BuildFeatureSpace(w.data, DefaultFeatureConfig());
    TPR_CHECK(fs.ok()) << fs.status().ToString();
    w.features = std::make_shared<const core::FeatureSpace>(std::move(*fs));
    w.probe = core::BuildProbeSet(*w.data, Smoke() ? 32 : 64, 7);
    TPR_CHECK(!w.data->unlabeled.empty());
    worlds.push_back(std::move(w));
  }
  return worlds;
}

core::EncoderConfig FleetEncoder() {
  core::EncoderConfig cfg;
  if (Smoke()) {
    cfg.d_hidden = 32;
    cfg.lstm_layers = 1;
  }
  return cfg;
}

serve::ServiceConfig FleetService(int num_workers, int batch_max,
                                  bool batch_coalesce) {
  serve::ServiceConfig cfg;
  cfg.num_workers = num_workers;
  cfg.queue_capacity = 64;
  cfg.block_when_full = true;
  cfg.max_retries = 2;
  cfg.backoff_base_ms = 0.2;
  cfg.backoff_max_ms = 5.0;
  cfg.cache_capacity = 512;
  cfg.time_bucket_s = 900;
  cfg.batch_max = batch_max;
  cfg.batch_coalesce = batch_coalesce;
  cfg.canary_permille = 250;
  cfg.canary_promote_after = Smoke() ? 16 : 64;
  return cfg;
}

// ---------------------------------------------------------------------------
// Scaling phase: batched req/s at 1 shard vs N shards.
// ---------------------------------------------------------------------------

double MeasureFleetRps(const std::vector<FleetWorld>& worlds, int num_shards,
                       int requests_per_shard) {
  const core::EncoderConfig encoder_config = FleetEncoder();
  std::vector<std::unique_ptr<serve::InferenceService>> services;
  std::vector<route::ShardEndpoint> eps;
  for (int c = 0; c < num_shards; ++c) {
    const FleetWorld& w = worlds[static_cast<size_t>(c)];
    // One worker per shard: throughput scaling must come from shard
    // parallelism, which is exactly what the gate measures.
    serve::ServiceConfig sc = FleetService(/*num_workers=*/1,
                                           /*batch_max=*/8,
                                           /*batch_coalesce=*/true);
    sc.shard = "scale" + std::to_string(c);
    sc.metrics_prefix = sc.shard + ".";
    auto svc = std::make_unique<serve::InferenceService>(
        w.features, encoder_config, sc);
    svc->InstallModel(std::make_shared<core::TemporalPathEncoder>(
                          w.features, encoder_config),
                      1);
    TPR_CHECK(svc->Start().ok());
    eps.push_back({c, sc.shard, svc.get()});
    services.push_back(std::move(svc));
  }
  route::Router router(std::move(eps), route::RouterConfig{});

  // Closed loop over all shards round-robin, deep enough to keep every
  // shard's batch former fed.
  struct Pending {
    std::future<serve::ServeResult> f;
  };
  std::deque<Pending> pending;
  const size_t depth = static_cast<size_t>(16 * num_shards);
  const int total = requests_per_shard * num_shards;
  long ok = 0;
  Stopwatch sw;
  for (int i = 0; i < total; ++i) {
    const int city = i % num_shards;
    const FleetWorld& w = worlds[static_cast<size_t>(city)];
    const auto& samples = w.data->unlabeled;
    route::CityRequest req;
    req.city_id = city;
    const auto& sample = samples[static_cast<size_t>(i) % samples.size()];
    req.query.path = sample.path;
    req.query.depart_time_s = sample.depart_time_s + (i % 5) * 600;
    req.query.id = (static_cast<uint64_t>(city + 1) << 32) | i;
    route::RoutedSubmit sub = router.Submit(req);
    TPR_CHECK(sub.status.ok()) << sub.status.ToString();
    pending.push_back({std::move(sub.result)});
    while (pending.size() >= depth) {
      if (pending.front().f.get().status.ok()) ++ok;
      pending.pop_front();
    }
  }
  while (!pending.empty()) {
    if (pending.front().f.get().status.ok()) ++ok;
    pending.pop_front();
  }
  const double seconds = sw.ElapsedSeconds();
  TPR_CHECK(ok == total) << (total - ok) << " scaling-phase failures";
  for (auto& svc : services) svc->Shutdown();
  return static_cast<double>(total) / seconds;
}

// ---------------------------------------------------------------------------
// Isolation soak.
// ---------------------------------------------------------------------------

struct PassResult {
  std::vector<ShardTraffic> traffic;  // per city
  uint64_t shard0_live_gen = 0;
};

/// One full pass: fresh shard stacks under `root`, bootstrap gen 1 per
/// shard, then a fixed request schedule interleaved with control ticks.
/// `bombed` arms the fault plan + shard 0's regime shift.
PassResult RunPass(const std::vector<FleetWorld>& worlds,
                   const std::string& root, bool bombed) {
  const int n = static_cast<int>(worlds.size());
  const core::EncoderConfig encoder_config = FleetEncoder();

  fault::ClearPlan();
  if (bombed) {
    if (EnvFaultMode()) {
      TPR_CHECK(fault::InstallPlanFromEnv().ok());
      std::printf("[trace] pass bombed: fault plan from TPR_FAULT\n");
    } else {
      auto plan = fault::FaultPlan::Parse(
          "encoder-forward@shard0:p=0.7,seed=41;"
          "route-dispatch@shard0:p=0.25,seed=43;"
          "rollout-publish@shard0:after=0,until=1");
      TPR_CHECK(plan.ok()) << plan.status().ToString();
      fault::InstallPlan(*std::move(plan));
      std::printf("[trace] pass bombed: built-in @shard0 fault plan\n");
    }
  } else {
    std::printf("[trace] pass clean: no faults\n");
  }

  core::WscConfig wsc;
  wsc.encoder = encoder_config;
  wsc.anchors_per_batch = Smoke() ? 6 : 12;

  std::vector<std::unique_ptr<route::CityShard>> shards;
  std::vector<route::ShardEndpoint> eps;
  for (int c = 0; c < n; ++c) {
    const FleetWorld& w = worlds[static_cast<size_t>(c)];
    route::CityShardConfig cfg;
    cfg.city_id = c;
    cfg.root = root;
    cfg.service = FleetService(ShardWorkers(), /*batch_max=*/1,
                               /*batch_coalesce=*/false);
    cfg.rollout.quality_budget = 0.50;
    cfg.rollout.quantize_twins = false;
    cfg.enable_drift = true;
    cfg.detector.window = 2;
    cfg.detector.delta = 0.01;
    cfg.detector.lambda = 0.20;
    cfg.detector.min_windows = 2;
    cfg.detector.cooldown_windows = 1;
    cfg.adaptation.wsc = wsc;
    cfg.adaptation.total_epochs = Smoke() ? 2 : 3;
    cfg.adaptation.probe_queries = Smoke() ? 32 : 64;
    auto shard = std::make_unique<route::CityShard>(
        w.features, encoder_config, w.probe, cfg);
    TPR_CHECK(shard->Init().ok());
    // Gen 1 bootstraps straight to live through the rollout gate.
    core::TemporalPathEncoder gen1(w.features, encoder_config);
    TPR_CHECK(serve::InferenceService::SaveModel(gen1, shard->model_dir(), 1)
                  .ok());
    auto report = shard->rollout().Tick();
    TPR_CHECK(report.ok()) << report.status().ToString();
    PrintEvents(shard->name().c_str(), report->events);
    TPR_CHECK(shard->service().model_generation() == 1);
    TPR_CHECK(shard->service().Start().ok());
    eps.push_back(shard->endpoint());
    shards.push_back(std::move(shard));
  }
  route::Router router(std::move(eps), route::RouterConfig{});

  PassResult result;
  result.traffic.resize(static_cast<size_t>(n));

  // Shard 0's drift story (bombed pass only): its fleet-scheduled
  // incident shift lands after the first quarter of the schedule.
  const FleetWorld& w0 = worlds[0];
  synth::RegimeShiftConfig shift_cfg = w0.city.shifts[0];
  shift_cfg.kind = synth::RegimeKind::kIncident;  // guaranteed degradation
  const synth::RegimeShift shift =
      synth::MakeRegimeShift(*w0.data->network, shift_cfg);
  std::shared_ptr<const synth::CityDataset> fresh0;
  core::ProbeSet probe0_now;
  double degraded_mae = 0.0;
  double quiet_mae = 0.0;
  {
    auto live = shards[0]->service().live_model();
    auto mae = core::ProbeTravelTimeMae(*live, w0.probe);
    TPR_CHECK(mae.ok()) << mae.status().ToString();
    quiet_mae = *mae;
  }

  // Pin shard 0's Page–Hinkley baseline on the quiet world before any
  // traffic: with only a handful of pre-shift windows the running mean
  // would absorb the degraded windows and the statistic plateaus under
  // lambda. Identical in both passes (clean pass never alarms anyway).
  for (int i = 0; i < (Smoke() ? 24 : 48); ++i) {
    shards[0]->adaptation()->ObserveProbeMae(quiet_mae);
  }

  const int rounds = Smoke() ? 12 : 24;
  const int per_round = Smoke() ? 8 : 32;
  const int shift_round = rounds / 4;
  bool shifted = false;
  bool fine_tune_done = false;
  uint64_t candidate = 0;

  for (int round = 0; round < rounds; ++round) {
    // Fixed request schedule: every shard serves the same batches in
    // the same order in every pass, whatever the control plane does.
    for (int c = 0; c < n; ++c) {
      RunBatch(router, c, worlds[static_cast<size_t>(c)].data->unlabeled,
               per_round, &result.traffic[static_cast<size_t>(c)]);
    }

    // Control plane. Healthy shards observe a quiet world every round;
    // shard 0's observations degrade after the shift (bombed pass).
    for (int c = 1; c < n; ++c) {
      auto* adapt = shards[static_cast<size_t>(c)]->adaptation();
      auto live = shards[static_cast<size_t>(c)]->service().live_model();
      auto mae = core::ProbeTravelTimeMae(
          *live, worlds[static_cast<size_t>(c)].probe);
      TPR_CHECK(mae.ok()) << mae.status().ToString();
      adapt->ObserveProbeMae(*mae);
    }

    if (bombed && round == shift_round && !shifted) {
      shifted = true;
      synth::DatasetConfig fresh_cfg;
      fresh_cfg.num_unlabeled_trajectories = Smoke() ? 48 : 240;
      fresh_cfg.departures_per_trajectory = 2;
      fresh_cfg.num_labeled_groups = Smoke() ? 24 : 96;
      fresh_cfg.alternatives_per_group = 2;
      fresh_cfg.seed = 9001;
      auto shifted_ds =
          synth::GenerateShiftedDataset(*w0.data, shift, fresh_cfg);
      TPR_CHECK(shifted_ds.ok()) << shifted_ds.status().ToString();
      fresh0 = std::make_shared<const synth::CityDataset>(
          std::move(*shifted_ds));
      probe0_now = drift::RelabelProbeSet(w0.probe, *fresh0->traffic);
      auto live = shards[0]->service().live_model();
      auto mae = core::ProbeTravelTimeMae(*live, probe0_now);
      TPR_CHECK(mae.ok()) << mae.status().ToString();
      degraded_mae = *mae;
      std::printf(
          "[trace] shard0: regime shift (%s) landed, probe mae %.12g -> "
          "%.12g\n",
          synth::RegimeKindName(shift_cfg.kind), quiet_mae, degraded_mae);
    }

    auto* adapt0 = shards[0]->adaptation();
    if (!shifted) {
      adapt0->ObserveProbeMae(quiet_mae);
    } else if (!fine_tune_done) {
      // Feed degraded observations until the alarm, then tick the
      // fine-tune forward; rollout ticks below pick up the candidate.
      if (!adapt0->detector().alarmed() &&
          adapt0->state() == drift::AdaptState::kIdle) {
        for (int i = 0; i < 8 && !adapt0->ObserveProbeMae(degraded_mae); ++i) {
        }
        if (adapt0->detector().alarmed()) {
          std::printf("[trace] shard0: drift detector alarmed\n");
        }
      }
      auto report = adapt0->Tick(fresh0);
      if (!report.ok()) {
        TPR_CHECK(EnvFaultMode()) << report.status().ToString();
        std::printf("[trace] shard0: adapt tick error tolerated: %s\n",
                    report.status().ToString().c_str());
      } else {
        PrintEvents("shard0.adapt", report->events);
        if (report->published) {
          candidate = adapt0->candidate_generation();
          fine_tune_done = true;
        }
      }
    } else if (adapt0->state() != drift::AdaptState::kIdle) {
      auto report = adapt0->Tick(fresh0);
      if (report.ok()) PrintEvents("shard0.adapt", report->events);
    }

    // Every shard's rollout controller ticks every round — quiet shards
    // report nothing, shard 0 walks its candidate through canary ->
    // promote (with its first manifest publish torn by the plan).
    for (int c = 0; c < n; ++c) {
      auto report = shards[static_cast<size_t>(c)]->rollout().Tick();
      TPR_CHECK(report.ok()) << report.status().ToString();
      PrintEvents(shards[static_cast<size_t>(c)]->name().c_str(),
                  report->events);
    }
  }

  // Drain shard 0's rollout to a terminal state for the candidate.
  if (bombed && candidate != 0) {
    for (int tick = 0; tick < 32; ++tick) {
      auto rec = shards[0]->rollout().manifest().Find(candidate);
      if (rec != nullptr && (rec->state == rollout::ModelState::kLive ||
                             rec->state == rollout::ModelState::kRetired ||
                             rec->state == rollout::ModelState::kQuarantined)) {
        break;
      }
      RunBatch(router, 0, w0.data->unlabeled, per_round,
               &result.traffic[0]);
      auto report = shards[0]->rollout().Tick();
      TPR_CHECK(report.ok()) << report.status().ToString();
      PrintEvents("shard0", report->events);
    }
  }

  result.shard0_live_gen = shards[0]->service().model_generation();
  for (auto& shard : shards) shard->service().Shutdown();
  fault::ClearPlan();
  return result;
}

}  // namespace
}  // namespace tpr::bench

int main(int argc, char** argv) {
  using namespace tpr;
  using namespace tpr::bench;
  Init(argc, argv);
  obs::SetMetricsEnabled(true);
  std::setvbuf(stdout, nullptr, _IOLBF, 0);

  synth::FleetConfig fleet_config;
  fleet_config.num_cities = 3;
  fleet_config.dataset_scale = BenchScale();
  fleet_config = synth::FleetConfigFromEnv(fleet_config);
  const synth::CityFleet fleet(fleet_config);
  std::printf("[trace] fleet: %d cities, seed %llu\n", fleet.size(),
              static_cast<unsigned long long>(fleet_config.seed));
  const std::vector<FleetWorld> worlds = PrepareFleet(fleet);
  TPR_CHECK(fleet.size() >= 2) << "fleet soak needs at least 2 shards";

  // ---- Scaling phase (timing only: nothing here enters the trace). ----
  // Interleaved pairs of 1-shard and N-shard runs, so each ratio compares
  // two runs under the same host load; each metric records its median.
  const int scale_requests = Smoke() ? 192 : 1024;
  constexpr int kScalingPairs = 3;
  std::vector<double> single_rps, fleet_rps, ratios;
  for (int pair = 0; pair < kScalingPairs; ++pair) {
    std::fprintf(stderr, "[bench] scaling pair %d: 1 shard...\n", pair);
    single_rps.push_back(MeasureFleetRps(worlds, 1, scale_requests));
    std::fprintf(stderr, "[bench] scaling pair %d: %d shards...\n", pair,
                 fleet.size());
    fleet_rps.push_back(MeasureFleetRps(worlds, fleet.size(), scale_requests));
    ratios.push_back(single_rps.back() > 0
                         ? fleet_rps.back() / single_rps.back()
                         : 0.0);
    std::fprintf(stderr,
                 "[bench] scaling pair %d: 1 shard %.1f req/s, %d shards "
                 "%.1f req/s (ratio %.2f)\n",
                 pair, single_rps.back(), fleet.size(), fleet_rps.back(),
                 ratios.back());
  }
  const auto median = [](std::vector<double> v) {
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  };
  Record("fleet.single_shard_rps", median(single_rps));
  Record("fleet.fleet_rps", median(fleet_rps));
  Record("fleet.scaling_ratio", median(ratios));
  Record("fleet.shards", static_cast<double>(fleet.size()));

  // ---- Isolation soak: clean pass, then bombed pass. ----
  const std::string root_base =
      std::filesystem::temp_directory_path().string() + "/tpr-fleet-bench-" +
      std::to_string(::getpid());
  std::filesystem::remove_all(root_base);

  std::fprintf(stderr, "[bench] isolation: clean pass...\n");
  PassResult clean = RunPass(worlds, root_base + "-clean", /*bombed=*/false);
  std::fprintf(stderr, "[bench] isolation: bombed pass...\n");
  PassResult bombed = RunPass(worlds, root_base + "-bombed", /*bombed=*/true);

  long healthy_ok = 0;
  bool isolated = true;
  for (int c = 0; c < fleet.size(); ++c) {
    const ShardTraffic& ct = clean.traffic[static_cast<size_t>(c)];
    const ShardTraffic& bt = bombed.traffic[static_cast<size_t>(c)];
    if (c == 0) {
      std::printf(
          "[trace] shard0: clean ok=%ld err=%ld | bombed ok=%ld err=%ld "
          "live gen %llu -> %llu\n",
          ct.ok, ct.errors, bt.ok, bt.errors,
          static_cast<unsigned long long>(clean.shard0_live_gen),
          static_cast<unsigned long long>(bombed.shard0_live_gen));
      continue;
    }
    const bool identical = ct.trace == bt.trace;
    isolated = isolated && identical;
    healthy_ok += bt.ok;
    std::printf("[trace] shard%d: ok=%ld err=%ld trace %s clean run\n", c,
                bt.ok, bt.errors, identical ? "IDENTICAL to" : "DIVERGED from");
    TPR_CHECK(ct.errors == 0) << "clean pass failures on shard " << c;
    TPR_CHECK(bt.errors == 0)
        << bt.errors << " non-injected failures on healthy shard " << c;
  }
  TPR_CHECK(isolated) << "a healthy shard's trace diverged under @shard0 "
                         "faults — isolation is broken";
  // Clean pass is fault-free everywhere, including shard 0.
  TPR_CHECK(clean.traffic[0].errors == 0)
      << "clean pass failures on shard 0";

  Record("fleet.healthy_requests_ok", static_cast<double>(healthy_ok));
  Record("fleet.isolation_bitwise", isolated ? 1.0 : 0.0);
  Record("fleet.shard0_bombed_errors",
         static_cast<double>(bombed.traffic[0].errors));
  for (const char* counter :
       {"shard0.rollout.publish_torn", "shard0.drift.detections",
        "shard0.drift.publishes", "shard0.rollout.promoted",
        "shard1.rollout.promoted", "shard1.drift.detections"}) {
    Record(counter, static_cast<double>(obs::GetCounter(counter).value()));
  }

  std::printf("\nMulti-city sharded serving under targeted faults\n\n");
  TablePrinter table({"Metric", "Value"});
  table.AddRow({"shards", std::to_string(fleet.size())});
  table.AddRow({"healthy-shard requests ok", std::to_string(healthy_ok)});
  table.AddRow({"bitwise isolation", isolated ? "yes" : "NO"});
  table.AddRow({"shard0 injected-path errors",
                std::to_string(bombed.traffic[0].errors)});
  table.AddRow(
      {"shard0 torn publishes",
       std::to_string(obs::GetCounter("shard0.rollout.publish_torn").value())});
  table.AddRow(
      {"shard0 drift detections",
       std::to_string(obs::GetCounter("shard0.drift.detections").value())});
  table.AddRow({"shard0 live generation",
                std::to_string(bombed.shard0_live_gen)});
  std::printf("%s\n", table.ToString().c_str());

  std::filesystem::remove_all(root_base + "-clean");
  std::filesystem::remove_all(root_base + "-bombed");
  return 0;
}
