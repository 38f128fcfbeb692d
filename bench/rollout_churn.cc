// Model-churn bench for the validated rollout layer (tpr::rollout).
// Four phases over one service + controller pair, each a closed-loop
// request stream while the controller ticks through a lifecycle edge:
//
//   steady     — bootstrap gen 1 live; baseline latency with the rollout
//                layer idle (no candidate in the directory).
//   canary     — gen 2 appears, passes validation, canaries a keyed
//                fraction of traffic, and is promoted after N clean
//                requests. The promotion is folded at admission, so it
//                lands at a fixed admission index and the canary
//                counters are exact.
//   rollback   — gen 3 appears and canaries, but canary-regression:p=1
//                injects a regression verdict at its first routed
//                request: automatic rollback + quarantine, incumbent
//                traffic undisturbed.
//   quarantine — gen 4 appears with collapsed (all-zero) parameters: the
//                offline quality gate rejects it before it ever serves,
//                while live traffic keeps flowing.
//
// The lifecycle counters (bootstraps / candidates / promoted /
// rolled_back / quarantined / publishes and the per-phase ok counts) are
// bitwise-deterministic, so ci/bench_gate.py gates them exactly; latency
// and wall time are gated loosely like every other bench.

#include <algorithm>
#include <chrono>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/probe.h"
#include "fault/fault.h"
#include "harness.h"
#include "rollout/controller.h"
#include "serve/service.h"

namespace tpr::bench {
namespace {

struct PhaseStats {
  int requests = 0;
  int ok = 0;
  int canary_served = 0;
  int errors = 0;
  double seconds = 0.0;
  std::vector<double> latencies_ms;
};

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<size_t>(q * (values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

// Closed-loop submitter; ids continue across phases so keyed canary
// routing never repeats a verdict.
PhaseStats RunPhase(serve::InferenceService& service,
                    const std::vector<synth::TemporalPathSample>& samples,
                    int num_requests, uint64_t* next_id, size_t window = 8) {
  using Clock = std::chrono::steady_clock;
  struct Pending {
    Clock::time_point submitted;
    std::future<serve::ServeResult> future;
  };

  PhaseStats stats;
  stats.requests = num_requests;
  stats.latencies_ms.reserve(static_cast<size_t>(num_requests));
  std::deque<Pending> pending;

  auto drain_one = [&] {
    Pending p = std::move(pending.front());
    pending.pop_front();
    const serve::ServeResult result = p.future.get();
    const double ms = std::chrono::duration<double, std::milli>(
                          Clock::now() - p.submitted)
                          .count();
    stats.latencies_ms.push_back(ms);
    if (result.status.ok()) {
      ++stats.ok;
      if (result.canary) ++stats.canary_served;
    } else {
      ++stats.errors;
    }
  };

  Stopwatch sw;
  for (int i = 0; i < num_requests; ++i) {
    const auto& sample = samples[static_cast<size_t>(i) % samples.size()];
    serve::PathQuery query;
    query.path = sample.path;
    query.depart_time_s = sample.depart_time_s + (i % 7) * 450;
    query.id = (*next_id)++;
    auto submitted = service.Submit(std::move(query));
    TPR_CHECK(submitted.ok()) << submitted.status().ToString();
    pending.push_back({Clock::now(), std::move(*submitted)});
    while (pending.size() >= window) drain_one();
  }
  while (!pending.empty()) drain_one();
  stats.seconds = sw.ElapsedSeconds();
  return stats;
}

void InstallSpec(const char* spec) {
  auto plan = fault::FaultPlan::Parse(spec);
  TPR_CHECK(plan.ok()) << plan.status().ToString();
  fault::InstallPlan(std::move(*plan));
}

// One controller tick; the controller surfaces decisions as events.
void Tick(rollout::RolloutController& controller) {
  auto report = controller.Tick();
  TPR_CHECK(report.ok()) << report.status().ToString();
  for (const std::string& event : report->events) {
    std::fprintf(stderr, "[rollout] %s\n", event.c_str());
  }
}

void RecordPhase(const std::string& prefix, const PhaseStats& stats) {
  Record(prefix + ".ok", stats.ok);
  Record(prefix + ".errors", stats.errors);
  Record(prefix + ".canary_served", stats.canary_served);
  Record(prefix + ".p50_ms", Percentile(stats.latencies_ms, 0.50));
  Record(prefix + ".p99_ms", Percentile(stats.latencies_ms, 0.99));
}

std::vector<std::string> PhaseRow(const std::string& name,
                                  const PhaseStats& s) {
  return {name,
          std::to_string(s.requests),
          std::to_string(s.ok),
          std::to_string(s.canary_served),
          std::to_string(s.errors),
          TablePrinter::Num(Percentile(s.latencies_ms, 0.50), 3),
          TablePrinter::Num(Percentile(s.latencies_ms, 0.99), 3),
          TablePrinter::Num(s.seconds > 0 ? s.requests / s.seconds : 0, 0)};
}

void ZeroParameters(core::TemporalPathEncoder& encoder) {
  for (nn::Var p : encoder.Parameters()) {
    if (!p.defined()) continue;
    nn::Tensor& t = p.mutable_value();
    float* d = t.data();
    for (size_t i = 0; i < t.size(); ++i) d[i] = 0.0f;
  }
}

void PerturbParameters(core::TemporalPathEncoder& encoder, float scale,
                       uint64_t seed) {
  Rng rng(seed);
  for (nn::Var p : encoder.Parameters()) {
    if (!p.defined()) continue;
    nn::Tensor& t = p.mutable_value();
    float* d = t.data();
    for (size_t i = 0; i < t.size(); ++i) {
      d[i] += scale * (2.0f * static_cast<float>(rng.Uniform()) - 1.0f);
    }
  }
}

}  // namespace
}  // namespace tpr::bench

int main(int argc, char** argv) {
  using namespace tpr;
  using namespace tpr::bench;
  Init(argc, argv);
  obs::SetMetricsEnabled(true);

  const PreparedCity city = PrepareCity(synth::AalborgPreset());
  TPR_CHECK(!city.data->unlabeled.empty());

  core::EncoderConfig encoder_config;
  if (Smoke()) {
    encoder_config.d_hidden = 32;
    encoder_config.lstm_layers = 1;
  }

  serve::ServiceConfig config;
  config.num_workers = 4;
  config.queue_capacity = 64;
  config.block_when_full = true;
  config.max_retries = 2;
  config.backoff_base_ms = 0.2;
  config.backoff_max_ms = 5.0;
  config.breaker_trip_threshold = 10;
  config.breaker_open_requests = 32;
  config.cache_capacity = 512;
  config.time_bucket_s = 900;
  config.canary_permille = 250;
  config.canary_promote_after = Smoke() ? 24 : 96;

  serve::InferenceService service(city.features, encoder_config, config);

  fault::ClearPlan();
  const std::string model_dir =
      std::filesystem::temp_directory_path().string() + "/tpr-rollout-bench-" +
      std::to_string(::getpid());
  std::filesystem::remove_all(model_dir);

  rollout::RolloutConfig rollout_config;
  rollout_config.model_dir = model_dir;
  rollout_config.quality_budget = 0.10;
  rollout::RolloutController controller(
      &service, city.features, encoder_config,
      core::BuildProbeSet(*city.data, 64, /*seed=*/7), rollout_config);
  TPR_CHECK(controller.Init().ok());

  // Four generations staged up front, published into the watched
  // directory one phase at a time.
  core::TemporalPathEncoder gen1(city.features, encoder_config);
  core::TemporalPathEncoder gen2(city.features, encoder_config);
  PerturbParameters(gen2, 0.02f, 2);
  core::TemporalPathEncoder gen3(city.features, encoder_config);
  PerturbParameters(gen3, 0.02f, 3);
  core::TemporalPathEncoder gen4(city.features, encoder_config);
  ZeroParameters(gen4);

  const int steady_requests = Smoke() ? 400 : 4000;
  const int churn_requests = Smoke() ? 600 : 6000;
  uint64_t next_id = 1;

  // Phase 1: steady. Gen 1 bootstraps straight to live (no incumbent to
  // canary against), then serves with the rollout layer idle.
  std::fprintf(stderr, "[bench] steady phase: %d requests...\n",
               steady_requests);
  TPR_CHECK(serve::InferenceService::SaveModel(gen1, model_dir, 1).ok());
  Tick(controller);
  TPR_CHECK(service.Start().ok());
  const PhaseStats steady =
      RunPhase(service, city.data->unlabeled, steady_requests, &next_id);
  TPR_CHECK(steady.ok == steady.requests);

  // Phase 2: canary. Gen 2 validates and promotes after N clean
  // requests.
  std::fprintf(stderr, "[bench] canary phase: %d requests...\n",
               churn_requests);
  TPR_CHECK(serve::InferenceService::SaveModel(gen2, model_dir, 2).ok());
  Tick(controller);
  TPR_CHECK(service.canary_status().installed);
  const PhaseStats canary =
      RunPhase(service, city.data->unlabeled, churn_requests, &next_id);
  Tick(controller);
  TPR_CHECK(canary.ok == canary.requests);
  TPR_CHECK(service.model_generation() == 2);

  // Phase 3: rollback. Gen 3 validates cleanly but the injected
  // canary-regression verdict fires at its first routed request.
  std::fprintf(stderr, "[bench] rollback phase: %d requests...\n",
               churn_requests);
  TPR_CHECK(serve::InferenceService::SaveModel(gen3, model_dir, 3).ok());
  InstallSpec("canary-regression:p=1");
  Tick(controller);
  TPR_CHECK(service.canary_status().installed);
  const PhaseStats rollback =
      RunPhase(service, city.data->unlabeled, churn_requests, &next_id);
  Tick(controller);
  fault::ClearPlan();
  TPR_CHECK(rollback.ok == rollback.requests);
  TPR_CHECK(service.model_generation() == 2) << "incumbent must survive";

  // Phase 4: quarantine. Gen 4's collapsed parameters fail the offline
  // quality gate; it never receives a request.
  std::fprintf(stderr, "[bench] quarantine phase: %d requests...\n",
               steady_requests);
  TPR_CHECK(serve::InferenceService::SaveModel(gen4, model_dir, 4).ok());
  Tick(controller);
  TPR_CHECK(!service.canary_status().installed);
  const PhaseStats quarantine =
      RunPhase(service, city.data->unlabeled, steady_requests, &next_id);
  Tick(controller);
  TPR_CHECK(quarantine.ok == quarantine.requests);
  TPR_CHECK(quarantine.canary_served == 0);

  service.Shutdown();
  std::filesystem::remove_all(model_dir);

  RecordPhase("rollout.steady", steady);
  RecordPhase("rollout.canary", canary);
  RecordPhase("rollout.rollback", rollback);
  RecordPhase("rollout.quarantine", quarantine);
  for (const char* counter :
       {"rollout.bootstraps", "rollout.candidates", "rollout.canaries",
        "rollout.promoted", "rollout.rolled_back", "rollout.quarantined",
        "rollout.publishes", "rollout.publish_torn"}) {
    Record(counter, static_cast<double>(obs::GetCounter(counter).value()));
  }

  std::printf("Model churn through the validated rollout layer\n\n");
  TablePrinter table({"Phase", "Req", "OK", "Canary", "Err", "p50 ms",
                      "p99 ms", "req/s"});
  table.AddRow(PhaseRow("steady", steady));
  table.AddRow(PhaseRow("canary", canary));
  table.AddRow(PhaseRow("rollback", rollback));
  table.AddRow(PhaseRow("quarantine", quarantine));
  std::printf("%s\n", table.ToString().c_str());
  return 0;
}
