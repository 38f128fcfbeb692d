// Latency/robustness bench for the embedding inference service
// (tpr::serve). Four phases over the same service instance:
//
//   clean    — no fault plan; measures baseline sojourn latency
//              (admission -> result) under a closed-loop submitter.
//   faulted  — a deterministic tpr::fault plan injects encoder-forward
//              failures, ckpt-read failures, quant-encode failures,
//              scratch-alloc failures, queue-full sheds, and worker
//              latency; measures degraded latency plus the shed / retry /
//              degradation-rung counters across all four rungs.
//   outage   — encoder-forward:p=1 plus quant-encode:p=1 (rungs 0 and 1
//              both dead, and the bucket-cache compute shares the
//              encoder-forward site): every request lands on the
//              fallback rung and the circuit breaker trips, yielding
//              exact trip/open-skip counts.
//   recovery — plan cleared; the breaker drains its open window, probes,
//              and re-closes, ending with full-rung service restored.
//
// The model directory carries the int8 twin artifact (quant-1.q8), so
// every LoadModel below installs the quantized rung alongside the fp32
// encoder. A dedicated phase measures it:
//
//   quantized — encoder-forward:p=1 with a healthy twin: every cache-miss
//               request is answered by the int8 rung. The sequential
//               fp32-vs-int8 EncodeValue timing ratio (both legs run the
//               inference plan at batch 1) is recorded as
//               serve.quantized.encode_speedup_vs_full (floor-gated by
//               `bench_gate.py throughput`), and the probe-MAE ratio of
//               the twin vs the fp32 encoder as
//               serve.quantized.probe_mae_ratio (baseline-gated).
//
// Every phase above runs the service's per-request mode (the default
// batch_max=1, coalescing off: each request is its own batch of one at
// its exact departure time). Then three phases on fresh service
// instances compare that mode against micro-batching (tpr::batch) under
// a saturating closed-loop load:
//
//   single          — batch_max=1 (one encode per request), the
//                     throughput baseline.
//   batched         — batch_max from TPR_BATCH_MAX (default 32) with
//                     coalescing on: packed batch forwards plus
//                     duplicate-key coalescing. The
//                     derived serve.batched.speedup_vs_single and
//                     serve.batched.p99_gain ratios feed the
//                     `bench_gate.py throughput` floor gate (they are
//                     higher-is-better, so they stay OUT of the
//                     lower-is-better baseline check).
//   batched_faulted — the batched pipeline under the faulted-phase plan
//                     plus batch-flush drops; its per-request rung
//                     counters are deterministic (group-keyed verdicts)
//                     and baseline-gated like the unbatched ones.
//
// The faulted-phase outcome counters are bitwise-deterministic (single
// submitter, keyed fault verdicts, admission-order breaker fold — see
// src/serve/service.h), so ci/bench_gate.py gates them exactly; wall
// time and percentiles are gated loosely like every other bench.
//
// TPR_FAULT, when set, replaces the built-in fault plan (the CI soak job
// uses this to run the smoke bench under TSan with its own spec; the
// perf-gate job leaves it unset so gated counters match the baseline).

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
#include "quant/quant.h"
#include "serve/service.h"

namespace tpr::bench {
namespace {

// Built-in faulted-phase plan: the ISSUE's headline outage (10% of
// encoder forwards, 10% of checkpoint reads) plus a trickle of admission
// sheds and injected worker latency so every resilience path runs.
// The quant-encode:p=0.5 leg splits retry-exhausted traffic between the
// int8 rung and the bucket cache, so both degraded rungs stay exercised
// and gated.
constexpr const char* kDefaultFaultSpec =
    "encoder-forward:p=0.1;ckpt-read:p=0.1;quant-encode:p=0.5,seed=7;"
    "alloc:p=0.02;queue-full:p=0.01;slow-worker:p=0.05,delay_ms=0.2";

struct PhaseStats {
  int requests = 0;
  int ok_full = 0;
  int ok_quantized = 0;
  int ok_cached = 0;
  int ok_fallback = 0;
  int shed = 0;
  int other_errors = 0;
  double seconds = 0.0;
  std::vector<double> latencies_ms;

  int ok() const { return ok_full + ok_quantized + ok_cached + ok_fallback; }
};

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<size_t>(q * (values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

void Classify(const serve::ServeResult& result, PhaseStats* stats) {
  if (result.status.ok()) {
    switch (result.rung) {
      case serve::Rung::kFull: ++stats->ok_full; break;
      case serve::Rung::kQuantized: ++stats->ok_quantized; break;
      case serve::Rung::kCached: ++stats->ok_cached; break;
      case serve::Rung::kFallback: ++stats->ok_fallback; break;
    }
  } else if (result.status.code() == StatusCode::kResourceExhausted) {
    ++stats->shed;
  } else {
    ++stats->other_errors;
  }
}

// Workload mix: hot_per_10 of every 10 requests re-request one of
// hot_pool popular (path, departure) keys round-robin — the duplicate
// traffic a production path service sees on commute corridors, and
// exactly the shape the batch former's coalescing is built for. The
// rest walk the sample set with a rotating departure jitter, so their
// (path, bucket) keys practically never repeat inside a batch window.
// The default (0) sends every request down the unique stream.
struct TraceMix {
  int hot_per_10 = 0;
  int hot_pool = 0;
};

// Closed-loop submitter: keeps a small in-flight window so the workers
// stay busy while per-request sojourn latency is still well defined.
// Request ids are the loop index — replaying the phase replays the keyed
// fault verdicts. Every `reload_every` requests the submitter also
// issues a LoadModel, exercising the ckpt-read fault path (a failed
// reload must leave the old generation serving).
PhaseStats RunPhase(serve::InferenceService& service,
                    const std::vector<synth::TemporalPathSample>& samples,
                    const std::string& model_dir, int num_requests,
                    int reload_every, size_t window = 8,
                    TraceMix mix = {}) {
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
    Classify(result, &stats);
  };

  Stopwatch sw;
  int hot_seq = 0;
  int uniq_seq = 0;
  for (int i = 0; i < num_requests; ++i) {
    if (reload_every > 0 && i > 0 && i % reload_every == 0) {
      (void)service.LoadModel(model_dir);  // failure keeps the old model
    }
    serve::PathQuery query;
    if (mix.hot_per_10 > 0 && (i % 10) < mix.hot_per_10) {
      const auto& sample =
          samples[static_cast<size_t>(hot_seq++ % mix.hot_pool) %
                  samples.size()];
      query.path = sample.path;
      // Fixed departure: every repeat shares the hot key's time bucket.
      query.depart_time_s = sample.depart_time_s;
    } else {
      const auto& sample =
          samples[static_cast<size_t>(uniq_seq) % samples.size()];
      query.path = sample.path;
      // Walk across cache time buckets so rung 1 sees hits and misses.
      query.depart_time_s = sample.depart_time_s + (uniq_seq % 7) * 450;
      ++uniq_seq;
    }
    query.id = static_cast<uint64_t>(i + 1);
    auto submitted = service.Submit(std::move(query));
    if (!submitted.ok()) {
      serve::ServeResult shed;
      shed.status = submitted.status();
      Classify(shed, &stats);
    } else {
      pending.push_back({Clock::now(), std::move(*submitted)});
    }
    while (pending.size() >= window) drain_one();
  }
  while (!pending.empty()) drain_one();
  stats.seconds = sw.ElapsedSeconds();
  return stats;
}

void RecordPhase(const std::string& prefix, const PhaseStats& stats) {
  Record(prefix + ".ok_full", stats.ok_full);
  Record(prefix + ".ok_quantized", stats.ok_quantized);
  Record(prefix + ".ok_cached", stats.ok_cached);
  Record(prefix + ".ok_fallback", stats.ok_fallback);
  Record(prefix + ".shed", stats.shed);
  Record(prefix + ".other_errors", stats.other_errors);
  Record(prefix + ".p50_ms", Percentile(stats.latencies_ms, 0.50));
  Record(prefix + ".p99_ms", Percentile(stats.latencies_ms, 0.99));
}

std::vector<std::string> PhaseRow(const std::string& name,
                                  const PhaseStats& s) {
  return {name,
          std::to_string(s.requests),
          std::to_string(s.ok()),
          std::to_string(s.ok_full),
          std::to_string(s.ok_quantized),
          std::to_string(s.ok_cached),
          std::to_string(s.ok_fallback),
          std::to_string(s.shed),
          TablePrinter::Num(Percentile(s.latencies_ms, 0.50), 3),
          TablePrinter::Num(Percentile(s.latencies_ms, 0.95), 3),
          TablePrinter::Num(Percentile(s.latencies_ms, 0.99), 3),
          TablePrinter::Num(s.seconds > 0 ? s.requests / s.seconds : 0, 0)};
}

}  // namespace
}  // namespace tpr::bench

int main(int argc, char** argv) {
  using namespace tpr;
  using namespace tpr::bench;
  Init(argc, argv);
  // The gated shed/retry/breaker counters must be live in full mode too,
  // not only under --smoke.
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
  // Backpressure, not shedding: the only sheds are injected queue-full
  // faults (keyed by ticket), which keeps the shed counter deterministic.
  config.block_when_full = true;
  config.max_retries = 2;
  config.backoff_base_ms = 0.2;
  config.backoff_max_ms = 5.0;
  config.breaker_trip_threshold = 10;
  config.breaker_open_requests = 32;
  config.cache_capacity = 512;
  config.time_bucket_s = 900;

  serve::InferenceService service(city.features, encoder_config, config);

  // Stage a model checkpoint plus its int8 twin artifact and install
  // both through the load path, all before any fault plan exists. The
  // encoder and twin stay alive for the sequential encode timing below.
  fault::ClearPlan();
  const std::string model_dir =
      std::filesystem::temp_directory_path().string() + "/tpr-serve-bench-" +
      std::to_string(::getpid());
  core::TemporalPathEncoder encoder(city.features, encoder_config);
  TPR_CHECK(serve::InferenceService::SaveModel(encoder, model_dir, 1).ok());
  std::shared_ptr<const quant::QuantizedEncoder> twin;
  {
    std::vector<core::PathTimeItem> calibration;
    const size_t calib_n =
        std::min<size_t>(32, city.data->unlabeled.size());
    calibration.reserve(calib_n);
    for (size_t i = 0; i < calib_n; ++i) {
      const auto& s = city.data->unlabeled[i];
      calibration.push_back({&s.path, s.depart_time_s});
    }
    auto qmodel = quant::QuantizeEncoder(encoder, calibration);
    TPR_CHECK(qmodel.ok()) << qmodel.status().ToString();
    qmodel->generation = 1;
    TPR_CHECK(quant::SaveQuantizedModel(model_dir, *qmodel, 1).ok());
    twin = std::make_shared<const quant::QuantizedEncoder>(
        city.features, *std::move(qmodel));
  }
  TPR_CHECK(service.LoadModel(model_dir).ok());
  TPR_CHECK(service.Start().ok());

  const int clean_requests = Smoke() ? 600 : 5000;
  const int faulted_requests = Smoke() ? 1200 : 10000;

  std::fprintf(stderr, "[bench] clean phase: %d requests...\n",
               clean_requests);
  const PhaseStats clean = RunPhase(service, city.data->unlabeled, model_dir,
                                    clean_requests, /*reload_every=*/0);
  TPR_CHECK(clean.ok() == clean.requests);

  const char* env_spec = std::getenv("TPR_FAULT");
  const std::string spec = env_spec != nullptr ? env_spec : kDefaultFaultSpec;
  std::fprintf(stderr, "[bench] faulted phase: %d requests, plan \"%s\"...\n",
               faulted_requests, spec.c_str());
  auto plan = fault::FaultPlan::Parse(spec);
  TPR_CHECK(plan.ok()) << plan.status().ToString();
  fault::InstallPlan(std::move(*plan));

  const uint64_t retries0 = obs::GetCounter("serve.retries").value();
  const uint64_t trips0 = obs::GetCounter("serve.breaker_trips").value();
  const uint64_t skips0 = obs::GetCounter("serve.breaker_open_skips").value();
  const uint64_t load_fail0 =
      obs::GetCounter("serve.model_load_failures").value();

  const PhaseStats faulted =
      RunPhase(service, city.data->unlabeled, model_dir, faulted_requests,
               /*reload_every=*/faulted_requests / 4);
  // Everything admitted must resolve; sheds are the only error budget.
  TPR_CHECK(faulted.other_errors == 0);
  TPR_CHECK(faulted.ok() + faulted.shed == faulted.requests);
  const double faulted_retries =
      static_cast<double>(obs::GetCounter("serve.retries").value() - retries0);
  const double faulted_load_failures = static_cast<double>(
      obs::GetCounter("serve.model_load_failures").value() - load_fail0);

  // Total outage of rungs 0-2 (the bucket-cache compute shares the
  // encoder-forward site): the breaker must trip (the admission-order
  // fold makes trip/skip counts exact), and every request must still
  // resolve on the fallback rung.
  const int outage_requests = 120;
  std::fprintf(stderr, "[bench] outage phase: %d requests...\n",
               outage_requests);
  auto outage_plan =
      fault::FaultPlan::Parse("encoder-forward:p=1;quant-encode:p=1");
  TPR_CHECK(outage_plan.ok());
  fault::InstallPlan(std::move(*outage_plan));
  const PhaseStats outage = RunPhase(service, city.data->unlabeled, model_dir,
                                     outage_requests, /*reload_every=*/0);
  TPR_CHECK(outage.ok() == outage.requests);
  TPR_CHECK(obs::GetCounter("serve.breaker_trips").value() > trips0);

  // Recovery: the open-window drain, the successful probe, and the
  // re-close are folded at admission, so they land at fixed request
  // positions.
  const int recovery_requests = 60;
  std::fprintf(stderr, "[bench] recovery phase: %d requests...\n",
               recovery_requests);
  fault::ClearPlan();
  const PhaseStats recovery =
      RunPhase(service, city.data->unlabeled, model_dir, recovery_requests,
               /*reload_every=*/0);
  TPR_CHECK(recovery.ok() == recovery.requests);
  TPR_CHECK(recovery.ok_full > 0);  // the breaker re-closed

  service.Shutdown();

  // ---- Quantized rung under a total fp32 outage ----
  // Fresh service (breaker/cache state must not leak), healthy twin:
  // every cache-miss request is answered by the int8 rung.
  const int quantized_requests = Smoke() ? 600 : 5000;
  std::fprintf(stderr, "[bench] quantized phase: %d requests...\n",
               quantized_requests);
  PhaseStats quantized;
  {
    serve::InferenceService svc(city.features, encoder_config, config);
    TPR_CHECK(svc.LoadModel(model_dir).ok());
    TPR_CHECK(svc.Start().ok());
    auto qplan = fault::FaultPlan::Parse("encoder-forward:p=1");
    TPR_CHECK(qplan.ok());
    fault::InstallPlan(std::move(*qplan));
    quantized = RunPhase(svc, city.data->unlabeled, model_dir,
                         quantized_requests, /*reload_every=*/0);
    fault::ClearPlan();
    svc.Shutdown();
  }
  TPR_CHECK(quantized.ok() == quantized.requests);
  TPR_CHECK(quantized.ok_quantized == quantized.requests)
      << "a healthy twin must answer every request of the outage";

  // ---- Sequential fp32 vs int8 encode timing + probe quality ----
  // One thread, same items, no service in the way: the raw EncodeValue
  // rate ratio the ~4x-smaller rung weights buy. Both EncodeValues run
  // core/inference_plan.h at batch 1, so the ratio isolates the int8
  // gate GEMMs and their quantize/dequant epilogues. Always measured at
  // the production encoder shape — the smoke phases shrink d_hidden to keep
  // the service phases fast, but at that size feature assembly dominates
  // and the GEMM speedup under test would be invisible.
  const core::EncoderConfig timing_config;  // production defaults
  core::TemporalPathEncoder timing_encoder(city.features, timing_config);
  std::shared_ptr<const quant::QuantizedEncoder> timing_twin;
  {
    std::vector<core::PathTimeItem> calibration;
    const size_t calib_n = std::min<size_t>(32, city.data->unlabeled.size());
    calibration.reserve(calib_n);
    for (size_t i = 0; i < calib_n; ++i) {
      const auto& s = city.data->unlabeled[i];
      calibration.push_back({&s.path, s.depart_time_s});
    }
    auto qmodel = quant::QuantizeEncoder(timing_encoder, calibration);
    TPR_CHECK(qmodel.ok()) << qmodel.status().ToString();
    timing_twin = std::make_shared<const quant::QuantizedEncoder>(
        city.features, *std::move(qmodel));
  }
  const int encode_items = Smoke() ? 200 : 1000;
  double fp32_seconds = 0.0, int8_seconds = 0.0;
  double fp32_batch_seconds = 0.0, int8_batch_seconds = 0.0;
  {
    std::vector<core::PathTimeItem> items;
    items.reserve(static_cast<size_t>(encode_items));
    for (int i = 0; i < encode_items; ++i) {
      const auto& s =
          city.data->unlabeled[static_cast<size_t>(i) %
                               city.data->unlabeled.size()];
      items.push_back({&s.path, s.depart_time_s + (i % 7) * 450});
    }
    Stopwatch sw_fp32;
    for (const auto& it : items) {
      auto v = timing_encoder.EncodeValue(*it.path, it.depart_time_s);
      TPR_CHECK(!v.empty());
    }
    fp32_seconds = sw_fp32.ElapsedSeconds();
    Stopwatch sw_int8;
    for (const auto& it : items) {
      auto v = timing_twin->EncodeValue(*it.path, it.depart_time_s);
      TPR_CHECK(!v.empty());
    }
    int8_seconds = sw_int8.ElapsedSeconds();

    // Batched legs: the shape the rung actually runs at — group-level
    // cache misses arrive as EncodeValueBatch calls. Same items, cut
    // into the service's typical flush size.
    constexpr size_t kTimingBatch = 32;
    Stopwatch sw_fp32_batch;
    for (size_t i = 0; i < items.size(); i += kTimingBatch) {
      const size_t n = std::min(kTimingBatch, items.size() - i);
      const std::vector<core::PathTimeItem> chunk(items.begin() + i,
                                                  items.begin() + i + n);
      auto rows = timing_encoder.EncodeValueBatch(chunk);
      TPR_CHECK(rows.size() == n);
    }
    fp32_batch_seconds = sw_fp32_batch.ElapsedSeconds();
    Stopwatch sw_int8_batch;
    for (size_t i = 0; i < items.size(); i += kTimingBatch) {
      const size_t n = std::min(kTimingBatch, items.size() - i);
      const std::vector<core::PathTimeItem> chunk(items.begin() + i,
                                                  items.begin() + i + n);
      auto rows = timing_twin->EncodeValueBatch(chunk);
      TPR_CHECK(rows.size() == n);
    }
    int8_batch_seconds = sw_int8_batch.ElapsedSeconds();
  }
  const double encode_speedup =
      int8_seconds > 0 ? fp32_seconds / int8_seconds : 0.0;
  const double batched_encode_speedup =
      int8_batch_seconds > 0 ? fp32_batch_seconds / int8_batch_seconds : 0.0;

  const core::ProbeSet probe = core::BuildProbeSet(*city.data, 48, 5);
  const auto fp32_mae = core::ProbeTravelTimeMae(timing_encoder, probe);
  TPR_CHECK(fp32_mae.ok()) << fp32_mae.status().ToString();
  const auto quant_mae = core::ProbeTravelTimeMaeWith(
      [&](const std::vector<core::PathTimeItem>& items) {
        return timing_twin->EncodeValueBatch(items);
      },
      timing_twin->representation_dim(), probe);
  TPR_CHECK(quant_mae.ok()) << quant_mae.status().ToString();
  const double probe_mae_ratio = *fp32_mae > 0 ? *quant_mae / *fp32_mae : 0.0;

  // ---- Micro-batched pipeline: throughput comparison ----
  // Fresh service per leg (their breaker/cache state must not leak), a
  // deep queue, and a wide in-flight window so the submitter saturates
  // the workers: the comparison measures encode throughput, not the
  // submitter's round-trips.
  fault::ClearPlan();
  serve::ServiceConfig tput_config = config;
  tput_config.queue_capacity = 512;
  tput_config.batch_max = 1;
  const int compare_requests = Smoke() ? 6400 : 20000;
  const size_t tput_window = 256;
  // Both legs replay the same duplicate-heavy trace: 9 of every 10
  // requests cycle 8 hot (path, departure) keys. The single leg
  // encodes every request regardless; the batched leg coalesces the
  // repeats — that asymmetry is the feature under test.
  const TraceMix tput_mix{/*hot_per_10=*/9, /*hot_pool=*/8};

  std::fprintf(stderr,
               "[bench] single (batch_max=1) throughput: %d requests...\n",
               compare_requests);
  PhaseStats single;
  {
    serve::InferenceService svc(city.features, encoder_config, tput_config);
    TPR_CHECK(svc.LoadModel(model_dir).ok());
    TPR_CHECK(svc.Start().ok());
    single = RunPhase(svc, city.data->unlabeled, model_dir, compare_requests,
                      /*reload_every=*/0, tput_window, tput_mix);
    svc.Shutdown();
  }
  TPR_CHECK(single.ok() == single.requests);

  serve::ServiceConfig batched_config = tput_config;
  {
    const batch::BatchConfig bc = batch::FromEnv();
    batched_config.batch_max = bc.max_batch;
    batched_config.batch_ticks = bc.max_ticks;
    batched_config.batch_coalesce = true;
  }
  std::fprintf(stderr,
               "[bench] batched throughput: %d requests (batch_max=%d)...\n",
               compare_requests, batched_config.batch_max);
  PhaseStats batched;
  uint64_t batches = 0;
  uint64_t coalesced = 0;
  {
    const uint64_t batches0 = obs::GetCounter("serve.batches").value();
    const uint64_t coalesced0 =
        obs::GetCounter("serve.batch_coalesced").value();
    serve::InferenceService svc(city.features, encoder_config, batched_config);
    TPR_CHECK(svc.LoadModel(model_dir).ok());
    TPR_CHECK(svc.Start().ok());
    batched = RunPhase(svc, city.data->unlabeled, model_dir, compare_requests,
                       /*reload_every=*/0, tput_window, tput_mix);
    svc.Shutdown();
    batches = obs::GetCounter("serve.batches").value() - batches0;
    coalesced = obs::GetCounter("serve.batch_coalesced").value() - coalesced0;
  }
  TPR_CHECK(batched.ok() == batched.requests);

  const double single_rps =
      single.seconds > 0 ? single.requests / single.seconds : 0.0;
  const double batched_rps =
      batched.seconds > 0 ? batched.requests / batched.seconds : 0.0;
  const double speedup = single_rps > 0 ? batched_rps / single_rps : 0.0;
  const double single_p99 = Percentile(single.latencies_ms, 0.99);
  const double batched_p99 = Percentile(batched.latencies_ms, 0.99);
  const double p99_gain = batched_p99 > 0 ? single_p99 / batched_p99 : 0.0;

  // ---- Batched pipeline under faults ----
  // The faulted-phase plan plus injected batch-flush drops. Batch
  // COMPOSITION depends on when workers finish (a partial batch is taken
  // the moment no worker is encoding a batch of several), but every
  // verdict is keyed by the request or its group hash, so the
  // per-request rung counters below are deterministic and gated.
  const std::string batched_spec =
      env_spec != nullptr ? spec : spec + ";batch-flush:p=0.05";
  std::fprintf(stderr,
               "[bench] batched faulted phase: %d requests, plan \"%s\"...\n",
               faulted_requests, batched_spec.c_str());
  PhaseStats batched_faulted;
  {
    serve::InferenceService svc(city.features, encoder_config, batched_config);
    TPR_CHECK(svc.LoadModel(model_dir).ok());
    TPR_CHECK(svc.Start().ok());
    auto bplan = fault::FaultPlan::Parse(batched_spec);
    TPR_CHECK(bplan.ok()) << bplan.status().ToString();
    fault::InstallPlan(std::move(*bplan));
    batched_faulted =
        RunPhase(svc, city.data->unlabeled, model_dir, faulted_requests,
                 /*reload_every=*/faulted_requests / 4, tput_window, tput_mix);
    fault::ClearPlan();
    svc.Shutdown();
  }
  TPR_CHECK(batched_faulted.other_errors == 0);
  TPR_CHECK(batched_faulted.ok() + batched_faulted.shed ==
            batched_faulted.requests);

  std::filesystem::remove_all(model_dir);

  RecordPhase("serve.clean", clean);
  RecordPhase("serve.faulted", faulted);
  Record("serve.faulted.retries", faulted_retries);
  Record("serve.faulted.model_load_failures", faulted_load_failures);
  Record("serve.outage.ok_fallback", outage.ok_fallback);
  Record("serve.recovery.ok_full", recovery.ok_full);
  // Gate-friendly inverse (the perf gate is upper-bound-only): requests
  // the re-closing breaker still served off the full rung.
  Record("serve.recovery.degraded", recovery.requests - recovery.ok_full);
  Record("serve.breaker_trips",
         static_cast<double>(obs::GetCounter("serve.breaker_trips").value() -
                             trips0));
  Record("serve.breaker_open_skips",
         static_cast<double>(
             obs::GetCounter("serve.breaker_open_skips").value() - skips0));
  RecordPhase("serve.quantized", quantized);
  // Higher-is-better: floor-gated by `bench_gate.py throughput`. The
  // timing is sequential and single-threaded, so the floor holds on
  // core-starved runners too.
  Record("serve.quantized.encode_speedup_vs_full", encode_speedup);
  // Same ratio at the rung's actual call shape (EncodeValueBatch of 32).
  // The fp32 batched path already amortizes per-item overhead, so this
  // floor is tighter than the sequential one — see DESIGN.md section 14
  // for the Amdahl breakdown.
  Record("serve.quantized.batched_encode_speedup_vs_full",
         batched_encode_speedup);
  // Lower-is-better: the twin's probe MAE relative to the fp32 encoder,
  // baseline-gated like every other quality metric.
  Record("serve.quantized.probe_mae_ratio", probe_mae_ratio);
  RecordPhase("serve.single", single);
  RecordPhase("serve.batched", batched);
  RecordPhase("serve.batched_faulted", batched_faulted);
  // Higher-is-better ratios for the `bench_gate.py throughput` floor
  // gate — deliberately NOT in bench_baseline.json, whose check is
  // lower-is-better.
  Record("serve.batched.speedup_vs_single", speedup);
  Record("serve.batched.p99_gain", p99_gain);
  // Informational (batch composition is wall-clock dependent): how much
  // the former actually batched and coalesced.
  Record("serve.batched.batches", static_cast<double>(batches));
  Record("serve.batched.coalesced_requests", static_cast<double>(coalesced));

  std::printf("Inference service latency under deterministic faults\n");
  std::printf("fault plan: %s\n\n", spec.c_str());
  TablePrinter table({"Phase", "Req", "OK", "Full", "Quant", "Cached",
                      "Fallback", "Shed", "p50 ms", "p95 ms", "p99 ms",
                      "req/s"});
  table.AddRow(PhaseRow("clean", clean));
  table.AddRow(PhaseRow("faulted", faulted));
  table.AddRow(PhaseRow("outage", outage));
  table.AddRow(PhaseRow("recovery", recovery));
  table.AddRow(PhaseRow("quantized", quantized));
  table.AddRow(PhaseRow("single", single));
  table.AddRow(PhaseRow("batched", batched));
  table.AddRow(PhaseRow("batched_faulted", batched_faulted));
  std::printf("%s\n", table.ToString().c_str());
  std::printf(
      "batched vs single: %.2fx req/s, p99 gain %.2fx "
      "(%llu batches, %llu coalesced)\n",
      speedup, p99_gain, static_cast<unsigned long long>(batches),
      static_cast<unsigned long long>(coalesced));
  std::printf(
      "int8 vs fp32 encode: %.2fx sequential rate, probe MAE ratio %.4f "
      "(fp32 %.3f, int8 %.3f)\n",
      encode_speedup, probe_mae_ratio, *fp32_mae, *quant_mae);
  return 0;
}
