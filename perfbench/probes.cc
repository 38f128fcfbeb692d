#include "probes.h"

#include <algorithm>
#include <utility>

#include "kern/kern.h"
#include "nn/grad_accumulator.h"
#include "nn/optimizer.h"
#include "quant/quant.h"
#include "synth/weak_labels.h"
#include "util/rng.h"

namespace perfbench {

const std::vector<std::pair<const char*, const char*>>& PerLayerMetrics() {
  static const std::vector<std::pair<const char*, const char*>> kMetrics = {
      {"loadgen.lag_p99_ms", "ms"},
      {"route.submit_us_p50", "us"},
      {"route.submit_us_p99", "us"},
      {"serve.wait_ms_mean", "ms"},
      {"serve.process_ms_mean", "ms"},
      {"serve.queue_wait_ms_mean", "ms"},
      {"serve.full_rung_ratio", "ratio"},
      {"serve.retries", "count"},
      {"batch.groups_per_flush", "count"},
      {"batch.requests_per_flush", "count"},
      {"batch.coalesce_ratio", "ratio"},
      {"batch.former_ns_per_arrival", "ns"},
      {"encoder.value_us.short", "us"},
      {"encoder.value_us.mid", "us"},
      {"encoder.value_us.long", "us"},
      {"encoder.batch_us_per_path.b1", "us"},
      {"encoder.batch_us_per_path.b8", "us"},
      {"encoder.batch_us_per_path.b32", "us"},
      {"quant.batch_us_per_path.b32", "us"},
      {"kern.gemm_gflops.b1", "GFLOP/s"},
      {"kern.gemm_gflops.b32", "GFLOP/s"},
      {"kern.lstm_cell_us.b32", "us"},
      {"kern.arena_hit_ratio", "ratio"},
      {"kern.alloc_mb", "MB"},
      {"train.curriculum_s", "s"},
      {"train.epochs_s", "s"},
      {"train.ckpt_s", "s"},
      {"train.shard_ms_mean", "ms"},
      {"train.adam_ms_per_step", "ms"},
      {"train.serial_ms_per_step", "ms"},
      {"train.worker_busy_ratio", "ratio"},
      {"step.forward_ms", "ms"},
      {"step.loss_ms", "ms"},
      {"step.backward_ms", "ms"},
      {"step.reduce_ms", "ms"},
      {"step.clip_ms", "ms"},
      {"step.adam_ms", "ms"},
      {"ckpt.load_ms", "ms"},
      {"setup.dataset_s", "s"},
      {"setup.features_s", "s"},
      {"trace.coverage_ratio", "ratio"},
      {"trace.overhead_ratio", "ratio"},
  };
  return kMetrics;
}

namespace {

using tpr::core::PathTimeItem;

/// Times `fn` once per chunk of `b` items, as spans named `span`.
/// Returns microseconds per item.
template <typename Fn>
double TimeChunks(const std::vector<PathTimeItem>& items, size_t b,
                  const char* span, int rounds, Tracer& tracer, Fn fn) {
  for (int r = 0; r < rounds; ++r) {
    for (size_t i = 0; i + b <= items.size(); i += b) {
      const std::vector<PathTimeItem> chunk(items.begin() + i,
                                            items.begin() + i + b);
      const int s = tracer.Begin(span);
      fn(chunk);
      tracer.End(s);
    }
  }
  return MeanUs(tracer.spans(), span) / static_cast<double>(b);
}

}  // namespace

void ProbeEncoder(const tpr::core::TemporalPathEncoder& encoder,
                  const std::vector<PathTimeItem>& items, Tracer& tracer,
                  Report& report) {
  if (items.size() < 96) {
    report.Fail("encoder probe needs 96 requests");
    return;
  }
  // Path-length tertiles of the workload's own requests.
  std::vector<PathTimeItem> sorted = items;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const PathTimeItem& a, const PathTimeItem& b) {
                     return a.path->size() < b.path->size();
                   });
  const char* kTertile[] = {"encoder.value.short", "encoder.value.mid",
                            "encoder.value.long"};
  const char* kMetric[] = {"encoder.value_us.short", "encoder.value_us.mid",
                           "encoder.value_us.long"};
  (void)encoder.EncodeValue(*sorted[0].path, sorted[0].depart_time_s);  // warm
  const size_t third = sorted.size() / 3;
  for (int t = 0; t < 3; ++t) {
    const size_t lo = third * static_cast<size_t>(t);
    const size_t hi = t == 2 ? sorted.size() : lo + third;
    // Up to 64 paths per tertile, spread over the tertile.
    const size_t step = std::max<size_t>(1, (hi - lo) / 64);
    for (size_t i = lo; i < hi; i += step) {
      const int s = tracer.Begin(kTertile[t]);
      (void)encoder.EncodeValue(*sorted[i].path, sorted[i].depart_time_s);
      tracer.End(s);
    }
    report.Set(kMetric[t], MeanUs(tracer.spans(), kTertile[t]), "us");
  }

  // Batched forwards over the request mix, in arrival order.
  const std::vector<PathTimeItem> mix(items.begin(), items.begin() + 96);
  const auto batch_fn = [&](const std::vector<PathTimeItem>& chunk) {
    (void)encoder.EncodeValueBatch(chunk);
  };
  report.Set("encoder.batch_us_per_path.b1",
             TimeChunks(mix, 1, "encoder.batch.b1", 1, tracer, batch_fn),
             "us");
  report.Set("encoder.batch_us_per_path.b8",
             TimeChunks(mix, 8, "encoder.batch.b8", 2, tracer, batch_fn),
             "us");
  report.Set("encoder.batch_us_per_path.b32",
             TimeChunks(mix, 32, "encoder.batch.b32", 3, tracer, batch_fn),
             "us");

  // The int8 twin, calibrated on the first 32 requests.
  const std::vector<PathTimeItem> calibration(mix.begin(), mix.begin() + 32);
  auto qmodel = tpr::quant::QuantizeEncoder(encoder, calibration);
  if (!qmodel.ok()) {
    report.Fail("quantize: " + qmodel.status().ToString());
    return;
  }
  const tpr::quant::QuantizedEncoder twin(encoder.features(),
                                          *std::move(qmodel));
  report.Set("quant.batch_us_per_path.b32",
             TimeChunks(mix, 32, "quant.batch.b32", 3, tracer,
                        [&](const std::vector<PathTimeItem>& chunk) {
                          (void)twin.EncodeValueBatch(chunk);
                        }),
             "us");
}

void ProbeKern(int d_hidden, Tracer& tracer, Report& report) {
  const int k = d_hidden;
  const int n = 4 * d_hidden;
  tpr::Rng rng(5);
  std::vector<float> a(static_cast<size_t>(32 * k));
  std::vector<float> b(static_cast<size_t>(k * n));
  std::vector<float> out(static_cast<size_t>(32 * n));
  for (float& x : a) x = static_cast<float>(rng.Uniform(-1.0, 1.0));
  for (float& x : b) x = static_cast<float>(rng.Uniform(-1.0, 1.0));
  const struct {
    int m;
    int reps;
    const char* span;
    const char* metric;
  } kShapes[] = {{1, 4000, "kern.gemm.b1", "kern.gemm_gflops.b1"},
                 {32, 400, "kern.gemm.b32", "kern.gemm_gflops.b32"}};
  for (const auto& shape : kShapes) {
    tpr::kern::GemmAcc(a.data(), b.data(), out.data(), shape.m, k, n);  // warm
    const int s = tracer.Begin(shape.span);
    for (int r = 0; r < shape.reps; ++r) {
      tpr::kern::GemmAcc(a.data(), b.data(), out.data(), shape.m, k, n);
    }
    tracer.End(s);
    const double us = MeanUs(tracer.spans(), shape.span);
    const double flops = 2.0 * shape.m * k * n * shape.reps;
    report.Set(shape.metric, us > 0 ? flops / (us * 1e3) : 0.0, "GFLOP/s");
  }

  // Fused LSTM cell over a 32-row batch, gates in a mild range.
  const int h = d_hidden;
  const int rows = 32;
  const int reps = 400;
  std::vector<float> g(static_cast<size_t>(rows * 4 * h));
  std::vector<float> c(static_cast<size_t>(rows * h));
  std::vector<float> act(static_cast<size_t>(rows * 5 * h));
  std::vector<float> cell_out(static_cast<size_t>(rows * 2 * h));
  for (float& x : g) x = static_cast<float>(rng.Uniform(-2.0, 2.0));
  for (float& x : c) x = static_cast<float>(rng.Uniform(-1.0, 1.0));
  const int s = tracer.Begin("kern.lstm_cell.b32");
  for (int r = 0; r < reps; ++r) {
    for (int i = 0; i < rows; ++i) {
      tpr::kern::LstmCellRow(&g[static_cast<size_t>(i * 4 * h)],
                             &c[static_cast<size_t>(i * h)],
                             &act[static_cast<size_t>(i * 5 * h)],
                             &cell_out[static_cast<size_t>(i * 2 * h)], h);
    }
  }
  tracer.End(s);
  report.Set("kern.lstm_cell_us.b32",
             MeanUs(tracer.spans(), "kern.lstm_cell.b32") / reps, "us");
}

void ProbeFormer(const std::vector<std::vector<Arrival>>& per_shard,
                 const tpr::batch::BatchConfig& config, Tracer& tracer,
                 Report& report) {
  size_t arrivals = 0;
  double total_us = 0.0;
  for (int round = 0; round < 3; ++round) {
    for (const auto& seq : per_shard) {
      tpr::batch::BatchFormer former(config);
      uint64_t ticket = 0;
      const int s = tracer.Begin("batch.former_replay");
      for (const Arrival& a : seq) {
        (void)former.Arrive(ticket++, *a.path, a.depart_time_s, /*salt=*/1);
        (void)former.Tick();
      }
      tracer.End(s);
      total_us += tracer.spans()[static_cast<size_t>(s)].dur_us();
      arrivals += seq.size();
    }
  }
  report.Set("batch.former_ns_per_arrival",
             arrivals > 0 ? total_us * 1e3 / static_cast<double>(arrivals)
                          : 0.0,
             "ns");
}

void ProbeStep(std::shared_ptr<const tpr::core::FeatureSpace> features,
               const tpr::core::WscConfig& config, uint64_t seed,
               Tracer& tracer, Report& report) {
  namespace core = tpr::core;
  namespace nn = tpr::nn;
  const auto& pool = features->data->unlabeled;
  const auto& traffic = *features->data->traffic;
  core::TemporalPathEncoder encoder(features, config.encoder);
  const std::vector<nn::Var> params = encoder.Parameters();
  nn::Adam adam(params, config.lr);
  nn::GradAccumulator accumulator(params);

  // One minibatch of the trainer's shape: anchors plus one generated
  // positive each (same path, same weak label, fresh departure).
  tpr::Rng rng(tpr::MixSeed(seed, 0x57e9));
  std::vector<core::BatchItem> batch;
  const int anchors = std::max(2, config.anchors_per_batch);
  for (int i = 0; i < anchors; ++i) {
    const auto& sample =
        pool[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(
                                                       pool.size()) - 1))];
    core::BatchItem anchor;
    anchor.path = &sample.path;
    anchor.depart_time_s = sample.depart_time_s;
    anchor.weak_label = tpr::synth::WeakLabelFor(config.weak_labels, traffic,
                                                 sample.depart_time_s);
    core::BatchItem positive = anchor;
    positive.depart_time_s = core::SampleDepartureWithLabel(
        config.weak_labels, anchor.weak_label, traffic, sample.depart_time_s,
        rng);
    batch.push_back(anchor);
    batch.push_back(positive);
  }

  const char* kParts[] = {"step.forward", "step.loss",  "step.backward",
                          "step.reduce",  "step.clip",  "step.adam"};
  const char* kMetrics[] = {"step.forward_ms", "step.loss_ms",
                            "step.backward_ms", "step.reduce_ms",
                            "step.clip_ms",     "step.adam_ms"};
  constexpr int kWarmup = 1;
  constexpr int kSteps = 6;
  std::vector<std::vector<double>> ms(6);
  for (int step = 0; step < kWarmup + kSteps; ++step) {
    tpr::Rng loss_rng(tpr::MixSeed(seed, static_cast<uint64_t>(step)));
    double t[7];
    t[0] = NowUs();
    for (auto& item : batch) {
      item.encoded = encoder.Encode(*item.path, item.depart_time_s);
    }
    t[1] = NowUs();
    std::vector<nn::Var> parts;
    nn::Var g = core::GlobalWscLoss(batch, config.loss);
    if (g.defined()) parts.push_back(nn::Scale(g, config.lambda));
    nn::Var l = core::LocalWscLoss(batch, config.loss, loss_rng);
    if (l.defined()) parts.push_back(nn::Scale(l, 1.0f - config.lambda));
    if (parts.empty()) {
      report.Fail("step probe: no loss term defined");
      return;
    }
    nn::Var loss =
        parts.size() == 1 ? parts[0] : nn::Sum(nn::ConcatCols(parts));
    t[2] = NowUs();
    loss.Backward();
    t[3] = NowUs();
    accumulator.BeginBatch(1);
    accumulator.CaptureShard(0, params);
    adam.ZeroGrad();
    accumulator.Reduce(1.0f);
    t[4] = NowUs();
    (void)adam.ClipGradNorm(config.grad_clip);
    t[5] = NowUs();
    adam.Step();
    t[6] = NowUs();
    for (auto& item : batch) item.encoded = {};  // release the graph
    if (step < kWarmup) continue;
    const int root = tracer.Add("step", t[0], t[6]);
    for (int p = 0; p < 6; ++p) {
      tracer.Add(kParts[p], t[p], t[p + 1], root);
      ms[static_cast<size_t>(p)].push_back((t[p + 1] - t[p]) / 1e3);
    }
  }
  for (int p = 0; p < 6; ++p) {
    report.Set(kMetrics[p], Median(ms[static_cast<size_t>(p)]), "ms");
  }
}

void FillNotApplicable(Report& report) {
  for (const auto& [name, unit] : PerLayerMetrics()) {
    if (report.metrics.count(name) == 0) report.Set(name, 0.0, unit);
  }
}

}  // namespace perfbench
