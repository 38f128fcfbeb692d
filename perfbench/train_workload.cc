// train_wsccl: full WsccalPipeline::Train runs on one fleet city with
// the production encoder, the learned curriculum and a checkpoint after
// every epoch, on a pool of nproc threads.
//
// The untraced run repeats Train until the time budget is spent and
// reports the median. The traced run trains twice untraced (warm-up,
// then reference wall time and probe MAE), once with the program's obs
// spans and counters on, merges those spans under a bench-side root
// span, and then probes one training step and single layers.

#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/probe.h"
#include "core/wsccl.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "par/thread_pool.h"
#include "probes.h"
#include "util/logging.h"

namespace perfbench {
namespace {

namespace core = tpr::core;

constexpr double kDatasetScale = 0.2;
constexpr int kSetups = 5;
constexpr size_t kProbeQueries = 64;

core::WsccalConfig TrainConfig(uint64_t seed, const std::string& ckpt_dir) {
  core::WsccalConfig cfg;  // production EncoderConfig: d_hidden 128, 2 layers
  cfg.wsc.seed = seed;
  cfg.wsc.encoder.seed = tpr::MixSeed(seed, 31);
  cfg.curriculum.strategy = core::CurriculumStrategy::kLearned;
  cfg.curriculum.num_meta_sets = 2;
  cfg.curriculum.expert_epochs = 1;
  cfg.stage_epochs = 1;
  cfg.final_epochs = 2;
  cfg.ckpt_dir = ckpt_dir;
  cfg.checkpoint_every_n_epochs = 1;
  return cfg;
}

struct TrainOutcome {
  bool ok = false;
  double seconds = 0.0;
  double probe_mae = 0.0;
  int span = -1;  // the "train" span, when traced
  std::string error;
};

/// Training seed of repetition `rep` of a run with seed `seed`.
uint64_t RepSeed(uint64_t seed, size_t rep) {
  return tpr::MixSeed(seed, static_cast<uint64_t>(rep));
}

uint64_t Bits(double v) {
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

/// One Train into a fresh checkpoint directory, then the output checks'
/// inputs: finite parameters and the golden-probe MAE.
/// With a tracer, the Train call is recorded as a "train" span.
TrainOutcome TrainOnce(const World& world, const core::ProbeSet& probe,
                       uint64_t seed, const std::string& ckpt_dir,
                       Tracer* tracer) {
  std::filesystem::remove_all(ckpt_dir);
  TrainOutcome out;
  const double t0 = NowS();
  if (tracer != nullptr) out.span = tracer->Begin("train");
  auto trained = core::WsccalPipeline::Train(world.features,
                                             TrainConfig(seed, ckpt_dir));
  if (tracer != nullptr) tracer->End(out.span);
  out.seconds = NowS() - t0;
  std::filesystem::remove_all(ckpt_dir);
  if (!trained.ok()) {
    out.error = trained.status().ToString();
    return out;
  }
  const core::TemporalPathEncoder& enc = (*trained)->model().encoder();
  if (!core::AllParametersFinite(enc)) {
    out.error = "non-finite parameters";
    return out;
  }
  auto mae = core::ProbeTravelTimeMae(enc, probe);
  if (!mae.ok() || !std::isfinite(*mae)) {
    out.error = "probe MAE: " + (mae.ok() ? std::string("non-finite")
                                          : mae.status().ToString());
    return out;
  }
  out.probe_mae = *mae;
  out.ok = true;
  return out;
}

/// True when span `i` belongs to the staged schedule: on the main
/// thread and outside BuildCurriculum (whose expert epochs also run on
/// pool workers).
bool InSchedule(const std::vector<Span>& spans, int i, int main_tid) {
  if (spans[static_cast<size_t>(i)].tid != main_tid) return false;
  for (int p = spans[static_cast<size_t>(i)].parent; p >= 0;
       p = spans[static_cast<size_t>(p)].parent) {
    if (spans[static_cast<size_t>(p)].name == "wsccl.build_curriculum") {
      return false;
    }
  }
  return true;
}

/// Per-layer training metrics from the merged span buffer.
void TrainBreakdown(const std::vector<Span>& spans, int root, int main_tid,
                    int pool_threads, Report& report) {
  const double whole_us = spans[static_cast<size_t>(root)].dur_us();
  const std::vector<double> self = SelfTimesUs(spans);
  // serial: main-thread time of the schedule epochs outside the shard
  // ParallelFor, i.e. epoch self time plus the Adam steps under it.
  double curriculum_us = 0.0, epochs_us = 0.0, serial_us = 0.0;
  double shard_us = 0.0, adam_us = 0.0, task_us = 0.0;
  size_t shards = 0, adam_steps = 0, stage_steps = 0;
  for (int i = 0; i < static_cast<int>(spans.size()); ++i) {
    const Span& s = spans[static_cast<size_t>(i)];
    if (s.name == "wsccl.build_curriculum") {
      curriculum_us += s.dur_us();
    } else if (s.name == "wsc.train_epoch" && InSchedule(spans, i, main_tid)) {
      epochs_us += s.dur_us();
      serial_us += self[static_cast<size_t>(i)];
    } else if (s.name == "wsc.shard") {
      shard_us += s.dur_us();
      ++shards;
    } else if (s.name == "nn.adam_step") {
      adam_us += s.dur_us();
      ++adam_steps;
      if (InSchedule(spans, i, main_tid)) {
        ++stage_steps;
        serial_us += s.dur_us();  // Adam runs serially on the main thread
      }
    } else if (s.name == "par.task" && s.tid != main_tid) {
      task_us += s.dur_us();
    }
  }
  const double ckpt_s = tpr::obs::GetHistogram("ckpt.save_seconds").sum();
  report.Set("train.curriculum_s", curriculum_us / 1e6, "s");
  report.Set("train.epochs_s", epochs_us / 1e6, "s");
  report.Set("train.ckpt_s", ckpt_s, "s");
  report.Set("train.shard_ms_mean", shards > 0 ? shard_us / shards / 1e3 : 0.0,
             "ms");
  report.Set("train.adam_ms_per_step",
             adam_steps > 0 ? adam_us / adam_steps / 1e3 : 0.0, "ms");
  report.Set("train.serial_ms_per_step",
             stage_steps > 0 ? serial_us / stage_steps / 1e3 : 0.0, "ms");
  report.Set("train.worker_busy_ratio",
             pool_threads > 1 && whole_us > 0
                 ? task_us / ((pool_threads - 1) * whole_us)
                 : 0.0,
             "ratio");
  report.Set("trace.coverage_ratio",
             CoverageRatio({curriculum_us / 1e6, epochs_us / 1e6, ckpt_s},
                           whole_us / 1e6),
             "ratio");
}

}  // namespace

void RunTrain(const Options& opt, Report& report) {
  // ---- Set-up, several times; the last world trains. ----
  std::vector<double> setup_s, dataset_s, features_s;
  World world;
  core::ProbeSet probe;
  for (int s = 0; s < kSetups; ++s) {
    const double t0 = NowS();
    world = BuildWorld(0, kDatasetScale);
    probe = core::BuildProbeSet(*world.data, kProbeQueries, opt.seed);
    setup_s.push_back(NowS() - t0);
    dataset_s.push_back(world.dataset_s);
    features_s.push_back(world.features_s);
  }
  report.Set("setup_s", Median(setup_s), "s");
  const std::string ckpt_dir = opt.work_dir + "/ckpt";
  const core::WsccalConfig cfg = TrainConfig(RepSeed(opt.seed, 0), ckpt_dir);

  std::vector<TrainOutcome> runs;
  const auto train = [&](Tracer* tracer, uint64_t seed) -> TrainOutcome {
    runs.push_back(TrainOnce(world, probe, seed, ckpt_dir, tracer));
    ++report.attempted;
    if (!runs.back().ok) {
      ++report.failed;
      report.Fail("Train failed: " + runs.back().error);
    }
    return runs.back();
  };

  if (!opt.trace) {
    // Each repetition trains under its own seed derived from --seed, so
    // the median spans several minibatch orders rather than one.
    std::vector<double> times;
    const double start = NowS();
    while (times.empty() || (NowS() - start) + Median(times) <= opt.seconds) {
      times.push_back(train(nullptr, RepSeed(opt.seed, times.size())).seconds);
    }
    const double train_s = Median(times);
    const Tail tail = TailPercentile(times, 90.0);
    const double pool = static_cast<double>(world.data->unlabeled.size());
    report.Set("latency_p50_ms", train_s * 1e3, "ms");
    report.Set("latency_p90_ms", tail.value * 1e3, "ms");
    report.Set("throughput_per_s",
               pool * (cfg.stage_epochs + cfg.final_epochs) / train_s, "1/s");
    report.notes["train_runs"] = std::to_string(times.size());
    report.notes["latency_tail_percentile"] = std::to_string(tail.percentile);
  } else {
    // The first Train warms the pool and the arenas; the second is the
    // untraced reference.
    const uint64_t seed = RepSeed(opt.seed, 0);
    const TrainOutcome warm = train(nullptr, seed);
    const TrainOutcome plain = train(nullptr, seed);

    // Traced Train: the program's own spans and counters, merged under a
    // bench-side root span on the main thread's track.
    Tracer tracer(true);
    tpr::obs::ResetAllMetrics();
    tpr::obs::SetMetricsEnabled(true);
    const int main_tid = tpr::obs::TraceThreadId();
    const std::string obs_path = opt.work_dir + "/obs-trace.json";
    const double epoch_us = NowUs();
    tpr::obs::StartTrace(obs_path);
    const TrainOutcome traced = train(&tracer, seed);
    const int root = traced.span;
    if (!tpr::obs::StopTrace() ||
        !MergeObsTrace(obs_path, epoch_us, &tracer.spans())) {
      report.Fail("cannot read back the program trace");
    }
    std::filesystem::remove(obs_path);
    tracer.spans()[static_cast<size_t>(root)].tid = main_tid;
    InferParents(tracer.spans());
    TrainBreakdown(tracer.spans(), root, main_tid,
                   tpr::par::DefaultPool().num_threads(), report);
    const double hits = static_cast<double>(
        tpr::obs::GetCounter("nn.arena_hits").value());
    const double misses = static_cast<double>(
        tpr::obs::GetCounter("nn.arena_misses").value());
    report.Set("kern.arena_hit_ratio",
               hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
    report.Set("kern.alloc_mb",
               static_cast<double>(
                   tpr::obs::GetCounter("nn.alloc_bytes").value()) /
                   1e6,
               "MB");
    tpr::obs::SetMetricsEnabled(false);
    report.Set("trace.overhead_ratio",
               plain.seconds > 0 ? traced.seconds / plain.seconds : 0.0,
               "ratio");
    // Same seed, same bits: untraced twice, then traced.
    if (warm.ok && plain.ok && Bits(warm.probe_mae) != Bits(plain.probe_mae)) {
      report.Fail("probe_mae differs between two Train runs of one seed");
    }
    if (plain.ok && traced.ok &&
        Bits(plain.probe_mae) != Bits(traced.probe_mae)) {
      report.Fail("traced Train changed probe_mae");
    }

    ProbeStep(world.features, cfg.wsc, opt.seed, tracer, report);
    // Encoder and kernel probes on an encoder of the trained shape.
    const core::TemporalPathEncoder encoder(world.features, cfg.wsc.encoder);
    std::vector<core::PathTimeItem> items;
    for (const auto& s : world.data->unlabeled) {
      if (items.size() >= 600) break;
      items.push_back({&s.path, s.depart_time_s});
    }
    ProbeEncoder(encoder, items, tracer, report);
    ProbeKern(cfg.wsc.encoder.d_hidden, tracer, report);
    report.Set("setup.dataset_s", Median(dataset_s), "s");
    report.Set("setup.features_s", Median(features_s), "s");
    if (!tracer.WriteJson(opt.work_dir + "/spans.json")) {
      report.Fail("cannot write the span buffer");
    }
  }

  if (!runs.empty() && runs.front().ok) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", runs.front().probe_mae);
    report.notes["probe_mae"] = buf;
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(Bits(runs.front().probe_mae)));
    report.notes["probe_mae_bits"] = buf;
  }
  report.notes["error_ratio"] = std::to_string(
      report.attempted > 0
          ? static_cast<double>(report.failed) / report.attempted
          : 0.0);
}

}  // namespace perfbench
