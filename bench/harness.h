#ifndef TPR_BENCH_HARNESS_H_
#define TPR_BENCH_HARNESS_H_

// Shared infrastructure for the per-table experiment harnesses. Each
// bench binary regenerates one table or figure of the paper on the three
// synthetic city datasets.
//
// Command-line flags (parsed by Init):
//   --smoke          — tiny preset, few iterations: scales the datasets
//                      down hard and shrinks the curriculum so the whole
//                      binary finishes in seconds. CI runs every bench in
//                      this mode and gates on the emitted metrics.
//
// Environment knobs:
//   TPR_BENCH_SCALE  — scales dataset sizes (default 1.0; 0.5 halves).
//   TPR_BENCH_SEED   — base seed offset for a different repetition.
//   TPR_BENCH_JSON   — when set, a structured JSON record (bench name,
//                      per-metric values, thread count, commit) is
//                      written to this path at process exit.
//   TPR_COMMIT       — commit id stamped into the JSON record (CI sets
//                      this from GITHUB_SHA; empty otherwise).
//   TPR_CKPT_DIR     — checkpoint root of WSCCL training: each (city,
//                      config) trains under its own subdirectory and
//                      resumes from it (see CkptDirFor).
//   TPR_MODEL_REGISTRY — directory of cached trained models. When set,
//                      TrainAndScoreWsccl first tries to load the
//                      checkpoint keyed by (city, config fingerprint,
//                      scale) instead of retraining, and stores a fresh
//                      checkpoint there after any training run. Entries
//                      that fail validation (torn file, different
//                      config) are ignored and retrained, never trusted.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/checkpoint.h"
#include "core/features.h"
#include "core/wsccl.h"
#include "eval/downstream.h"
#include "obs/metrics.h"
#include "par/thread_pool.h"
#include "synth/presets.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"

namespace tpr::bench {

/// Process-wide bench state (flags + collected metric records). Leaked
/// so the atexit JSON writer can never observe a destroyed object.
struct BenchState {
  std::string name = "bench";  // basename of argv[0]
  bool smoke = false;
  Stopwatch wall;
  std::mutex mu;
  std::vector<std::pair<std::string, double>> records;
};

inline BenchState& State() {
  static BenchState* s = new BenchState();
  return *s;
}

/// True when running in --smoke mode.
inline bool Smoke() { return State().smoke; }

/// Records one named metric value. Safe from any thread. Records are
/// always collected; the file is only written when TPR_BENCH_JSON is set.
inline void Record(const std::string& metric, double value) {
  BenchState& s = State();
  std::lock_guard<std::mutex> lock(s.mu);
  s.records.emplace_back(metric, value);
}

inline double BenchScale() {
  const char* s = std::getenv("TPR_BENCH_SCALE");
  const double base = s != nullptr ? std::atof(s) : 1.0;
  // Smoke mode shrinks whatever scale was requested by another 20x.
  return Smoke() ? base * 0.05 : base;
}

inline uint64_t BenchSeedOffset() {
  const char* s = std::getenv("TPR_BENCH_SEED");
  return s != nullptr ? static_cast<uint64_t>(std::atoll(s)) : 0;
}

namespace internal {

inline void WriteBenchJson(const char* path) {
  BenchState& s = State();
  const char* commit = std::getenv("TPR_COMMIT");
  if (commit == nullptr) commit = std::getenv("GITHUB_SHA");
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[bench] cannot write %s\n", path);
    return;
  }
  std::lock_guard<std::mutex> lock(s.mu);
  std::fprintf(f,
               "{\n  \"bench\": \"%s\",\n  \"smoke\": %s,\n"
               "  \"threads\": %d,\n  \"scale\": %.6g,\n"
               "  \"commit\": \"%s\",\n  \"metrics\": {\n",
               s.name.c_str(), s.smoke ? "true" : "false",
               par::ConfiguredThreads(), BenchScale(),
               commit != nullptr ? commit : "");
  std::fprintf(f, "    \"wall_seconds\": %.6g", s.wall.ElapsedSeconds());
  for (const auto& [metric, value] : s.records) {
    std::fprintf(f, ",\n    \"%s\": %.17g", metric.c_str(), value);
  }
  if (s.smoke) {
    // Work counters are machine-independent (unlike wall time), so they
    // make tight regression-gate signals: an op-count jump is an
    // algorithmic perf regression regardless of CI hardware.
    std::fprintf(f, ",\n    \"nn.matmul_ops\": %llu",
                 static_cast<unsigned long long>(
                     obs::GetCounter("nn.matmul_ops").value()));
    std::fprintf(f, ",\n    \"nn.adam_steps\": %llu",
                 static_cast<unsigned long long>(
                     obs::GetCounter("nn.adam_steps").value()));
    // Checkpoint cost of the run: smoke WSCCL training writes real
    // checkpoints (see TrainAndScoreWsccl), so save counts and byte
    // volume are deterministic; wall time is gated loosely.
    std::fprintf(f, ",\n    \"ckpt.saves\": %llu",
                 static_cast<unsigned long long>(
                     obs::GetCounter("ckpt.saves").value()));
    std::fprintf(f, ",\n    \"ckpt.saved_bytes\": %llu",
                 static_cast<unsigned long long>(
                     obs::GetCounter("ckpt.saved_bytes").value()));
    std::fprintf(f, ",\n    \"ckpt.save_seconds\": %.17g",
                 obs::GetHistogram("ckpt.save_seconds").sum());
    std::fprintf(f, ",\n    \"ckpt.load_seconds\": %.17g",
                 obs::GetHistogram("ckpt.load_seconds").sum());
    // Allocator health: alloc_bytes counts bytes fetched from the OS
    // (arena misses), hits count freelist reuse. Steady-state training
    // should be nearly all hits; a jump in alloc_bytes means the arena
    // stopped recycling. These wobble slightly with thread scheduling
    // (per-thread warmup), so the baseline gates them loosely.
    std::fprintf(f, ",\n    \"nn.alloc_bytes\": %llu",
                 static_cast<unsigned long long>(
                     obs::GetCounter("nn.alloc_bytes").value()));
    std::fprintf(f, ",\n    \"nn.arena_hits\": %llu",
                 static_cast<unsigned long long>(
                     obs::GetCounter("nn.arena_hits").value()));
    std::fprintf(f, ",\n    \"nn.arena_misses\": %llu",
                 static_cast<unsigned long long>(
                     obs::GetCounter("nn.arena_misses").value()));
    std::fprintf(f, ",\n    \"nn.fused_cell_ops\": %llu",
                 static_cast<unsigned long long>(
                     obs::GetCounter("nn.fused_cell_ops").value()));
  }
  std::fprintf(f, "\n  }\n}\n");
  std::fclose(f);
}

}  // namespace internal

/// Parses bench flags and arms the exit-time JSON record. Call first in
/// every bench main().
inline void Init(int argc, char** argv) {
  BenchState& s = State();
  if (argc > 0) {
    const char* slash = std::strrchr(argv[0], '/');
    s.name = slash != nullptr ? slash + 1 : argv[0];
  }
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      s.smoke = true;
    } else {
      std::fprintf(stderr, "usage: %s [--smoke]\n", s.name.c_str());
      std::exit(2);
    }
  }
  // Smoke runs always collect metrics so the JSON record can include op
  // counters; full runs keep the zero-overhead default unless the user
  // opts in via TPR_METRICS_OUT.
  if (s.smoke) obs::SetMetricsEnabled(true);
  s.wall.Restart();
  if (std::getenv("TPR_BENCH_JSON") != nullptr) {
    std::atexit([] { internal::WriteBenchJson(std::getenv("TPR_BENCH_JSON")); });
  }
}

/// One fully prepared city: dataset + node2vec feature space.
struct PreparedCity {
  std::string name;
  std::shared_ptr<synth::CityDataset> data;
  std::shared_ptr<const core::FeatureSpace> features;
};

/// Standard feature configuration used by every experiment. Smoke mode
/// coarsens the temporal graph and cheapens node2vec — feature building
/// dominates a tiny run otherwise.
inline core::FeatureConfig DefaultFeatureConfig() {
  core::FeatureConfig fc;
  fc.temporal_graph.slots_per_day = 96;  // 15-minute slots
  fc.node2vec.seed = 42 + BenchSeedOffset();
  if (Smoke()) {
    fc.temporal_graph.slots_per_day = 24;
    fc.node2vec.walks_per_node = 2;
    fc.node2vec.epochs = 1;
  }
  return fc;
}

/// Builds dataset + features for one preset, aborting on failure (benches
/// have no meaningful recovery path).
inline PreparedCity PrepareCity(synth::CityPreset preset) {
  synth::ScaleDataset(preset, BenchScale());
  preset.data.seed += BenchSeedOffset();
  Stopwatch sw;
  auto dataset = synth::BuildPresetDataset(preset);
  TPR_CHECK(dataset.ok()) << dataset.status().ToString();
  PreparedCity city;
  city.name = preset.name;
  city.data = std::make_shared<synth::CityDataset>(std::move(*dataset));
  auto features = core::BuildFeatureSpace(city.data, DefaultFeatureConfig());
  TPR_CHECK(features.ok()) << features.status().ToString();
  city.features =
      std::make_shared<const core::FeatureSpace>(std::move(*features));
  Record(city.name + ".prepare_seconds", sw.ElapsedSeconds());
  return city;
}

/// All three cities in the paper's order (just the first in smoke mode).
inline std::vector<PreparedCity> PrepareAllCities() {
  std::vector<PreparedCity> cities;
  for (auto& preset : synth::AllPresets()) {
    std::fprintf(stderr, "[bench] preparing city %s...\n",
                 preset.name.c_str());
    cities.push_back(PrepareCity(preset));
    if (Smoke()) break;
  }
  return cities;
}

/// Default WSCCL configuration used across experiments (CPU scale).
inline core::WsccalConfig DefaultWsccalConfig() {
  core::WsccalConfig cfg;
  cfg.wsc.seed = 7 + BenchSeedOffset();
  cfg.wsc.encoder.seed = 31 + BenchSeedOffset();
  cfg.curriculum.num_meta_sets = 4;
  cfg.curriculum.expert_epochs = 1;
  cfg.stage_epochs = 1;
  cfg.final_epochs = 2;
  if (Smoke()) {
    cfg.curriculum.num_meta_sets = 2;
    cfg.final_epochs = 1;
  }
  return cfg;
}

inline std::string HexId(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Registry file name of a (city, config, scale) combination. The config
/// fingerprint already covers every training-relevant field including the
/// TPR_BENCH_SEED-offset seeds; scale changes the dataset, so it is part
/// of the key too.
inline std::string RegistryKey(const std::string& city_name,
                               const core::WsccalConfig& config) {
  char scale[32];
  std::snprintf(scale, sizeof scale, "%g", BenchScale());
  return "wsccl-" + city_name + "-" +
         HexId(core::WsccalPipeline::ConfigFingerprint(config)) + "-s" +
         scale + ".tpr";
}

/// Checkpoint directory of a (city, config) training run:
/// $TPR_CKPT_DIR/<registry key> when TPR_CKPT_DIR is set, else empty (no
/// checkpoints). Benches train several cities/variants per run; each
/// needs its own directory or the trainer would (correctly) refuse the
/// previous model's checkpoint.
inline std::string CkptDirFor(const PreparedCity& city,
                              const core::WsccalConfig& config) {
  const char* env = std::getenv("TPR_CKPT_DIR");
  if (env == nullptr || *env == '\0') return "";
  return std::string(env) + "/" + RegistryKey(city.name, config);
}

/// Trains WSCCL (or a variant) and evaluates all downstream tasks. The
/// per-city training time, final loss, and headline scores land in the
/// bench JSON record. With TPR_MODEL_REGISTRY set, a cached trained
/// model is loaded instead of retraining (and stored after a fresh
/// train); smoke runs without TPR_CKPT_DIR write periodic checkpoints
/// to a per-process temp dir so the save path is exercised and measured.
inline eval::TaskScores TrainAndScoreWsccl(const PreparedCity& city,
                                           const core::WsccalConfig& config) {
  core::WsccalConfig cfg = config;
  const std::string key = RegistryKey(city.name, cfg);
  if (cfg.ckpt_dir.empty()) cfg.ckpt_dir = CkptDirFor(city, cfg);
  if (cfg.ckpt_dir.empty() && Smoke()) {
    // Fresh per process, so reruns never resume and results stay
    // identical to an uncheckpointed run.
    cfg.ckpt_dir = std::filesystem::temp_directory_path().string() +
                   "/tpr-smoke-ckpt-" + std::to_string(::getpid()) + "/" +
                   key;
  }

  std::unique_ptr<core::WsccalPipeline> model;
  std::string registry_path;
  if (const char* reg = std::getenv("TPR_MODEL_REGISTRY")) {
    registry_path = std::string(reg) + "/" + key;
    auto bytes = ckpt::ReadFileBytes(registry_path);
    if (bytes.ok()) {
      Stopwatch load_sw;
      auto payload = ckpt::UnwrapPayload(*bytes);
      auto cached =
          payload.ok()
              ? core::WsccalPipeline::Deserialize(city.features, cfg, *payload)
              : payload.status();
      if (cached.ok() && !(*cached)->completed()) {
        cached = Status::FailedPrecondition(
            "entry holds a partially trained pipeline");
      }
      if (cached.ok()) {
        model = std::move(*cached);
        Record(city.name + ".wsccl.registry_load_seconds",
               load_sw.ElapsedSeconds());
        Record(city.name + ".wsccl.registry_hit", 1.0);
      } else {
        // Never trust a bad entry; retrain and overwrite it below.
        std::fprintf(stderr, "[bench] registry entry %s rejected: %s\n",
                     registry_path.c_str(),
                     cached.status().ToString().c_str());
      }
    }
  }

  if (model == nullptr) {
    Stopwatch sw;
    auto trained = core::WsccalPipeline::Train(city.features, cfg);
    TPR_CHECK(trained.ok()) << trained.status().ToString();
    model = std::move(*trained);
    Record(city.name + ".wsccl.train_seconds", sw.ElapsedSeconds());
    if (!registry_path.empty()) {
      auto payload = model->Serialize();
      TPR_CHECK(payload.ok()) << payload.status().ToString();
      std::error_code ec;
      std::filesystem::create_directories(
          std::filesystem::path(registry_path).parent_path(), ec);
      const Status st =
          ckpt::AtomicWriteFile(registry_path, ckpt::WrapPayload(*payload));
      if (!st.ok()) {
        std::fprintf(stderr, "[bench] cannot store registry entry %s: %s\n",
                     registry_path.c_str(), st.ToString().c_str());
      }
    }
  }
  Record(city.name + ".wsccl.final_loss", model->final_loss());
  auto scores = eval::EvaluateTasks(
      *city.data, [&](const synth::TemporalPathSample& s) {
        return model->Encode(s);
      });
  TPR_CHECK(scores.ok()) << scores.status().ToString();
  Record(city.name + ".wsccl.tte_mae", scores->tte_mae);
  Record(city.name + ".wsccl.pr_mae", scores->pr_mae);
  return *scores;
}

/// Train/test indices of the labeled pool, matching the downstream probes'
/// split (supervised baselines must train on the probe's training split).
inline std::vector<int> LabeledTrainIndices(const synth::CityDataset& data) {
  std::vector<int> train, test;
  eval::SplitGroups(data.labeled, 0.8, 99, &train, &test);
  return train;
}

inline std::vector<int> LabeledTestIndices(const synth::CityDataset& data) {
  std::vector<int> train, test;
  eval::SplitGroups(data.labeled, 0.8, 99, &train, &test);
  return test;
}

/// Formats a TaskScores row for the travel-time table.
inline std::vector<std::string> TteRow(const std::string& method,
                                       const eval::TaskScores& s) {
  return {method, TablePrinter::Num(s.tte_mae), TablePrinter::Num(s.tte_mare),
          TablePrinter::Num(s.tte_mape)};
}

/// Formats a TaskScores row for the path-ranking table.
inline std::vector<std::string> RankRow(const std::string& method,
                                        const eval::TaskScores& s) {
  return {method, TablePrinter::Num(s.pr_mae), TablePrinter::Num(s.pr_tau),
          TablePrinter::Num(s.pr_rho)};
}

}  // namespace tpr::bench

#endif  // TPR_BENCH_HARNESS_H_
