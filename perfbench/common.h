#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

// Shared plumbing of the benchmark driver: run options, the metric
// report, the bench-owned span recorder and the world (dataset + feature
// space) every workload builds during set-up.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/features.h"
#include "stats.h"
#include "synth/dataset.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory inside the checkout (model dirs, checkpoints,
  /// the written span buffer).
  std::string work_dir;
};

/// What one run reports: metrics by name (value + unit) plus the
/// attempted/failed tally and the verdict of the built-in output checks.
struct Report {
  std::map<std::string, std::pair<double, std::string>> metrics;
  /// Notes printed on the summary line (sample counts, percentiles used).
  std::map<std::string, std::string> notes;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> check_failures;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void Fail(const std::string& why) {
    correct = false;
    check_failures.push_back(why);
  }
};

/// Seconds on the steady clock.
inline double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double NowUs() { return NowS() * 1e6; }

/// Peak resident set of this process, in MB.
double PeakRssMb();

/// Bench-owned span recorder. Spans are recorded only when enabled and
/// only by the thread that drives the workload, so no locking is needed.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Opens a span now; returns its index (-1 when disabled).
  int Begin(const char* name, int parent = -1, uint64_t request = 0) {
    return BeginAt(name, NowUs(), parent, request);
  }
  int BeginAt(const char* name, double start_us, int parent = -1,
              uint64_t request = 0) {
    if (!enabled_) return -1;
    Span s;
    s.name = name;
    s.start_us = start_us;
    s.end_us = start_us;
    s.parent = parent;
    s.request = request;
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int index) { EndAt(index, NowUs()); }
  void EndAt(int index, double end_us) {
    if (index >= 0) spans_[static_cast<size_t>(index)].end_us = end_us;
  }
  /// Records a completed span in one call.
  int Add(const char* name, double start_us, double end_us, int parent = -1,
          uint64_t request = 0) {
    const int i = BeginAt(name, start_us, parent, request);
    EndAt(i, end_us);
    return i;
  }

  std::vector<Span>& spans() { return spans_; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Writes the buffer as chrome://tracing JSON (one track per tid),
  /// with each span's parent, request id and self time in its args.
  bool WriteJson(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Reads a chrome-trace JSON file written by tpr::obs::StopTrace and
/// appends its complete ("X") events to `out`, shifted by `offset_us`
/// onto the bench clock and keeping the program's thread ids. Parents
/// are left for InferParents.
bool MergeObsTrace(const std::string& path, double offset_us,
                   std::vector<Span>* out);

/// One prepared city: dataset plus its frozen node2vec feature space.
struct World {
  std::shared_ptr<tpr::synth::CityDataset> data;
  std::shared_ptr<const tpr::core::FeatureSpace> features;
  double dataset_s = 0.0;
  double features_s = 0.0;
};

/// Builds fleet city `city_id` (fleet seed and dataset scale fixed by
/// the benchmark, so every seed runs on the same world).
World BuildWorld(int city_id, double dataset_scale);

int Nproc();

/// Workloads. Each fills `report` and returns normally; an output check
/// that fails marks the report incorrect rather than aborting.
void RunServe(const Options& opt, bool hot, Report& report);
void RunTrain(const Options& opt, Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
