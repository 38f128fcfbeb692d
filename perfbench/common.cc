#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "synth/fleet.h"
#include "util/logging.h"

namespace perfbench {

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

int Nproc() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[");
  double origin = 0.0;
  if (!spans_.empty()) origin = spans_.front().start_us;
  for (const Span& s : spans_) origin = std::min(origin, s.start_us);
  const std::vector<double> self = SelfTimesUs(spans_);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                 "\"pid\":1,\"tid\":%d,\"args\":{\"id\":%zu,\"parent\":%d,"
                 "\"request\":%llu,\"self_us\":%.3f}}",
                 i == 0 ? "" : ",", s.name.c_str(), s.start_us - origin,
                 s.dur_us(), s.tid, i, s.parent,
                 static_cast<unsigned long long>(s.request), self[i]);
  }
  std::fprintf(f, "\n],\"displayTimeUnit\":\"ms\"}\n");
  return std::fclose(f) == 0;
}

namespace {

// Value of `"key":` in one flat JSON event line, or nullptr.
const char* FieldStart(const std::string& line, const char* key) {
  const std::string needle = std::string("\"") + key + "\":";
  const size_t at = line.find(needle);
  return at == std::string::npos ? nullptr : line.c_str() + at + needle.size();
}

}  // namespace

bool MergeObsTrace(const std::string& path, double offset_us,
                   std::vector<Span>* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    // tpr::obs writes one event object per line.
    const char* ph = FieldStart(line, "ph");
    if (ph == nullptr || std::strncmp(ph, "\"X\"", 3) != 0) continue;
    const char* name = FieldStart(line, "name");
    const char* ts = FieldStart(line, "ts");
    const char* dur = FieldStart(line, "dur");
    const char* tid = FieldStart(line, "tid");
    if (name == nullptr || ts == nullptr || dur == nullptr || tid == nullptr ||
        *name != '"') {
      continue;
    }
    const char* name_end = std::strchr(name + 1, '"');
    if (name_end == nullptr) continue;
    Span s;
    s.name.assign(name + 1, name_end);
    s.start_us = offset_us + std::strtod(ts, nullptr);
    s.end_us = s.start_us + std::strtod(dur, nullptr);
    s.tid = static_cast<int>(std::strtol(tid, nullptr, 10));
    out->push_back(std::move(s));
  }
  return true;
}

World BuildWorld(int city_id, double dataset_scale) {
  tpr::synth::FleetConfig fleet_config;
  fleet_config.num_cities = city_id + 1;
  fleet_config.seed = 404;
  fleet_config.dataset_scale = dataset_scale;
  const tpr::synth::CityFleet fleet(fleet_config);

  World w;
  const double t0 = NowS();
  auto ds = fleet.BuildDataset(city_id);
  TPR_CHECK(ds.ok()) << ds.status().ToString();
  w.data = std::make_shared<tpr::synth::CityDataset>(std::move(*ds));
  const double t1 = NowS();
  tpr::core::FeatureConfig fc;
  fc.temporal_graph.slots_per_day = 96;  // 15-minute slots
  fc.node2vec.seed = 42;
  auto fs = tpr::core::BuildFeatureSpace(w.data, fc);
  TPR_CHECK(fs.ok()) << fs.status().ToString();
  w.features = std::make_shared<const tpr::core::FeatureSpace>(std::move(*fs));
  w.dataset_s = t1 - t0;
  w.features_s = NowS() - t1;
  return w;
}

}  // namespace perfbench
