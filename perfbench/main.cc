// Benchmark driver: runs one workload and prints its metrics.
//
//   perfbench --workload <serve_unique|serve_hot|train_wsccl> --seed <n>
//             --seconds <s> --trace <0|1> --work-dir <dir>
//
// stdout ends with one JSON object {"correct", "attempted", "failed",
// "metrics"}: the end-to-end metrics with --trace 0, the per-layer
// metrics with --trace 1. The lines before it stamp the host and build
// and summarise the run. Progress goes to stderr. run.py builds this
// binary and is the normal entry point; see README.md.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "common.h"
#include "kern/kern.h"
#include "par/thread_pool.h"
#include "probes.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

const std::vector<std::pair<const char*, const char*>>& EndToEndMetrics() {
  static const std::vector<std::pair<const char*, const char*>> kMetrics = {
      {"setup_s", "s"},
      {"latency_p50_ms", "ms"},
      {"latency_p90_ms", "ms"},
      {"throughput_per_s", "1/s"},
      {"peak_rss_mb", "MB"},
  };
  return kMetrics;
}

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<serve_unique|serve_hot|train_wsccl> --seed <n> --seconds <s> "
               "--trace <0|1> --work-dir <dir>\n",
               why);
  std::exit(2);
}

Options Parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') Usage("--seed takes an unsigned integer");
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(opt.seconds > 0 && opt.seconds <= 600)) {
        Usage("--seconds takes a number in (0, 600]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      opt.trace = value == "1";
    } else if (flag == "--work-dir") {
      opt.work_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (opt.workload != "serve_unique" && opt.workload != "serve_hot" &&
      opt.workload != "train_wsccl") {
    Usage("unknown workload");
  }
  if (opt.work_dir.empty()) Usage("--work-dir is required");
  return opt;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

void PrintStamp(const Options& opt) {
  const char* commit = std::getenv("PERFBENCH_COMMIT");
  std::printf(
      "{\"stamp\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %.17g, "
      "\"trace\": %d, \"nproc\": %d, \"pool_threads\": %d, \"kernel\": %s, "
      "\"compiler\": %s, \"build_type\": %s, \"commit\": %s}}\n",
      JsonString(opt.workload).c_str(),
      static_cast<unsigned long long>(opt.seed), opt.seconds,
      opt.trace ? 1 : 0, Nproc(), tpr::par::DefaultPool().num_threads(),
      JsonString(tpr::kern::KernelName(tpr::kern::ActiveKernel())).c_str(),
      JsonString(PERFBENCH_COMPILER).c_str(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      JsonString(commit != nullptr ? commit : "unknown").c_str());
}

void PrintReport(const Options& opt, const Report& report) {
  std::string summary;
  for (const auto& [k, v] : report.notes) {
    summary += JsonString(k) + ": " + JsonString(v) + ", ";
  }
  std::string failures;
  for (const std::string& f : report.check_failures) {
    failures += (failures.empty() ? "" : ", ") + JsonString(f);
  }
  std::printf("{\"summary\": {%s\"check_failures\": [%s]}}\n", summary.c_str(),
              failures.c_str());
  for (const std::string& f : report.check_failures) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", f.c_str());
  }

  // Exactly the metrics of this mode, in BENCHMARK.json order.
  const auto& names = opt.trace ? PerLayerMetrics() : EndToEndMetrics();
  std::string metrics;
  for (const auto& [name, unit] : names) {
    const auto it = report.metrics.find(name);
    const double value = it == report.metrics.end() ? 0.0 : it->second.first;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    metrics += (metrics.empty() ? "" : ", ") + JsonString(name) +
               ": {\"value\": " + buf + ", \"unit\": " + JsonString(unit) + "}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      report.correct ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed), metrics.c_str());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options opt = Parse(argc, argv);
  std::filesystem::create_directories(opt.work_dir);
  PrintStamp(opt);
  std::fflush(stdout);

  Report report;
  if (opt.workload == "train_wsccl") {
    RunTrain(opt, report);
  } else {
    RunServe(opt, opt.workload == "serve_hot", report);
  }
  if (opt.trace) {
    FillNotApplicable(report);
  } else {
    report.Set("peak_rss_mb", PeakRssMb(), "MB");
  }
  if (report.attempted == 0) report.Fail("nothing was attempted");
  PrintReport(opt, report);
  return 0;
}
