// Self-test of the benchmark's own arithmetic (stats.h). Runs every
// check and exits non-zero if any failed. Run:
// `python3 perfbench/run.py --selftest`.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.h"

namespace {

int g_failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++g_failures;
  }
}

bool Near(double a, double b, double eps = 1e-9) {
  return std::fabs(a - b) <= eps;
}

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void TestPercentileRule() {
  using perfbench::TailPercentile;
  // 2000 samples: p99 has 20 beyond it, so p99 itself is reported.
  perfbench::Tail t = TailPercentile(OneTo(2000));
  Check(Near(t.percentile, 99.0), "p99 reported when 2000 samples");
  Check(Near(t.value, 1980.0), "p99 of 1..2000 is 1980");
  Check(t.samples == 2000, "sample count stated");
  // 200 samples: p99 would leave 2 beyond; the rule backs off to the
  // highest percentile with 10 beyond it, p95 (rank 190).
  t = TailPercentile(OneTo(200));
  Check(Near(t.percentile, 95.0), "p95 when 200 samples");
  Check(Near(t.value, 190.0), "value at p95 of 1..200");
  size_t beyond = 0;
  for (double x : OneTo(200)) beyond += x > t.value;
  Check(beyond == 10, "exactly ten samples beyond the reported rank");
  // A cap below 99 is honoured when the sample supports it.
  t = TailPercentile(OneTo(2000), 90.0);
  Check(Near(t.percentile, 90.0) && Near(t.value, 1800.0), "p90 cap");
  // Too few samples for any tail: the median.
  t = TailPercentile(OneTo(7));
  Check(Near(t.percentile, 50.0), "median when fewer than 11 samples");
  Check(Near(t.value, 4.0), "median of 1..7");
  Check(Near(perfbench::Median(OneTo(4)), 2.0), "nearest-rank median");
}

void TestSelfTime() {
  using perfbench::Span;
  // root [0,100) on tid 0 with children [10,40) and [30,60) (overlap,
  // as from two worker tracks) and a grandchild [15,20) under the first.
  std::vector<Span> spans(4);
  spans[0] = {"root", 0, 100, -1, 1, 0};
  spans[1] = {"a", 10, 40, 0, 1, 0};
  spans[2] = {"b", 30, 60, 0, 1, 1};
  spans[3] = {"a.inner", 15, 20, 1, 1, 0};
  const std::vector<double> self = perfbench::SelfTimesUs(spans);
  Check(Near(self[0], 50.0), "root self = 100 - union(10..60)");
  Check(Near(self[1], 25.0), "child self excludes grandchild");
  Check(Near(self[2], 30.0), "leaf self = duration");
  Check(Near(self[3], 5.0), "grandchild self");
  // A child that runs past its parent only covers the overlap.
  std::vector<Span> spill = {{"p", 0, 10, -1, 0, 0}, {"c", 5, 50, 0, 0, 0}};
  Check(Near(perfbench::SelfTimesUs(spill)[0], 5.0), "clipped child");

  // Parents inferred by containment per thread, as for merged traces.
  std::vector<Span> flat = {{"outer", 0, 100, -1, 0, 7},
                            {"inner", 20, 30, -1, 0, 7},
                            {"innermost", 21, 22, -1, 0, 7},
                            {"later", 40, 50, -1, 0, 7},
                            {"other_thread", 25, 26, -1, 0, 8}};
  perfbench::InferParents(flat);
  Check(flat[0].parent == -1, "outer is a root");
  Check(flat[1].parent == 0, "inner under outer");
  Check(flat[2].parent == 1, "innermost under inner");
  Check(flat[3].parent == 0, "later under outer, not inner");
  Check(flat[4].parent == -1, "other thread not nested");
  Check(Near(perfbench::SelfTimesUs(flat)[0], 80.0),
        "inferred children count toward self time");
  Check(Near(perfbench::MeanUs(flat, "inner"), 10.0), "mean by name");
}

void TestDueTimeUnderStall() {
  // A fake clock: idle() jumps to the due time, each send costs 1 us,
  // and request 10 stalls the generator for 100 ms. Service takes 1 ms
  // from the moment a request is sent.
  double clock = 0.0;
  const double interval = 0.01;  // 100 requests per second
  const double stall = 0.1;
  std::vector<double> due(40), lag(40), done(40);
  perfbench::RunOpenLoop(
      40, [&](size_t i) { return static_cast<double>(i) * interval; },
      [&] { return clock; },
      [&](double until) { clock = until; },
      [&](size_t i, double d) {
        due[i] = d;
        lag[i] = clock - d;
        clock += 1e-6;
        if (i == 10) clock += stall;
        done[i] = clock + 1e-3;
      });
  // Requests 11..20 were due during the stall: they go out late, back to
  // back, and their latency counts from their due time.
  Check(Near(lag[10], 0.0), "the stalled send itself was on time");
  Check(lag[11] > 0.089 && lag[11] < 0.091, "first request behind stall");
  Check(lag[20] > 0.0 && lag[21] == 0.0, "generator caught up by 21");
  for (size_t i = 11; i <= 20; ++i) {
    Check(done[i] - due[i] >= lag[i] + 1e-3 - 1e-9,
          "latency from due time includes the stall");
  }
  Check(Near(done[5] - due[5], 1e-3 + 1e-6, 1e-9), "on-time latency");
  // 9 of 40 sends late by >= 10 ms: the p90 lag marks the run invalid.
  Check(perfbench::GeneratorFellBehind(lag, 1e-3), "stall marks run invalid");
  // One short stall (2 late sends) is host noise, not a slow generator.
  std::vector<double> blip(40, 1e-6);
  blip[7] = blip[8] = 0.02;
  Check(!perfbench::GeneratorFellBehind(blip, 1e-3), "a blip stays valid");
}

void TestCoverage() {
  // Request spans split into lag + submit + wait cover the whole; a
  // missing part shows as coverage below one.
  Check(Near(perfbench::CoverageRatio({0.1, 0.2, 0.7}, 1.0), 1.0),
        "parts that tile the whole cover it");
  Check(Near(perfbench::CoverageRatio({3.0, 5.0}, 10.0), 0.8),
        "unnamed time lowers coverage");
  Check(Near(perfbench::CoverageRatio({1.0}, 0.0), 0.0), "empty whole");
  // Means add: mean(wait) = mean(process) + mean(queue wait).
  const std::vector<double> wait = {4.0, 6.0, 8.0};
  const std::vector<double> process = {1.0, 2.0, 3.0};
  std::vector<double> queue;
  for (size_t i = 0; i < wait.size(); ++i) queue.push_back(wait[i] - process[i]);
  Check(Near(perfbench::Mean(process) + perfbench::Mean(queue),
             perfbench::Mean(wait)),
        "queue wait = wait - process in the mean");
}

}  // namespace

int main() {
  TestPercentileRule();
  TestSelfTime();
  TestDueTimeUnderStall();
  TestCoverage();
  if (g_failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench selftest: all checks passed\n");
  return 0;
}
