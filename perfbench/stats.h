#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

// The benchmark's own arithmetic: percentiles, span self time, the
// open-loop due-time schedule and the coverage of named parts. Header
// only and free of library dependencies, so selftest.cc checks it in
// isolation.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Nearest-rank percentile (p in [0, 100]) of an unsorted sample.
inline double PercentileOf(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const auto rank = static_cast<size_t>(std::max(1.0, std::ceil(p / 100.0 * n)));
  return v[std::min(rank, v.size()) - 1];
}

inline double Median(const std::vector<double>& v) {
  return PercentileOf(v, 50.0);
}

/// A tail percentile together with the sample it came from.
struct Tail {
  double percentile = 0.0;  // the percentile actually reported
  double value = 0.0;
  size_t samples = 0;
};

/// The highest percentile, capped at `cap`, that still has at least
/// `min_beyond` samples above its nearest rank. A sample too small to
/// support any percentile above the median reports the median.
inline Tail TailPercentile(const std::vector<double>& v, double cap = 99.0,
                           size_t min_beyond = 10) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  const double n = static_cast<double>(v.size());
  // Nearest rank r (1-based) leaves n - r samples above it; r = n -
  // min_beyond is the highest admissible rank, i.e. p = 100 r / n.
  double p = 50.0;
  if (v.size() > min_beyond) {
    p = std::min(cap, 100.0 * (n - static_cast<double>(min_beyond)) / n);
  }
  t.percentile = std::max(50.0, p);
  t.value = PercentileOf(v, t.percentile);
  return t;
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One timed interval. `parent` indexes the enclosing span in the same
/// buffer (-1 for a root); `request` groups the spans of one request.
struct Span {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;
  uint64_t request = 0;
  int tid = 0;

  double dur_us() const { return end_us - start_us; }
};

/// Assigns parents by interval containment, per thread, to spans that
/// have none (spans merged in from a trace that records no parent). A
/// span's parent is the innermost earlier-starting span on its thread
/// that contains it.
inline void InferParents(std::vector<Span>& spans) {
  std::map<int, std::vector<int>> by_tid;
  for (int i = 0; i < static_cast<int>(spans.size()); ++i) {
    by_tid[spans[static_cast<size_t>(i)].tid].push_back(i);
  }
  for (auto& [tid, idx] : by_tid) {
    std::stable_sort(idx.begin(), idx.end(), [&](int a, int b) {
      const Span& x = spans[static_cast<size_t>(a)];
      const Span& y = spans[static_cast<size_t>(b)];
      if (x.start_us != y.start_us) return x.start_us < y.start_us;
      return x.end_us > y.end_us;  // outer first on equal starts
    });
    std::vector<int> stack;
    for (int i : idx) {
      Span& s = spans[static_cast<size_t>(i)];
      while (!stack.empty() &&
             spans[static_cast<size_t>(stack.back())].end_us < s.end_us) {
        stack.pop_back();
      }
      if (s.parent < 0 && !stack.empty()) s.parent = stack.back();
      stack.push_back(i);
    }
  }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its direct children.
inline std::vector<double> SelfTimesUs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      kids[static_cast<size_t>(s.parent)].emplace_back(s.start_us, s.end_us);
    }
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double cur_lo = 0.0, cur_hi = 0.0;
    bool open = false;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, s.start_us);
      hi = std::min(hi, s.end_us);
      if (hi <= lo) continue;
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
      } else {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      }
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = s.dur_us() - covered;
  }
  return self;
}

/// Mean duration (us) of the spans called `name`; 0 when there are none.
inline double MeanUs(const std::vector<Span>& spans, const std::string& name) {
  double total = 0.0;
  size_t n = 0;
  for (const Span& s : spans) {
    if (s.name == name) {
      total += s.dur_us();
      ++n;
    }
  }
  return n > 0 ? total / static_cast<double>(n) : 0.0;
}

/// Share of `whole` covered by named parts that do not overlap each
/// other: sum(parts) / whole. 0 when the whole is empty.
inline double CoverageRatio(const std::vector<double>& parts, double whole) {
  if (whole <= 0.0) return 0.0;
  double s = 0.0;
  for (double p : parts) s += p;
  return s / whole;
}

// ---------------------------------------------------------------------------
// Open-loop schedule
// ---------------------------------------------------------------------------

/// Calls `send(i, due(i))` for i in [0, n), never before `due(i)`
/// (seconds on the clock `now`, non-decreasing in i). While a send is
/// not yet due, `idle(due)` runs (it polls completions and must
/// eventually let `now` pass `due`). A late send goes out at once, never
/// skipped, so a generator stall delays every request behind it; the
/// caller times each request from its due time, not from when it was
/// sent, and records the lag (send time minus due time).
template <typename Due, typename Now, typename Idle, typename Send>
void RunOpenLoop(size_t n, Due due, Now now, Idle idle, Send send) {
  for (size_t i = 0; i < n; ++i) {
    const double d = due(i);
    while (now() < d) idle(d);
    send(i, d);
  }
}

/// The open-loop generator fell behind when its p90 lag exceeds
/// `max_lag_s`; such a run measured the generator, not the system.
inline bool GeneratorFellBehind(const std::vector<double>& lag_s,
                                double max_lag_s) {
  return PercentileOf(lag_s, 90.0) > max_lag_s;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
