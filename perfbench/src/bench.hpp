// Shared pieces of the perfbench driver: run options, sample statistics,
// the result record a workload fills, and the span recorder behind
// `--trace 1`.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

inline Clock::duration from_seconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

/// Command-line options of one run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for the generated input file and the trace.
  std::string work_dir;
};

/// Quantile of `v` with linear interpolation between closest ranks (the
/// default rule of NumPy and R). Returns 0 for an empty sample. Infinite
/// samples (failed operations) sort last.
double quantile(std::vector<double> v, double q);

inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Operation latencies of a run's measured interval, kept by window: the
/// interval is cut into `windows` equal parts by when each operation
/// started. A percentile is taken in
/// each window and the median over the windows is reported, so a host
/// disturbance lasting a second or two moves one window's figure but not
/// the result, while a slowdown of every operation moves all of them.
class WindowedLatencies {
 public:
  WindowedLatencies(double interval_s, int windows)
      : window_s_(interval_s / windows),
        by_window_(static_cast<std::size_t>(windows)) {}

  /// Record one latency; `offset_s` is the operation's start measured
  /// from the start of the interval. A failed operation is recorded as
  /// infinitely slow: it misses every latency limit.
  void add(double offset_s, double ms);

  /// Median over the non-empty windows of each window's quantile `q`.
  double percentile(double q) const;

  /// Quantile `q` over every sample of the interval, for the summary.
  double pooled(double q) const;

  std::size_t size() const;
  std::size_t windows() const { return by_window_.size(); }

 private:
  double window_s_;
  std::vector<std::vector<double>> by_window_;
};

/// One named measurement of the result line.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run reports. `metrics` holds the end-to-end metrics in a run
/// without tracing and the per-layer metrics in a traced run.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
};

/// The result line: one JSON object with the keys correct, attempted,
/// failed and metrics.
std::string result_json(const RunResult& r);

/// In-memory span recorder. Spans are kept until the run ends and are then
/// written as Chrome trace-event JSON (opens in Perfetto or
/// chrome://tracing). A disabled recorder ignores every call.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  /// Record span `name` on track `track` from `start` to `end`. `args` is
  /// a JSON object body (without braces) shown with the span, e.g.
  /// "\"op\": 3, \"pairs\": 120".
  void span(const std::string& name, int track, Clock::time_point start,
            Clock::time_point end, const std::string& args = {});

  /// Write the recorded spans to `path`; returns false when the file
  /// cannot be written.
  bool write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    int track = 0;
    double start_us = 0.0;
    double dur_us = 0.0;
    std::string args;
  };

  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

}  // namespace perfbench
