#include "bench.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>

namespace perfbench {

namespace {

/// Shortest decimal text that reads back as exactly `v`.
std::string number_text(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

}  // namespace

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0.0 || v[hi] == v[lo]) return v[lo];  // also inf == inf
  return v[lo] + (v[hi] - v[lo]) * frac;
}

void WindowedLatencies::add(double offset_s, double ms) {
  const double w = std::floor(std::max(offset_s, 0.0) / window_s_);
  const std::size_t last = by_window_.size() - 1;
  by_window_[std::min(static_cast<std::size_t>(w), last)].push_back(ms);
}

double WindowedLatencies::percentile(double q) const {
  std::vector<double> per_window;
  for (const std::vector<double>& v : by_window_) {
    if (!v.empty()) per_window.push_back(quantile(v, q));
  }
  return median(std::move(per_window));
}

double WindowedLatencies::pooled(double q) const {
  std::vector<double> all;
  for (const std::vector<double>& v : by_window_) {
    all.insert(all.end(), v.begin(), v.end());
  }
  return quantile(std::move(all), q);
}

std::size_t WindowedLatencies::size() const {
  std::size_t n = 0;
  for (const std::vector<double>& v : by_window_) n += v.size();
  return n;
}

std::string result_json(const RunResult& r) {
  std::ostringstream os;
  os << "{\"correct\": " << (r.correct ? "true" : "false")
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    if (!first) os << ", ";
    first = false;
    os << "\"" << name << "\": {\"value\": " << number_text(m.value)
       << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}";
  return os.str();
}

void Tracer::span(const std::string& name, int track, Clock::time_point start,
                  Clock::time_point end, const std::string& args) {
  if (!enabled_) return;
  Span s;
  s.name = name;
  s.track = track;
  s.start_us = std::chrono::duration<double, std::micro>(start - origin_).count();
  s.dur_us = std::chrono::duration<double, std::micro>(end - start).count();
  s.args = args;
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back(std::move(s));
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lk(mu_);
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "  {\"name\": \"" << s.name << "\", \"ph\": \"X\", \"pid\": 1, "
        << "\"tid\": " << s.track << ", \"ts\": " << number_text(s.start_us)
        << ", \"dur\": " << number_text(s.dur_us) << ", \"args\": {" << s.args
        << "}}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "], \"displayTimeUnit\": \"ms\"}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
