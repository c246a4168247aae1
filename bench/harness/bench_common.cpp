#include "harness/bench_common.hpp"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "api/registry.hpp"
#include "common/csv.hpp"
#include "common/table.hpp"

namespace sj::bench {

double env_scale() {
  const char* s = std::getenv("SJ_SCALE");
  if (s == nullptr) return 1.0;
  const double v = std::atof(s);
  return v > 0.0 ? v : 1.0;
}

Measurement run_algo(const std::string& algo, const Dataset& d, double eps) {
  Measurement m;
  m.dataset = d.name();
  m.algo = algo;
  m.n = d.size();
  m.dim = d.dim();
  m.eps = eps;

  const auto& backend = api::BackendRegistry::instance().at(algo);
  api::RunConfig config;
  if (backend.name() == "ego") {
    // The paper's Super-EGO runs used 32-bit floats (Section VI-B).
    config.extra.emplace("use_float", "1");
  } else if (backend.name() == "gpu_bf") {
    // The paper's lower bound counts pairs without storing them.
    config.mode = ResultMode::kCountOnly;
  }
  const auto outcome = backend.run(d, eps, config);
  // BackendStats::seconds already follows each engine's paper measurement
  // convention (see the table in bench_common.hpp).
  m.seconds = outcome.stats.seconds;
  m.pairs = outcome.pairs.empty()
                ? static_cast<std::uint64_t>(
                      outcome.stats.native_value("num_pairs"))
                : outcome.pairs.size();
  m.distance_calcs = outcome.stats.distance_calcs;
  m.avg_neighbors = m.n == 0 ? 0.0
                             : static_cast<double>(m.pairs) /
                                   static_cast<double>(m.n);
  return m;
}

void Collector::add(Measurement m) {
  m.figure = figure_;
  const std::string name = figure_ + "/" + m.panel + "/" + m.algo +
                           "/eps=" + csv::fmt(m.eps);
  const double seconds = m.seconds;
  const double pairs = static_cast<double>(m.pairs);
  benchmark::RegisterBenchmark(name.c_str(),
                               [seconds, pairs](benchmark::State& st) {
                                 for (auto _ : st) {
                                 }
                                 st.SetIterationTime(seconds);
                                 st.counters["pairs"] = pairs;
                               })
      ->UseManualTime()
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
  rows_.push_back(std::move(m));
}

void Collector::print_series(std::ostream& os) const {
  // Group rows by panel, preserving first-seen order.
  std::vector<std::string> panels;
  for (const auto& m : rows_) {
    bool known = false;
    for (const auto& p : panels) known = known || p == m.panel;
    if (!known) panels.push_back(m.panel);
  }
  for (const auto& panel : panels) {
    os << "\n== " << figure_ << " : " << panel << " ==\n";
    TextTable t({"dataset", "algo", "eps", "time (s)", "pairs",
                 "avg. neighbors"});
    for (const auto& m : rows_) {
      if (m.panel != panel) continue;
      t.add_row({m.dataset, m.algo, csv::fmt(m.eps), csv::fmt(m.seconds),
                 std::to_string(m.pairs), csv::fmt(m.avg_neighbors)});
    }
    t.print(os);
  }
}

std::string Collector::results_dir() {
  const char* dir = std::getenv("SJ_RESULTS_DIR");
  return dir != nullptr ? dir : "bench_results";
}

void Collector::write_csv(const std::string& filename) const {
  csv::Table t({"figure", "panel", "dataset", "algo", "n", "dim", "eps",
                "seconds", "pairs", "avg_neighbors", "distance_calcs"});
  for (const auto& m : rows_) {
    t.add_row({m.figure, m.panel, m.dataset, m.algo, std::to_string(m.n),
               std::to_string(m.dim), csv::fmt(m.eps), csv::fmt(m.seconds),
               std::to_string(m.pairs), csv::fmt(m.avg_neighbors),
               std::to_string(m.distance_calcs)});
  }
  t.write(results_dir() + "/" + filename);
}

bool Collector::load_csv(const std::string& filename,
                         std::vector<Measurement>& out) {
  csv::Table t;
  if (!csv::Table::read(results_dir() + "/" + filename, t)) return false;
  for (std::size_t r = 0; r < t.rows(); ++r) {
    Measurement m;
    m.figure = t.cell(r, "figure");
    m.panel = t.cell(r, "panel");
    m.dataset = t.cell(r, "dataset");
    m.algo = t.cell(r, "algo");
    m.n = static_cast<std::size_t>(t.num(r, "n"));
    m.dim = static_cast<int>(t.num(r, "dim"));
    m.eps = t.num(r, "eps");
    m.seconds = t.num(r, "seconds");
    m.pairs = static_cast<std::uint64_t>(t.num(r, "pairs"));
    m.avg_neighbors = t.num(r, "avg_neighbors");
    m.distance_calcs = static_cast<std::uint64_t>(t.num(r, "distance_calcs"));
    out.push_back(std::move(m));
  }
  return true;
}

int bench_main(int argc, char** argv, const std::function<void()>& body) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  body();  // takes the measurements and registers replay benchmarks
  // Guarantee at least one registered benchmark so table-style benches
  // (which print directly) don't trip the empty-filter warning.
  benchmark::RegisterBenchmark("harness/run", [](benchmark::State& st) {
    for (auto _ : st) {
    }
  })->Iterations(1);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

double geomean(const std::vector<double>& values) {
  double acc = 0.0;
  std::size_t counted = 0;
  for (const double v : values) {
    if (v > 0.0) {
      acc += std::log(v);
      ++counted;
    }
  }
  return counted > 0 ? std::exp(acc / static_cast<double>(counted)) : 0.0;
}

Timing summarize(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return {samples[samples.size() / 2], samples.front(), samples.back()};
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonRow::key_prefix(const std::string& key) {
  if (!body_.empty()) body_.append(", ");
  body_.push_back('"');
  body_.append(json_escape(key));
  body_.append("\": ");
}

JsonRow& JsonRow::field(const std::string& key, const std::string& value) {
  key_prefix(key);
  body_.push_back('"');
  body_.append(json_escape(value));
  body_.push_back('"');
  return *this;
}

JsonRow& JsonRow::field(const std::string& key, const char* value) {
  return field(key, std::string(value));
}

JsonRow& JsonRow::field(const std::string& key, double value) {
  key_prefix(key);
  std::ostringstream os;
  os << value;  // default 6-significant-digit format, as the tables print
  body_ += os.str();
  return *this;
}

JsonRow& JsonRow::field(const std::string& key, std::uint64_t value) {
  key_prefix(key);
  body_ += std::to_string(value);
  return *this;
}

JsonRow& JsonRow::field(const std::string& key, int value) {
  key_prefix(key);
  body_ += std::to_string(value);
  return *this;
}

std::string write_bench_json(
    const std::string& bench_name, const std::string& default_path,
    double geomean_speedup, const std::vector<std::string>& row_json,
    const std::string& metric_key,
    const std::vector<std::pair<std::string, double>>& extra_metrics) {
  const char* env_path = std::getenv("SJ_BENCH_JSON");
  const std::string path =
      env_path != nullptr && *env_path != '\0' ? env_path : default_path;
  std::ofstream js(path);
  js << "{\n  \"bench\": \"" << json_escape(bench_name) << "\",\n"
     << "  \"scale\": " << env_scale() << ",\n"
     << "  \"" << json_escape(metric_key) << "\": " << geomean_speedup
     << ",\n";
  for (const auto& [key, value] : extra_metrics) {
    js << "  \"" << json_escape(key) << "\": " << value << ",\n";
  }
  js << "  \"rows\": [\n";
  for (std::size_t i = 0; i < row_json.size(); ++i) {
    js << "    " << row_json[i] << (i + 1 < row_json.size() ? "," : "")
       << "\n";
  }
  js << "  ]\n}\n";
  std::cout << "wrote " << path << " (geomean speedup " << geomean_speedup
            << ")\n";
  return path;
}

int smoke_check(const std::string& bench_name, double geomean_speedup,
                double min_geomean, const std::string& metric_desc) {
  const char* smoke = std::getenv("SJ_SMOKE_CHECK");
  if (smoke == nullptr || *smoke == '\0' || std::string(smoke) == "0") {
    return 0;
  }
  if (geomean_speedup < min_geomean) {
    std::cerr << "SMOKE CHECK FAILED [" << bench_name << "]: "
              << metric_desc << " " << geomean_speedup << " < " << min_geomean
              << " (a >10% regression against the gated target)\n";
    return 1;
  }
  std::cout << "smoke check passed (geomean " << geomean_speedup
            << " >= " << min_geomean << ")\n";
  return 0;
}

}  // namespace sj::bench
