// Shared bench harness: runs the five join implementations with the
// paper's measurement conventions, collects figure series, prints the
// paper-style tables and persists CSVs so the derived figures (7-9) can
// be regenerated without re-running the sweeps.
//
// Environment:
//   SJ_SCALE        multiply every dataset size (default 1.0). eps values
//                   are rescaled automatically to stay in the paper's
//                   average-neighbour regime.
//   SJ_RESULTS_DIR  where CSVs go (default ./bench_results).
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "common/dataset.hpp"

namespace sj::bench {

/// Dataset-size multiplier from SJ_SCALE.
double env_scale();

/// Measurement conventions per algorithm (matching Section VI-B):
///   gpu, gpu_unicomp — total GPU-SJ response time (index build, upload,
///                      estimate, batched kernels, sorts, transfers)
///   rtree            — query phase only (the paper omits construction)
///   ego              — ego-sort + join (32-bit floats, as the paper ran)
///   gpu_bf           — brute-force kernel only (no result transfer)
/// These are what BackendStats::seconds reports, so run_algo works for
/// any name registered with sj::api::BackendRegistry.
struct Measurement {
  std::string figure;
  std::string panel;
  std::string dataset;
  std::string algo;
  std::size_t n = 0;
  int dim = 0;
  double eps = 0.0;
  double seconds = 0.0;
  std::uint64_t pairs = 0;
  double avg_neighbors = 0.0;
  /// Algorithmic work: candidate distance evaluations. On a single-core
  /// host the wall-clock serialises the GPU's parallel work, so the work
  /// count is the hardware-independent comparison (EXPERIMENTS.md).
  std::uint64_t distance_calcs = 0;
};

/// Run one backend (any BackendRegistry name) with the paper's
/// measurement conventions.
Measurement run_algo(const std::string& algo, const Dataset& d, double eps);

class Collector {
 public:
  explicit Collector(std::string figure) : figure_(std::move(figure)) {}

  /// Record a measurement and register it with google-benchmark (as a
  /// single manual-time iteration, so the standard benchmark report shows
  /// the same numbers the table prints).
  void add(Measurement m);

  const std::vector<Measurement>& rows() const { return rows_; }

  /// Paper-style fixed-width tables, one per panel.
  void print_series(std::ostream& os) const;

  /// CSV under results_dir(); used by the derived figure benches.
  void write_csv(const std::string& filename) const;

  static std::string results_dir();
  static bool load_csv(const std::string& filename,
                       std::vector<Measurement>& out);

 private:
  std::string figure_;
  std::vector<Measurement> rows_;
};

/// Standard bench main: initialise google-benchmark, run `body` (which
/// takes measurements and fills collectors), then replay registered
/// benchmarks and return.
int bench_main(int argc, char** argv, const std::function<void()>& body);

/// Geometric mean of the positive entries; 0.0 when none are positive.
double geomean(const std::vector<double>& values);

/// The median, min and max of one configuration's timed samples.
struct Timing {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
};

/// Summarise a non-empty sample set (the median of an even count is its
/// upper middle sample).
Timing summarize(std::vector<double> samples);

/// JSON string escaping for the BENCH_*.json artefacts (quotes,
/// backslashes and control characters), in ONE place instead of
/// hand-rolled per ablation.
std::string json_escape(const std::string& s);

/// One BENCH_*.json row: ordered key/value emission with the escaping and
/// number formatting the ablation benches previously copy-pasted.
///
///   JsonRow row;
///   row.field("workload", w.name).field("n", r.n).field("speedup", s);
///   row_json.push_back(row.str());   // {"workload": "Syn2D2M", ...}
class JsonRow {
 public:
  JsonRow& field(const std::string& key, const std::string& value);
  JsonRow& field(const std::string& key, const char* value);
  JsonRow& field(const std::string& key, double value);
  JsonRow& field(const std::string& key, std::uint64_t value);
  JsonRow& field(const std::string& key, int value);
  std::string str() const { return "{" + body_ + "}"; }

 private:
  void key_prefix(const std::string& key);
  std::string body_;
};

/// Write a BENCH_*.json perf-trajectory artefact — {"bench": name,
/// "scale": env_scale(), metric_key: g, "rows": [...]} with `row_json`
/// entries verbatim — to $SJ_BENCH_JSON (or `default_path` when unset).
/// Returns the path written. Shared by the ablation benches so the schema
/// CI consumes cannot drift. `metric_key` defaults to the layout/join
/// ablations' cell-vs-legacy geomean; the shard ablation passes its
/// strong-scaling key. `extra_metrics` adds further top-level
/// {key: value} entries (e.g. the shard ablation's 8-device efficiency)
/// next to the headline metric.
std::string write_bench_json(
    const std::string& bench_name, const std::string& default_path,
    double geomean_speedup, const std::vector<std::string>& row_json,
    const std::string& metric_key = "geomean_speedup_cell_vs_legacy",
    const std::vector<std::pair<std::string, double>>& extra_metrics = {});

/// The $SJ_SMOKE_CHECK regression gate: when enabled and
/// `geomean_speedup` < `min_geomean`, prints the failure and returns
/// non-zero (the bench's exit code); otherwise 0. `metric_desc` names the
/// gated quantity in the failure message.
int smoke_check(const std::string& bench_name, double geomean_speedup,
                double min_geomean = 0.9,
                const std::string& metric_desc = "cell-major geomean speedup");

}  // namespace sj::bench
