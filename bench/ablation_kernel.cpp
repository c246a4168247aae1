// Pairs vs count-only result mode of the SoA grouped kernel: count mode
// skips the count pass, the result buffers and the batch transfers
// entirely, so it measures the pure kernel + atomics cost of the join,
// and the pairs/count ratio is what materialising the result costs on
// top of it.
//
// Workloads: Syn{2..6}D2M (mid eps of each dataset's bench sweep) and the
// skewed IPPP2D2M dataset, matching the layout ablation.
//
// Sampling: one untimed run per dataset first (the first run on a fresh
// dataset pays page faults and cache warm-up), then kSamples timed runs
// of each mode and algorithm, alternating which mode goes first. A row
// records the median and the min and max of its samples.
//
// Output: CSV under SJ_RESULTS_DIR plus BENCH_kernel.json (path
// overridable via SJ_BENCH_JSON) — the perf-trajectory artefact CI
// uploads. The process exits 1 when the two modes disagree on a pair
// count, or on a distance count, in any run: the pairs mode's fills read
// the count pass's match masks, so both modes compute every candidate
// distance once.
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "common/csv.hpp"
#include "common/datagen.hpp"
#include "common/datasets.hpp"
#include "common/table.hpp"
#include "harness/bench_common.hpp"

namespace {

constexpr int kSamples = 5;  // timed runs per mode and row

struct Row {
  std::string workload;
  int dim = 0;
  std::size_t n = 0;
  double eps = 0.0;
  std::string algo;
  sj::bench::Timing pairs_time;
  sj::bench::Timing count_time;
  std::uint64_t pairs = 0;
  double count_speedup = 0.0;  // median pairs / median count-only
};

struct KernelRun {
  double seconds = 0.0;
  std::uint64_t pairs = 0;
  std::uint64_t distance_calcs = 0;
};

KernelRun run_kernel(const sj::Dataset& d, double eps,
                     const std::string& algo, sj::ResultMode mode) {
  sj::api::RunConfig config;
  config.mode = mode;
  const auto r =
      sj::api::BackendRegistry::instance().at(algo).run(d, eps, config);
  return {r.stats.seconds, r.total_pairs, r.stats.distance_calcs};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sj;
  using namespace sj::bench;
  std::vector<Row> rows;
  const int rc = bench_main(argc, argv, [&rows] {
    const double scale = env_scale();

    struct Workload {
      std::string name;
      Dataset data;
      double eps;
    };
    std::vector<Workload> workloads;
    for (int dim = 2; dim <= 6; ++dim) {
      const std::string name = "Syn" + std::to_string(dim) + "D2M";
      const auto& info = datasets::info(name);
      Dataset d = datasets::make(name, scale);
      const double eps = datasets::scaled_eps(info, d.size())[2];  // mid
      workloads.push_back({name, std::move(d), eps});
    }
    {
      const auto n = static_cast<std::size_t>(2'000'000 * scale);
      Dataset d = datagen::ippp(n, 2, 64.0, 4242);
      d.set_name("IPPP2D2M");
      workloads.push_back({"IPPP2D2M", std::move(d), 0.15});
    }

    TextTable t({"workload", "dim", "algo", "eps", "pairs (s)", "count (s)",
                 "count x", "pairs"});
    csv::Table out({"workload", "dim", "n", "eps", "algo", "pairs_seconds",
                    "pairs_min_seconds", "pairs_max_seconds",
                    "count_seconds", "count_min_seconds",
                    "count_max_seconds", "count_speedup", "pairs"});
    for (const auto& w : workloads) {
      (void)run_kernel(w.data, w.eps, "gpu", ResultMode::kPairs);  // warm-up
      for (const std::string algo : {"gpu", "gpu_unicomp"}) {
        Row row;
        row.workload = w.name;
        row.dim = w.data.dim();
        row.n = w.data.size();
        row.eps = w.eps;
        row.algo = algo;
        std::vector<double> pairs_samples;
        std::vector<double> count_samples;
        for (int s = 0; s < kSamples; ++s) {
          KernelRun runs[2];  // pairs, count-only
          const int first = s % 2;  // alternate which mode runs first
          for (const int m : {first, 1 - first}) {
            runs[m] = run_kernel(
                w.data, w.eps, algo,
                m == 0 ? ResultMode::kPairs : ResultMode::kCountOnly);
          }
          if (runs[0].pairs != runs[1].pairs) {
            std::cerr << "FATAL: pair counts disagree on " << w.name << "/"
                      << algo << ": pairs=" << runs[0].pairs
                      << " count_only=" << runs[1].pairs << "\n";
            std::exit(1);
          }
          if (runs[0].distance_calcs != runs[1].distance_calcs) {
            std::cerr << "FATAL: distance counts disagree on " << w.name
                      << "/" << algo << ": pairs=" << runs[0].distance_calcs
                      << " count_only=" << runs[1].distance_calcs
                      << " (the fills must not compute distances again)\n";
            std::exit(1);
          }
          row.pairs = runs[0].pairs;
          pairs_samples.push_back(runs[0].seconds);
          count_samples.push_back(runs[1].seconds);
        }
        row.pairs_time = summarize(pairs_samples);
        row.count_time = summarize(count_samples);
        row.count_speedup = row.count_time.median > 0.0
                                ? row.pairs_time.median / row.count_time.median
                                : 0.0;
        t.add_row({row.workload, std::to_string(row.dim), row.algo,
                   csv::fmt(row.eps), csv::fmt(row.pairs_time.median),
                   csv::fmt(row.count_time.median),
                   csv::fmt(row.count_speedup), std::to_string(row.pairs)});
        out.add_row({row.workload, std::to_string(row.dim),
                     std::to_string(row.n), csv::fmt(row.eps), row.algo,
                     csv::fmt(row.pairs_time.median),
                     csv::fmt(row.pairs_time.min),
                     csv::fmt(row.pairs_time.max),
                     csv::fmt(row.count_time.median),
                     csv::fmt(row.count_time.min),
                     csv::fmt(row.count_time.max),
                     csv::fmt(row.count_speedup), std::to_string(row.pairs)});
        rows.push_back(row);
      }
    }
    std::cout << "\n== ablation: pairs vs count-only (median of "
              << kSamples << " runs) ==\n";
    t.print(std::cout);
    std::cout << "(both modes return the same exact pair count and compute "
                 "the same distances; asserted above and by "
                 "tests/api/test_operation_parity.cpp)\n";
    out.write(Collector::results_dir() + "/ablation_kernel.csv");
  });
  if (rc != 0) return rc;

  // --- BENCH_kernel.json.
  std::vector<double> count_speedups;
  std::vector<std::string> row_json;
  for (const Row& r : rows) {
    count_speedups.push_back(r.count_speedup);
    row_json.push_back(JsonRow()
                           .field("workload", r.workload)
                           .field("dim", r.dim)
                           .field("n", static_cast<std::uint64_t>(r.n))
                           .field("eps", r.eps)
                           .field("algo", r.algo)
                           .field("samples", kSamples)
                           .field("pairs_seconds", r.pairs_time.median)
                           .field("pairs_min_seconds", r.pairs_time.min)
                           .field("pairs_max_seconds", r.pairs_time.max)
                           .field("count_seconds", r.count_time.median)
                           .field("count_min_seconds", r.count_time.min)
                           .field("count_max_seconds", r.count_time.max)
                           .field("count_speedup", r.count_speedup)
                           .field("pairs", r.pairs)
                           .str());
  }
  const double g = geomean(count_speedups);
  std::cout << "geomean count-over-pairs speedup:   " << g << "x\n";
  write_bench_json("ablation_kernel", "BENCH_kernel.json", g, row_json,
                   "geomean_speedup_count_vs_pairs");
  return 0;
}
