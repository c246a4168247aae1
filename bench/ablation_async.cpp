// Head-to-head: gpu vs gpu_async (the overlapped batch pipeline).
//
// Two workloads at matched |D|:
//   * the fig5-style uniform 2-D "2M" dataset (the paper's canonical
//     synthetic workload), and
//   * a strongly skewed IPPP dataset (inhomogeneous Poisson point
//     process, after Hohmann 2019) where a few dense cores dominate the
//     result set — the stress case for batch load balance.
// Both engines run the same exact two-pass batch pipeline; gpu_async
// sweeps `streams` (rotating result buffers whose landing copies overlap
// later fills), and streams=1 degenerates to the serial schedule. Every
// configuration returns the same bytes. SJ_SCALE scales |D| as usual.
//
// Output: the usual CSV under SJ_RESULTS_DIR plus BENCH_async.json (path
// overridable via SJ_BENCH_JSON) — the perf-trajectory artefact tracking
// the copy overlap of the output path.
#include <algorithm>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "common/csv.hpp"
#include "common/datagen.hpp"
#include "common/datasets.hpp"
#include "common/table.hpp"
#include "harness/bench_common.hpp"

namespace {

struct Row {
  std::string workload;
  std::string algo;
  int streams = 0;
  double seconds = 0.0;
  std::uint64_t pairs = 0;
  std::uint64_t batches = 0;
  double speedup = 0.0;
};

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
    {
      const auto& info = datasets::info("Syn2D2M");
      Dataset d = datasets::make("Syn2D2M", scale);
      const double eps = datasets::scaled_eps(info, d.size())[2];  // mid
      workloads.push_back({"Syn2D2M", std::move(d), eps});
    }
    {
      const auto n = static_cast<std::size_t>(2'000'000 * scale);
      Dataset d = datagen::ippp(n, 2, 64.0, 4242);
      d.set_name("IPPP2D2M");
      workloads.push_back({"IPPP2D2M", std::move(d), 0.15});
    }

    const auto& registry = api::BackendRegistry::instance();
    TextTable t({"workload", "algo", "streams", "time (s)", "pairs",
                 "batches", "speedup vs gpu"});
    csv::Table out({"workload", "algo", "streams", "seconds", "pairs",
                    "batches", "speedup"});
    auto record = [&](const std::string& workload, const std::string& algo,
                      int streams, const api::JoinOutcome& r,
                      double speedup) {
      const auto batches =
          static_cast<std::uint64_t>(r.stats.native_value("batches_run"));
      rows.push_back({workload, algo, streams, r.stats.seconds,
                      r.pairs.size(), batches, speedup});
      const std::vector<std::string> cells = {
          workload, algo, std::to_string(streams), csv::fmt(r.stats.seconds),
          std::to_string(r.pairs.size()), std::to_string(batches),
          csv::fmt(speedup)};
      t.add_row(cells);
      out.add_row(cells);
    };
    for (const auto& w : workloads) {
      const auto gpu = registry.at("gpu").run(w.data, w.eps);
      record(w.name, "gpu", 3, gpu, 1.0);
      for (int streams : {1, 2, 4}) {
        api::RunConfig config;
        config.extra["streams"] = std::to_string(streams);
        const auto r = registry.at("gpu_async").run(w.data, w.eps, config);
        record(w.name, "gpu_async", streams, r,
               r.stats.seconds > 0.0 ? gpu.stats.seconds / r.stats.seconds
                                     : 0.0);
      }
    }
    std::cout << "\n== ablation: gpu vs gpu_async (overlapped pipeline) ==\n";
    t.print(std::cout);
    std::cout << "(exact two-pass output: every configuration returns the "
                 "identical pair set)\n";
    out.write(Collector::results_dir() + "/ablation_async.csv");
  });
  if (rc != 0) return rc;

  // --- BENCH_async.json: the trajectory metric is the geomean over
  // workloads of the BEST gpu_async configuration's speedup vs gpu.
  std::map<std::string, double> best;
  std::vector<std::string> row_json;
  for (const Row& r : rows) {
    if (r.algo == "gpu_async") {
      best[r.workload] = std::max(best[r.workload], r.speedup);
    }
    row_json.push_back(JsonRow()
                           .field("workload", r.workload)
                           .field("algo", r.algo)
                           .field("streams", r.streams)
                           .field("seconds", r.seconds)
                           .field("pairs", r.pairs)
                           .field("batches", r.batches)
                           .field("speedup", r.speedup)
                           .str());
  }
  std::vector<double> speedups;
  for (const auto& [workload, s] : best) speedups.push_back(s);
  write_bench_json("ablation_async", "BENCH_async.json", geomean(speedups),
                   row_json, "geomean_best_async_speedup_vs_gpu");
  return 0;
}
