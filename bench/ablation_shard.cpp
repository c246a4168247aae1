// Strong scaling of gpu_shard: 1/2/4/8 simulated devices on the uniform
// Syn2D2M workload and a strongly skewed IPPP dataset (the case the
// weighted chunklet plan + work stealing are built for).
//
// One host core serialises the simulated devices, so the scaling metric
// is the modelled multi-device MAKESPAN — common host phases plus the
// slowest device's busy clock, measured under the virtual-time serial
// drive (schedule=steal) so device timings do not contend for the core
// (the same modelling stance as the PCIe transfer model; the true wall
// time is reported alongside). Every configuration is cross-checked
// against the single-device gpu backend's pair count — the byte-level
// parity lives in tests/core/test_shard.cpp and test_chunklet.cpp.
//
// Output: the usual CSV under SJ_RESULTS_DIR plus BENCH_shard.json (path
// overridable via SJ_BENCH_JSON) carrying two top-level metrics:
// geomean_speedup_4shards_vs_1 and efficiency_8shards_ippp (the skewed
// workload's 8-device efficiency — the headline the chunklet scheduler
// exists for). With SJ_SMOKE_CHECK=1 the process exits non-zero when the
// geomean 4-device speedup falls below 1.44x or the IPPP 8-device
// efficiency falls below 0.85 — the CI bench-smoke gates.
#include <cstdlib>
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
  std::size_t n = 0;
  double eps = 0.0;
  int shards = 0;
  double wall_seconds = 0.0;
  double makespan_seconds = 0.0;
  double max_shard_seconds = 0.0;
  std::uint64_t chunklets = 0;
  std::uint64_t stolen = 0;
  double speedup = 0.0;     // makespan(1 device) / makespan(K devices)
  double efficiency = 0.0;  // speedup / K
  std::uint64_t pairs = 0;
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
    TextTable t({"workload", "shards", "makespan (s)", "wall (s)",
                 "speedup", "efficiency", "stolen", "max shard (s)",
                 "pairs"});
    csv::Table out({"workload", "n", "eps", "shards", "makespan_seconds",
                    "wall_seconds", "speedup", "efficiency", "chunklets",
                    "stolen", "max_shard_seconds", "pairs"});
    for (const auto& w : workloads) {
      const std::uint64_t want_pairs =
          registry.at("gpu").run(w.data, w.eps).pairs.size();
      double base_makespan = 0.0;
      for (int shards : {1, 2, 4, 8}) {
        api::RunConfig config;
        config.extra["shards"] = std::to_string(shards);
        // Virtual-time drive: per-device busy timings free of host-core
        // contention, which is what the makespan models.
        config.extra["schedule"] = "steal";
        const auto r = registry.at("gpu_shard").run(w.data, w.eps, config);
        if (r.pairs.size() != want_pairs) {
          std::cerr << "FATAL: gpu_shard(" << shards << ") disagrees on "
                    << w.name << ": got " << r.pairs.size() << " pairs, gpu "
                    << want_pairs << "\n";
          std::exit(1);
        }
        Row row;
        row.workload = w.name;
        row.n = w.data.size();
        row.eps = w.eps;
        row.shards = shards;
        row.wall_seconds = r.stats.seconds;
        row.makespan_seconds = r.stats.native_value("makespan_seconds");
        row.chunklets =
            static_cast<std::uint64_t>(r.stats.native_value("chunklets"));
        row.stolen = static_cast<std::uint64_t>(
            r.stats.native_value("chunklets_stolen"));
        row.pairs = r.pairs.size();
        const auto devices =
            static_cast<std::size_t>(r.stats.native_value("shards"));
        for (std::size_t s = 0; s < devices; ++s) {
          row.max_shard_seconds = std::max(
              row.max_shard_seconds,
              r.stats.native_value("shard" + std::to_string(s) + "_seconds"));
        }
        if (shards == 1) base_makespan = row.makespan_seconds;
        row.speedup = row.makespan_seconds > 0.0
                          ? base_makespan / row.makespan_seconds
                          : 0.0;
        row.efficiency = row.speedup / shards;
        t.add_row({row.workload, std::to_string(row.shards),
                   csv::fmt(row.makespan_seconds), csv::fmt(row.wall_seconds),
                   csv::fmt(row.speedup), csv::fmt(row.efficiency),
                   std::to_string(row.stolen),
                   csv::fmt(row.max_shard_seconds),
                   std::to_string(row.pairs)});
        out.add_row({row.workload, std::to_string(row.n), csv::fmt(row.eps),
                     std::to_string(row.shards),
                     csv::fmt(row.makespan_seconds),
                     csv::fmt(row.wall_seconds), csv::fmt(row.speedup),
                     csv::fmt(row.efficiency), std::to_string(row.chunklets),
                     std::to_string(row.stolen),
                     csv::fmt(row.max_shard_seconds),
                     std::to_string(row.pairs)});
        rows.push_back(row);
      }
    }
    std::cout << "\n== ablation: gpu_shard strong scaling with work "
                 "stealing (modelled multi-device makespan) ==\n";
    t.print(std::cout);
    std::cout << "(every configuration returns the identical pair set; "
                 "asserted above and byte-exactly by "
                 "tests/core/test_shard.cpp)\n";
    out.write(Collector::results_dir() + "/ablation_shard.csv");
  });
  if (rc != 0) return rc;

  // --- BENCH_shard.json + the CI smoke gates: geomean 4-device speedup
  // (below 1.44x = >10% off the 1.6x scale-out target) and the skewed
  // workload's 8-device efficiency (below 0.85 the over-decomposition has
  // regressed).
  std::vector<double> speedups4;
  double efficiency8_ippp = 0.0;
  std::vector<std::string> row_json;
  for (const Row& r : rows) {
    if (r.shards == 4) speedups4.push_back(r.speedup);
    if (r.shards == 8 && r.workload == "IPPP2D2M") {
      efficiency8_ippp = r.efficiency;
    }
    row_json.push_back(JsonRow()
                           .field("workload", r.workload)
                           .field("n", static_cast<std::uint64_t>(r.n))
                           .field("eps", r.eps)
                           .field("shards", r.shards)
                           .field("makespan_seconds", r.makespan_seconds)
                           .field("wall_seconds", r.wall_seconds)
                           .field("speedup", r.speedup)
                           .field("efficiency", r.efficiency)
                           .field("chunklets", r.chunklets)
                           .field("stolen", r.stolen)
                           .field("max_shard_seconds", r.max_shard_seconds)
                           .field("pairs", r.pairs)
                           .str());
  }
  const double g = geomean(speedups4);
  write_bench_json("ablation_shard", "BENCH_shard.json", g, row_json,
                   "geomean_speedup_4shards_vs_1",
                   {{"efficiency_8shards_ippp", efficiency8_ippp}});
  const int rc_speedup = smoke_check("ablation_shard", g, 1.44,
                                     "4-device geomean makespan speedup");
  // Strong-scaling efficiency is scale-dependent: the serialized common
  // prefix (index build, staging, planning) has fixed costs that an
  // SJ_SCALE-shrunk workload cannot amortise, so the full 0.85 gate
  // (target 0.9 minus noise) applies at scale >= 1 and the CI smoke
  // scale (0.2) gates at the proportionately lower floor measured there
  // (~0.4-0.5 observed, wide noise band on tiny runs).
  const double eff_gate = env_scale() >= 1.0 ? 0.85 : 0.30;
  const int rc_eff =
      smoke_check("ablation_shard", efficiency8_ippp, eff_gate,
                  "IPPP 8-device strong-scaling efficiency (steal)");
  return rc_speedup != 0 ? rc_speedup : rc_eff;
}
