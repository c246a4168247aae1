// Ablations beyond the paper's headline figures, for the design choices
// DESIGN.md calls out:
//   (1) index construction cost: grid vs R-tree (binned insert, STR,
//       raw insert) — the paper asserts grid construction "requires far
//       less work than constructing the R-tree";
//   (2) GPU block-size sweep around the paper's 256 threads/block, on the
//       paper's point-centric launch (layout=legacy: the grouped launches
//       of the cell-major layout run 32-thread blocks whatever the knob);
//   (3) batching overhead: minimum batch count 1 vs 3 vs 12;
//   (4) mask arrays (M_j): cells examined with the mask filter vs the
//       unfiltered 3^n neighbourhood bound.
#include <iostream>

#include "api/registry.hpp"
#include "common/csv.hpp"
#include "common/datasets.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "core/grid_index.hpp"
#include "harness/bench_common.hpp"

int main(int argc, char** argv) {
  using namespace sj;
  using namespace sj::bench;
  return bench_main(argc, argv, [] {
    const double scale = env_scale();

    // --- (1) construction cost.
    {
      TextTable t({"dataset", "eps", "grid build (s)", "rtree binned (s)",
                   "rtree STR (s)", "rtree raw (s)"});
      for (const char* name : {"Syn2D2M", "Syn4D2M", "SW2DA"}) {
        const auto& info = datasets::info(name);
        const Dataset d = datasets::make(name, scale);
        const double eps = datasets::scaled_eps(info, d.size())[2];
        Timer timer;
        GridIndex grid(d, eps);
        const double grid_s = timer.seconds();
        const auto& rt = api::BackendRegistry::instance().at("rtree");
        auto rtree_build = [&](const char* mode) {
          api::RunConfig config;
          config.extra["build_mode"] = mode;
          return rt.run(d, eps, config).stats.build_seconds;
        };
        const double binned = rtree_build("binned");
        const double str = rtree_build("str");
        const double raw = rtree_build("raw");
        t.add_row({name, csv::fmt(eps), csv::fmt(grid_s), csv::fmt(binned),
                   csv::fmt(str), csv::fmt(raw)});
      }
      std::cout << "\n== ablation: index construction cost ==\n";
      t.print(std::cout);
    }

    // --- (2) block-size sweep, point-centric kernel.
    {
      TextTable t({"block size", "time (s)", "occupancy"});
      const Dataset d = datasets::make("Syn3D2M", scale);
      const auto& info = datasets::info("Syn3D2M");
      const double eps = datasets::scaled_eps(info, d.size())[2];
      const auto& gpu = api::BackendRegistry::instance().at("gpu_unicomp");
      for (int bs : {32, 64, 128, 256, 512, 1024}) {
        api::RunConfig config;
        config.extra["layout"] = "legacy";
        config.extra["block_size"] = std::to_string(bs);
        const auto r = gpu.run(d, eps, config);
        t.add_row({std::to_string(bs), csv::fmt(r.stats.seconds),
                   csv::fmt(r.stats.native_value("occupancy") * 100) + "%"});
      }
      std::cout << "\n== ablation: block size (Syn3D2M, layout=legacy) ==\n";
      t.print(std::cout);
    }

    // --- (3) batching overhead.
    {
      TextTable t({"min batches", "batches run", "time (s)"});
      const Dataset d = datasets::make("Syn2D2M", scale);
      const auto& info = datasets::info("Syn2D2M");
      const double eps = datasets::scaled_eps(info, d.size())[2];
      const auto& gpu = api::BackendRegistry::instance().at("gpu_unicomp");
      for (std::size_t mb : {std::size_t{1}, std::size_t{3},
                             std::size_t{12}}) {
        api::RunConfig config;
        config.extra["min_batches"] = std::to_string(mb);
        const auto r = gpu.run(d, eps, config);
        t.add_row({std::to_string(mb),
                   std::to_string(static_cast<std::uint64_t>(
                       r.stats.native_value("batches_run"))),
                   csv::fmt(r.stats.seconds)});
      }
      std::cout << "\n== ablation: minimum batch count (Syn2D2M) ==\n";
      t.print(std::cout);
    }

    // --- (4) mask filtering: examined cells vs the 3^n bound.
    {
      TextTable t({"dataset", "dim", "cells examined", "3^n bound",
                   "fraction"});
      for (const char* name :
           {"Syn2D2M", "Syn4D2M", "Syn6D2M", "SW2DA"}) {
        const auto& info = datasets::info(name);
        const Dataset d = datasets::make(name, scale);
        const double eps = datasets::scaled_eps(info, d.size())[2];
        const auto r = api::BackendRegistry::instance().at("gpu").run(d, eps);
        const auto cells_examined = static_cast<std::uint64_t>(
            r.stats.native_value("cells_examined"));
        double bound = 1.0;
        for (int j = 0; j < info.dim; ++j) bound *= 3.0;
        bound *= static_cast<double>(d.size());
        const double frac = static_cast<double>(cells_examined) / bound;
        t.add_row({name, std::to_string(info.dim),
                   std::to_string(cells_examined), csv::fmt(bound),
                   csv::fmt(frac)});
      }
      std::cout << "\n== ablation: mask-array filtering of adjacent cells ==\n";
      t.print(std::cout);
    }
  });
}
