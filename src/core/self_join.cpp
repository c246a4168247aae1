#include "core/self_join.hpp"

#include <stdexcept>
#include <utility>

#include "common/timer.hpp"
#include "core/kernels.hpp"
#include "core/prepared.hpp"
#include "gpusim/cachesim.hpp"
#include "gpusim/kernel.hpp"
#include "gpusim/occupancy.hpp"

namespace sj {

GpuSelfJoin::GpuSelfJoin(GpuSelfJoinOptions opt) : opt_(std::move(opt)) {
  check_pipeline_config(opt_, "GpuSelfJoin");
}

GpuJoinResult GpuSelfJoin::run(const Dataset& d, double eps) const {
  if (eps < 0.0) throw std::invalid_argument("GpuSelfJoin: eps must be >= 0");
  if (opt_.mode == ResultMode::kSink && !opt_.sink) {
    throw std::invalid_argument(
        "GpuSelfJoin: result mode 'sink' needs a sink callback");
  }
  // Entry checkpoint: a query that arrives already expired or cancelled
  // must not pay for the index build.
  if (opt_.control != nullptr) opt_.control->check("self-join entry");
  Timer total;
  const PreparedJoin prepared(d, eps, opt_.device, opt_.layout);
  GpuJoinResult result = prepared.self_join(opt_);
  result.stats.index_build_seconds = prepared.index_build_seconds();
  result.stats.upload_seconds = prepared.upload_seconds();
  // The metrics replay ran last inside self_join; it is not join time.
  result.stats.total_seconds =
      total.seconds() - result.stats.metrics_seconds;
  return result;
}

void collect_gpu_stats(const GridIndex& index, const GridDeviceView& grid,
                       const GpuSelfJoinOptions& opt, GpuJoinStats& st) {
  // --- Occupancy model (Table II).
  st.regs_per_thread = gpu::self_join_regs_per_thread(grid.dim, opt.unicomp);
  const gpu::OccupancyResult occ = gpu::theoretical_occupancy(
      opt.device, opt.block_size, st.regs_per_thread);
  st.occupancy = occ.occupancy;
  st.metrics.occupancy = occ.occupancy;

  // --- Optional metrics pass: serial execution with the L1 cache model
  // (deterministic access order, as a profiler replay would see). Runs
  // the kernel matching the grid's layout so the cache counters reflect
  // the access pattern the join actually used: on the cell-major layout
  // the grouped kernel over an adjacency of the grid's cells.
  if (opt.collect_metrics) {
    const Timer replay;
    gpu::CacheSim cache(opt.device);
    AtomicWork mwork;
    if (grid.cell_major) {
      const GroupAdjacencyHost adj = build_group_adjacency(
          index,
          cell_groups(index, 0,
                      static_cast<std::uint32_t>(index.num_nonempty_cells())),
          opt.unicomp);
      std::vector<GroupWorkItem> items;
      items.reserve(adj.num_groups());
      for (std::uint32_t g = 0; g < adj.num_groups(); ++g) {
        items.push_back(GroupWorkItem{g, adj.group_offsets[g],
                                      adj.group_offsets[g + 1]});
      }
      GroupedScanParams p;
      p.grid = grid;
      p.items = items.data();
      p.num_items = items.size();
      p.ranges = adj.ranges.data();
      p.range_offsets = adj.offsets.data();
      p.work = &mwork;
      p.cache = &cache;
      gpu::launch(
          gpu::LaunchConfig::cover(items.size(), opt.block_size),
          [&p](const gpu::ThreadCtx& ctx) { grouped_scan_thread(ctx, p); },
          gpu::ExecMode::kSerial);
    } else {
      SelfJoinKernelParams p;
      p.grid = grid;
      p.num_queries = grid.n;
      p.unicomp = opt.unicomp;
      p.work = &mwork;
      p.cache = &cache;
      gpu::launch(
          gpu::LaunchConfig::cover(grid.n, opt.block_size),
          [&p](const gpu::ThreadCtx& ctx) { self_join_thread(ctx, p); },
          gpu::ExecMode::kSerial);
    }
    st.metrics.cache_hits = cache.hits();
    st.metrics.cache_misses = cache.misses();
    // Modelled unified-cache bandwidth: bytes served over modelled time
    // (hit/miss latencies at the device clock). The paper reports the
    // profiler's utilisation in GB/s; the ratio between kernel variants is
    // the quantity of interest (Table II).
    const double cycles =
        static_cast<double>(cache.hits()) *
            opt.device.l1_hit_latency_cycles +
        static_cast<double>(cache.misses()) * opt.device.mem_latency_cycles;
    if (cycles > 0.0) {
      gpu::KernelMetrics m;
      mwork.add_to(m);
      const double seconds = cycles / (opt.device.core_clock_ghz * 1e9);
      st.metrics.cache_bw_gbs =
          static_cast<double>(m.global_load_bytes) / seconds / 1e9;
    }
    st.metrics_seconds = replay.seconds();
  }
}

}  // namespace sj
