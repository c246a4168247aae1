#include "core/async_self_join.hpp"

#include <stdexcept>
#include <thread>
#include <utility>

#include "common/timer.hpp"
#include "core/batch_pipeline.hpp"
#include "core/device_view.hpp"
#include "core/grid_index.hpp"
#include "core/kernels.hpp"
#include "gpusim/arena.hpp"

namespace sj {

AsyncGpuSelfJoin::AsyncGpuSelfJoin(AsyncSelfJoinOptions opt) : opt_(opt) {
  if (opt_.block_size <= 0) {
    throw std::invalid_argument("AsyncGpuSelfJoin: block_size must be positive");
  }
  if (opt_.num_streams <= 0) {
    throw std::invalid_argument(
        "AsyncGpuSelfJoin: num_streams must be positive");
  }
  if (opt_.min_batches == 0) {
    throw std::invalid_argument(
        "AsyncGpuSelfJoin: min_batches must be positive");
  }
}

SelfJoinResult AsyncGpuSelfJoin::run(const Dataset& d, double eps) const {
  if (eps < 0.0) {
    throw std::invalid_argument("AsyncGpuSelfJoin: eps must be >= 0");
  }
  if (opt_.mode == ResultMode::kSink && !opt_.sink) {
    throw std::invalid_argument(
        "AsyncGpuSelfJoin: result mode 'sink' needs a sink callback");
  }
  SelfJoinResult result;
  SelfJoinStats& st = result.stats;
  Timer total;

  // --- Host-side index construction (cheap relative to tree indexes).
  Timer phase;
  GridIndex index(d, eps);
  st.index_build_seconds = phase.seconds();
  st.grid_nonempty_cells = index.num_nonempty_cells();
  st.grid_total_cells = index.total_cells();

  if (d.empty()) {
    st.total_seconds = total.seconds();
    return result;
  }

  // --- Upload dataset + index to the (simulated) device.
  gpu::GlobalMemoryArena arena(opt_.device);
  phase.reset();
  DeviceGrid dev(arena, d, index, opt_.layout);
  st.upload_seconds = phase.seconds();
  GridDeviceView grid = dev.view();
  if (!opt_.soa) {
    // AoS ablation: drop the SoA planes from the kernels' view.
    for (int j = 0; j < grid.dim; ++j) grid.coord[j] = nullptr;
  }

  std::thread metrics_thread;
  if (opt_.collect_metrics) {
    // Writes only the occupancy/cache fields of st, disjoint from
    // everything the join path below touches.
    metrics_thread = std::thread([&] { collect_gpu_stats(grid, opt_, st); });
  }

  ResultRequest req;
  req.mode = opt_.mode;
  req.sink = opt_.sink;
  req.histogram_keys = d.size();
  req.control = opt_.control;

  AtomicWork work;
  CellAdjacency adjacency;
  PipelineOutput out;
  try {
    if (opt_.layout == GridLayout::kCellMajor) {
      adjacency = build_cell_adjacency(arena, grid, opt_.unicomp);
    }
    phase.reset();
    BatchPipeline pipeline(arena, opt_.device, pipeline_config(opt_));
    out = opt_.layout == GridLayout::kCellMajor
              ? pipeline.run_cells(req, grid, opt_.unicomp, adjacency, &work,
                                   &st.batch)
              : pipeline.run(req, grid, opt_.unicomp, &work, &st.batch);
  } catch (...) {
    if (metrics_thread.joinable()) metrics_thread.join();
    throw;
  }
  result.pairs = std::move(out.pairs);
  result.total_pairs = out.total_pairs;
  result.histogram = std::move(out.histogram);
  st.join_seconds = phase.seconds();

  work.add_to(st.metrics);
  st.metrics.cells_examined += adjacency.cells_examined;
  st.metrics.cells_nonempty += adjacency.cells_nonempty;
  st.metrics.kernel_seconds = st.batch.kernel_seconds;

  if (metrics_thread.joinable()) {
    metrics_thread.join();
  } else {
    collect_gpu_stats(grid, opt_, st);
  }

  st.total_seconds = total.seconds();
  return result;
}

}  // namespace sj
