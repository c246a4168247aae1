#include "core/join.hpp"

#include <cstring>
#include <stdexcept>

#include "common/parse.hpp"
#include "common/timer.hpp"
#include "core/batch_pipeline.hpp"
#include "core/device_view.hpp"
#include "core/grid_index.hpp"
#include "core/kernels.hpp"
#include "gpusim/arena.hpp"

namespace sj {

GpuJoinResult gpu_join(const Dataset& queries, const Dataset& data,
                       double eps, GpuJoinOptions opt) {
  parse::non_negative("argument 'eps' of gpu_join", eps);
  parse::matching_dims("argument 'queries' of gpu_join", queries.dim(),
                       "argument 'data'", data.dim());
  if (opt.mode == ResultMode::kSink && !opt.sink) {
    throw std::invalid_argument(
        "gpu_join: result mode 'sink' needs a sink callback");
  }
  // Entry checkpoint: an already-expired or cancelled query must not pay
  // for the index build.
  if (opt.control != nullptr) opt.control->check("join entry");
  GpuJoinResult result;
  GpuJoinStats& st = result.stats;
  Timer total;

  Timer phase;
  GridIndex index(data, eps);
  st.index_build_seconds = phase.seconds();
  if (queries.empty() || data.empty()) {
    if (opt.mode == ResultMode::kHistogram) {
      result.histogram.assign(queries.size(), 0);
    }
    st.total_seconds = total.seconds();
    return result;
  }

  gpu::GlobalMemoryArena arena(opt.device);
  DeviceGrid dev(arena, data, index, opt.layout);

  // Ship the query set to the device alongside the indexed data.
  gpu::DeviceBuffer<double> qbuf(arena, queries.raw().size());
  std::memcpy(qbuf.data(), queries.raw().data(),
              queries.raw().size() * sizeof(double));
  GridDeviceView grid = dev.view();
  grid.qpoints = qbuf.data();
  grid.qn = queries.size();
  if (!opt.soa) {
    for (int j = 0; j < grid.dim; ++j) grid.coord[j] = nullptr;
  }

  ResultRequest req;
  req.mode = opt.mode;
  req.sink = opt.sink;
  req.histogram_keys = queries.size();
  req.control = opt.control;

  AtomicWork work;
  BatchPipeline pipeline(arena, opt.device, pipeline_config(opt));
  PipelineOutput out;
  if (opt.layout == GridLayout::kCellMajor) {
    // Group the queries by their data-grid home cell and resolve each
    // group's candidate ranges ONCE.
    const JoinAdjacency adjacency = build_join_adjacency(arena, grid);
    st.query_groups = adjacency.num_groups();
    out = pipeline.run_join_groups(req, grid, adjacency, &work, &st.batch);
    // The adjacency build carries the index-search work (resolved once
    // per query group rather than once per query).
    st.metrics.cells_examined += adjacency.cells_examined;
    st.metrics.cells_nonempty += adjacency.cells_nonempty;
  } else {
    out = pipeline.run(req, grid, /*unicomp=*/false, &work, &st.batch);
  }
  work.add_to(st.metrics);
  result.pairs = std::move(out.pairs);
  result.total_pairs = out.total_pairs;
  result.histogram = std::move(out.histogram);
  st.metrics.kernel_seconds = st.batch.kernel_seconds;
  st.total_seconds = total.seconds();
  return result;
}

}  // namespace sj
