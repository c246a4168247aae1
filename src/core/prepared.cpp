#include "core/prepared.hpp"

#include <cstring>
#include <stdexcept>

#include "common/parse.hpp"
#include "common/timer.hpp"
#include "core/batch_pipeline.hpp"

namespace sj {

PreparedJoin::PreparedJoin(const Dataset& data, double eps,
                           const gpu::DeviceSpec& device)
    : data_(&data), device_(device), arena_(device) {
  parse::non_negative("argument 'eps' of PreparedJoin", eps);
  Timer t;
  index_ = GridIndex(data, eps);
  index_build_seconds_ = t.seconds();
  t.reset();
  dev_ = std::make_unique<DeviceGrid>(arena_, data, index_,
                                      GridLayout::kCellMajor);
  upload_seconds_ = t.seconds();
}

PreparedJoin::PreparedJoin(const Dataset& data, GridIndex index,
                           const gpu::DeviceSpec& device)
    : data_(&data), index_(std::move(index)), device_(device), arena_(device) {
  if (index_.num_points() != data.size() || index_.dim() != data.dim()) {
    throw std::invalid_argument(
        "PreparedJoin: adopted index does not match the dataset");
  }
  Timer t;
  dev_ = std::make_unique<DeviceGrid>(arena_, data, index_,
                                      GridLayout::kCellMajor);
  upload_seconds_ = t.seconds();
}

GpuJoinResult PreparedJoin::run(const Dataset& queries,
                                const GpuJoinOptions& opt) const {
  parse::matching_dims("argument 'queries' of PreparedJoin::run",
                       queries.dim(), "the prepared dataset", data_->dim());
  if (opt.mode == ResultMode::kSink && !opt.sink) {
    throw std::invalid_argument(
        "PreparedJoin::run: result mode 'sink' needs a sink callback");
  }
  if (opt.control != nullptr) opt.control->check("prepared join entry");
  GpuJoinResult result;
  GpuJoinStats& st = result.stats;
  Timer total;
  st.index_build_seconds = 0.0;  // amortised into the PreparedJoin
  if (queries.empty() || data_->empty()) {
    if (opt.mode == ResultMode::kHistogram) {
      result.histogram.assign(queries.size(), 0);
    }
    st.total_seconds = total.seconds();
    return result;
  }

  // Per-call query upload into the shared arena (released on return).
  gpu::DeviceBuffer<double> qbuf(arena_, queries.raw().size());
  std::memcpy(qbuf.data(), queries.raw().data(),
              queries.raw().size() * sizeof(double));
  GridDeviceView grid = dev_->view();
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

  // Group the queries by their data-grid home cell and resolve each
  // group's candidate ranges once — the same per-call path as gpu_join's
  // cell-major branch (core/join.cpp).
  const JoinAdjacency adjacency = build_join_adjacency(arena_, grid);
  st.query_groups = adjacency.num_groups();

  AtomicWork work;
  BatchPipeline pipeline(arena_, device_, pipeline_config(opt));
  PipelineOutput out =
      pipeline.run_join_groups(req, grid, adjacency, &work, &st.batch);
  work.add_to(st.metrics);
  st.metrics.cells_examined += adjacency.cells_examined;
  st.metrics.cells_nonempty += adjacency.cells_nonempty;

  result.pairs = std::move(out.pairs);
  result.total_pairs = out.total_pairs;
  result.histogram = std::move(out.histogram);
  st.metrics.kernel_seconds = st.batch.kernel_seconds;
  st.total_seconds = total.seconds();
  return result;
}

SelfJoinResult PreparedJoin::self_join(const GpuSelfJoinOptions& opt) const {
  if (opt.mode == ResultMode::kSink && !opt.sink) {
    throw std::invalid_argument(
        "PreparedJoin::self_join: result mode 'sink' needs a sink callback");
  }
  if (opt.control != nullptr) opt.control->check("prepared self-join entry");
  SelfJoinResult result;
  SelfJoinStats& st = result.stats;
  Timer total;
  st.grid_nonempty_cells = index_.num_nonempty_cells();
  st.grid_total_cells = index_.total_cells();
  if (data_->empty()) {
    st.total_seconds = total.seconds();
    return result;
  }

  GridDeviceView grid = dev_->view();
  if (!opt.soa) {
    for (int j = 0; j < grid.dim; ++j) grid.coord[j] = nullptr;
  }

  // The adjacency is query-independent for the self-join, so it
  // amortises across the session's calls (per unicomp flag).
  const CellAdjacency* adjacency = nullptr;
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    std::unique_ptr<CellAdjacency>& cached =
        self_adjacency_[opt.unicomp ? 1 : 0];
    if (cached == nullptr) {
      cached = std::make_unique<CellAdjacency>(
          build_cell_adjacency(arena_, grid, opt.unicomp));
    }
    adjacency = cached.get();
  }

  ResultRequest req;
  req.mode = opt.mode;
  req.sink = opt.sink;
  req.histogram_keys = data_->size();
  req.control = opt.control;

  AtomicWork work;
  Timer phase;
  BatchPipeline pipeline(arena_, device_, pipeline_config(opt));
  PipelineOutput out = pipeline.run_cells(req, grid, opt.unicomp, *adjacency,
                                          &work, &st.batch);
  result.pairs = std::move(out.pairs);
  result.total_pairs = out.total_pairs;
  result.histogram = std::move(out.histogram);
  st.join_seconds = phase.seconds();

  work.add_to(st.metrics);
  st.metrics.kernel_seconds = st.batch.kernel_seconds;
  collect_gpu_stats(grid, opt, st);
  st.total_seconds = total.seconds();
  return result;
}

}  // namespace sj
