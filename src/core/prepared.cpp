#include "core/prepared.hpp"

#include <cstring>
#include <stdexcept>
#include <string>

#include "common/parse.hpp"
#include "common/timer.hpp"
#include "core/batch_pipeline.hpp"

namespace sj {

namespace {

template <typename Options>
void check_entry(const Options& opt, const char* who, const char* checkpoint) {
  if (opt.mode == ResultMode::kSink && !opt.sink) {
    throw std::invalid_argument(std::string(who) +
                                ": result mode 'sink' needs a sink callback");
  }
  if (opt.control != nullptr) opt.control->check(checkpoint);
}

/// The pipeline request an engine's options describe, with `keys`
/// histogram entries.
template <typename Options>
ResultRequest request_for(const Options& opt, std::uint64_t keys) {
  ResultRequest req;
  req.mode = opt.mode;
  req.sink = opt.sink;
  req.histogram_keys = keys;
  req.control = opt.control;
  return req;
}

/// Move a pipeline run's output and work counters into an engine result
/// (SelfJoinResult or GpuJoinResult).
template <typename Result>
void take_output(PipelineOutput out, const AtomicWork& work, Result& result) {
  result.pairs = std::move(out.pairs);
  result.total_pairs = out.total_pairs;
  result.histogram = std::move(out.histogram);
  work.add_to(result.stats.metrics);
  result.stats.metrics.kernel_seconds = result.stats.batch.kernel_seconds;
}

}  // namespace

PreparedJoin::PreparedJoin(const Dataset& data, double eps,
                           const gpu::DeviceSpec& device, GridLayout layout)
    : data_(&data), device_(device), layout_(layout), arena_(device) {
  parse::non_negative("argument 'eps' of PreparedJoin", eps);
  Timer t;
  index_ = GridIndex(data, eps);
  index_build_seconds_ = t.seconds();
  stage();
}

PreparedJoin::PreparedJoin(const Dataset& data, GridIndex index,
                           const gpu::DeviceSpec& device)
    : data_(&data), index_(std::move(index)), device_(device), arena_(device) {
  if (index_.num_points() != data.size() || index_.dim() != data.dim()) {
    throw std::invalid_argument(
        "PreparedJoin: adopted index does not match the dataset");
  }
  stage();
}

void PreparedJoin::stage() {
  Timer t;
  dev_ = std::make_unique<DeviceGrid>(arena_, *data_, index_, layout_);
  upload_seconds_ = t.seconds();
}

GpuJoinResult PreparedJoin::run(const Dataset& queries,
                                const GpuJoinOptions& opt) const {
  parse::matching_dims("argument 'queries' of PreparedJoin::run",
                       queries.dim(), "the prepared dataset", data_->dim());
  check_entry(opt, "PreparedJoin::run", "prepared join entry");
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

  const ResultRequest req = request_for(opt, queries.size());
  AtomicWork work;
  BatchPipeline pipeline(arena_, device_, pipeline_config(opt));
  PipelineOutput out;
  if (layout_ == GridLayout::kCellMajor) {
    // Group the queries by their data-grid home cell and resolve each
    // group's candidate ranges ONCE; the build carries the index-search
    // work (once per query group rather than once per query).
    const GroupAdjacency adjacency = upload_group_adjacency(
        arena_, build_group_adjacency(index_,
                                      sorted_query_groups(index_, queries),
                                      /*unicomp=*/false));
    st.query_groups = adjacency.num_groups();
    st.adjacency_seconds = adjacency.build_seconds;
    out = pipeline.run_groups(req, grid, adjacency, &work, &st.batch);
    st.metrics.cells_examined += adjacency.cells_examined;
    st.metrics.cells_nonempty += adjacency.cells_nonempty;
  } else {
    out = pipeline.run(req, grid, /*unicomp=*/false, &work, &st.batch);
  }
  take_output(std::move(out), work, result);
  st.total_seconds = total.seconds();
  return result;
}

SelfJoinResult PreparedJoin::self_join(const GpuSelfJoinOptions& opt) const {
  check_entry(opt, "PreparedJoin::self_join", "prepared self-join entry");
  SelfJoinResult result;
  SelfJoinStats& st = result.stats;
  Timer total;
  st.grid_nonempty_cells = index_.num_nonempty_cells();
  st.grid_total_cells = index_.total_cells();
  if (data_->empty()) {
    st.total_seconds = total.seconds();
    return result;
  }

  const GridDeviceView& grid = dev_->view();
  // Cell mode: the groups are the grid's own cells, so the adjacency is
  // query-independent — resolved once per unicomp flag, it amortises
  // across the calls.
  const GroupAdjacency* adjacency = nullptr;
  if (layout_ == GridLayout::kCellMajor) {
    std::lock_guard<std::mutex> lock(cache_mu_);
    std::unique_ptr<GroupAdjacency>& cached =
        self_adjacency_[opt.unicomp ? 1 : 0];
    if (cached == nullptr) {
      cached = std::make_unique<GroupAdjacency>(upload_group_adjacency(
          arena_,
          build_group_adjacency(
              index_,
              cell_groups(index_, 0,
                          static_cast<std::uint32_t>(
                              index_.num_nonempty_cells())),
              opt.unicomp)));
      st.adjacency_seconds = cached->build_seconds;
    }
    adjacency = cached.get();
  }

  const ResultRequest req = request_for(opt, data_->size());
  AtomicWork work;
  Timer phase;
  BatchPipeline pipeline(arena_, device_, pipeline_config(opt));
  PipelineOutput out;
  if (adjacency != nullptr) {
    out = pipeline.run_groups(req, grid, *adjacency, &work, &st.batch);
    // The adjacency build carries the cell-mode index-search work
    // (resolved once per cell rather than once per point). Every call
    // reports it, cached or not, so the counters depend only on the data,
    // eps and options.
    st.metrics.cells_examined += adjacency->cells_examined;
    st.metrics.cells_nonempty += adjacency->cells_nonempty;
  } else {
    out = pipeline.run(req, grid, opt.unicomp, &work, &st.batch);
  }
  st.join_seconds = phase.seconds();
  take_output(std::move(out), work, result);
  st.total_seconds = total.seconds();
  collect_gpu_stats(index_, grid, opt, st);
  return result;
}

}  // namespace sj
