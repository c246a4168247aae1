#include "core/prepared.hpp"

#include <cstring>
#include <stdexcept>
#include <string>

#include "common/parse.hpp"
#include "common/timer.hpp"
#include "core/batch_pipeline.hpp"

namespace sj {

namespace {

/// The entry checks of both facets, before any per-call work: the
/// batching settings, the sink, and the deadline/cancel checkpoint.
void check_entry(const GpuJoinOptions& opt, const char* who,
                 const char* checkpoint) {
  check_pipeline_config(opt, who);
  if (opt.mode == ResultMode::kSink && !opt.sink) {
    throw std::invalid_argument(std::string(who) +
                                ": result mode 'sink' needs a sink callback");
  }
  if (opt.control != nullptr) opt.control->check(checkpoint);
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
  return join_units(&queries, opt, /*unicomp=*/false);
}

GpuJoinResult PreparedJoin::self_join(const GpuSelfJoinOptions& opt) const {
  check_entry(opt, "PreparedJoin::self_join", "prepared self-join entry");
  GpuJoinResult result = join_units(nullptr, opt, opt.unicomp);
  if (!data_->empty()) {
    collect_gpu_stats(index_, dev_->view(), opt, result.stats);
  }
  return result;
}

GpuJoinResult PreparedJoin::join_units(const Dataset* queries,
                                       const GpuJoinOptions& opt,
                                       bool unicomp) const {
  GpuJoinResult result;
  GpuJoinStats& st = result.stats;
  Timer total;
  st.grid_nonempty_cells = index_.num_nonempty_cells();
  st.grid_total_cells = index_.total_cells();
  // Histogram keys: query indices, or the data set's own ids.
  const std::size_t keys =
      queries != nullptr ? queries->size() : data_->size();
  if (keys == 0 || data_->empty()) {
    if (opt.mode == ResultMode::kHistogram) result.histogram.assign(keys, 0);
    st.total_seconds = total.seconds();
    return result;
  }

  GridDeviceView grid = dev_->view();
  gpu::DeviceBuffer<double> qbuf;
  if (queries != nullptr) {
    // Per-call query upload into the shared arena (released on return).
    qbuf = gpu::DeviceBuffer<double>(arena_, queries->raw().size());
    std::memcpy(qbuf.data(), queries->raw().data(),
                queries->raw().size() * sizeof(double));
    grid.qpoints = qbuf.data();
    grid.qn = queries->size();
  }

  // Cell-major: the grouped kernel over a group adjacency. A join groups
  // its queries by their data-grid home cell and resolves each group's
  // candidate ranges once per call. A self-join's groups are the grid's
  // own cells, so its adjacency is query-independent — resolved once per
  // unicomp flag, it amortises across the calls. Either build carries the
  // index-search work (once per group rather than once per point); every
  // call reports it, cached or not, so the counters depend only on the
  // data, the queries, eps and the options.
  std::unique_ptr<GroupAdjacency> per_call;
  const GroupAdjacency* adjacency = nullptr;
  if (layout_ == GridLayout::kCellMajor) {
    if (queries != nullptr) {
      per_call = std::make_unique<GroupAdjacency>(upload_group_adjacency(
          arena_, build_group_adjacency(index_,
                                        sorted_query_groups(index_, *queries),
                                        /*unicomp=*/false)));
      adjacency = per_call.get();
      st.query_groups = adjacency->num_groups();
      st.adjacency_seconds = adjacency->build_seconds;
    } else {
      std::lock_guard<std::mutex> lock(cache_mu_);
      std::unique_ptr<GroupAdjacency>& cached =
          self_adjacency_[unicomp ? 1 : 0];
      if (cached == nullptr) {
        cached = std::make_unique<GroupAdjacency>(upload_group_adjacency(
            arena_,
            build_group_adjacency(
                index_,
                cell_groups(index_, 0,
                            static_cast<std::uint32_t>(
                                index_.num_nonempty_cells())),
                unicomp)));
        st.adjacency_seconds = cached->build_seconds;
      }
      adjacency = cached.get();
    }
    st.metrics.cells_examined += adjacency->cells_examined;
    st.metrics.cells_nonempty += adjacency->cells_nonempty;
  }

  ResultRequest req;
  req.mode = opt.mode;
  req.sink = opt.sink;
  req.histogram_keys = keys;
  req.control = opt.control;
  AtomicWork work;
  Timer phase;
  BatchPipeline pipeline(arena_, device_, opt);
  PipelineOutput out =
      adjacency != nullptr
          ? pipeline.run_groups(req, grid, *adjacency, &work, &st.batch)
          : pipeline.run(req, grid, unicomp, &work, &st.batch);
  st.join_seconds = phase.seconds();
  result.pairs = std::move(out.pairs);
  result.total_pairs = out.total_pairs;
  result.histogram = std::move(out.histogram);
  work.add_to(st.metrics);
  st.metrics.kernel_seconds = st.batch.kernel_seconds;
  st.total_seconds = total.seconds();
  return result;
}

}  // namespace sj
