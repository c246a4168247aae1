// GPU-SJ: the paper's GPU self-join algorithm — public API.
//
// Combines the grid index (Section IV), the GPUSELFJOINGLOBAL kernel
// (Algorithm 1), the UNICOMP duplicate-search-removal optimisation
// (Section V-B) and the result-set batching scheme (Section V-A), the
// latter sized exactly by a count pass (core/batcher.hpp).
//
// The self-join is a join of a data set with itself (core/join.hpp): its
// options extend GpuJoinOptions with the two self-join switches, and it
// returns the joins' GpuJoinResult.
//
//   sj::GpuSelfJoin join;                      // defaults: UNICOMP on,
//   auto r = join.run(dataset, eps);           // 256-thread blocks, >= 3
//   use(r.pairs); inspect(r.stats);            // batches over 3 streams
#pragma once

#include "common/dataset.hpp"
#include "core/device_view.hpp"
#include "core/join.hpp"

namespace sj {

struct GpuSelfJoinOptions : GpuJoinOptions {
  /// Enable the UNICOMP uni-directional comparison pattern (Section V-B).
  bool unicomp = true;

  /// Collect Table II-style metrics (occupancy, unified-cache model).
  /// Runs one extra serial metrics pass after the join — results are
  /// unaffected, and its time is reported apart (metrics_seconds), not in
  /// total_seconds.
  bool collect_metrics = false;
};

class GpuSelfJoin {
 public:
  /// Throws std::invalid_argument on an out-of-range batching setting
  /// (check_pipeline_config).
  explicit GpuSelfJoin(GpuSelfJoinOptions opt = {});

  /// Compute the full self-join of `d` with distance threshold eps >= 0:
  /// a single-use PreparedJoin (core/prepared.hpp) in opt.layout.
  GpuJoinResult run(const Dataset& d, double eps) const;

  const GpuSelfJoinOptions& options() const { return opt_; }

 private:
  GpuSelfJoinOptions opt_;
};

/// Shared tail of the GPU self-joins, run after their total_seconds is
/// taken: the occupancy model plus the optional serial metrics pass over
/// `grid`, the staged image of `index` (on the cell-major layout the
/// replay rebuilds the cells' adjacency from the index). The pass's wall
/// time goes to st.metrics_seconds. Used by PreparedJoin::self_join and
/// the shard engine.
void collect_gpu_stats(const GridIndex& index, const GridDeviceView& grid,
                       const GpuSelfJoinOptions& opt, GpuJoinStats& st);

}  // namespace sj
