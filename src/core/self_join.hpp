// GPU-SJ: the paper's GPU self-join algorithm — public API.
//
// Combines the grid index (Section IV), the GPUSELFJOINGLOBAL kernel
// (Algorithm 1), the UNICOMP duplicate-search-removal optimisation
// (Section V-B) and the result-set batching scheme (Section V-A), the
// latter sized exactly by a count pass (core/batcher.hpp).
//
//   sj::GpuSelfJoin join;                      // defaults: UNICOMP on,
//   auto r = join.run(dataset, eps);           // 256-thread blocks, >= 3
//   use(r.pairs); inspect(r.stats);            // batches over 3 streams
#pragma once

#include <cstdint>

#include "common/dataset.hpp"
#include "common/result.hpp"
#include "core/batcher.hpp"
#include "core/device_view.hpp"
#include "gpusim/device.hpp"
#include "gpusim/metrics.hpp"

namespace sj {

struct GpuSelfJoinOptions {
  /// Enable the UNICOMP uni-directional comparison pattern (Section V-B).
  bool unicomp = true;

  /// Data layout + kernel shape. kCellMajor (the default) reorders the
  /// dataset cell-by-cell at upload time and runs the grouped kernel over
  /// the grid's own cells (adjacency resolved once per cell, contiguous
  /// SoA candidate scans);
  /// kLegacy keeps the paper's point-centric kernel over the original
  /// order, selectable for ablation and parity checks.
  GridLayout layout = GridLayout::kCellMajor;

  /// Threads per block ("configured to run with 256 threads per block",
  /// Section VI-B).
  int block_size = 256;

  /// "In all experiments, the minimum number of batches is set to 3"
  /// (Section V-A).
  std::size_t min_batches = 3;

  /// Rotating device result buffers: each batch's transfer to the host
  /// overlaps the fills of the next num_streams - 1 batches.
  int num_streams = 3;

  /// Hard cap on one device result buffer (pairs); the effective size
  /// also respects the device's free global memory.
  std::uint64_t max_buffer_pairs = 1ULL << 24;

  /// Collect Table II-style metrics (occupancy, unified-cache model).
  /// Runs one extra serial metrics pass after the join — results are
  /// unaffected, and its time is reported apart (metrics_seconds), not in
  /// total_seconds.
  bool collect_metrics = false;

  /// What to materialise (common/result.hpp). Non-pairs modes skip the
  /// count pass and all pair-buffer allocation; kSink streams batches
  /// through `sink`.
  ResultMode mode = ResultMode::kPairs;
  PairSink sink;

  /// Device resource model (defaults to the paper's TITAN X Pascal).
  gpu::DeviceSpec device = gpu::DeviceSpec::titan_x_pascal();

  /// Transient-fault response: batches hit by a TransientDeviceError are
  /// re-run up to retry.retries times with exponential backoff (see
  /// RetryPolicy, batcher.hpp). Retries never change the output.
  RetryPolicy retry;

  /// Optional deadline/cancellation control (common/cancel.hpp),
  /// non-owning; polled at the pipeline's checkpoint seams. A tripped
  /// control aborts the run with a typed exec:: error.
  const exec::ExecControl* control = nullptr;
};

struct SelfJoinStats {
  double total_seconds = 0.0;
  double index_build_seconds = 0.0;
  double upload_seconds = 0.0;
  double join_seconds = 0.0;  // count pass, batched fills and transfers
  /// Adjacency build (cell-major): 0 when a prepared self-join reused the
  /// cached adjacency; summed over the chunklets on gpu_shard.
  double adjacency_seconds = 0.0;
  /// The serial Table II replay (collect_metrics), outside total_seconds;
  /// 0 when the replay is off.
  double metrics_seconds = 0.0;

  BatchRunStats batch;

  std::size_t grid_nonempty_cells = 0;
  std::uint64_t grid_total_cells = 0;

  /// Work counters aggregated over every batch kernel; in metrics mode
  /// also the cache-model counters and modelled bandwidth.
  gpu::KernelMetrics metrics;

  /// Theoretical occupancy of the launched kernel (register model, see
  /// gpusim/occupancy.hpp).
  double occupancy = 0.0;
  int regs_per_thread = 0;
};

struct SelfJoinResult {
  ResultSet pairs;  // repo-wide pair convention, see api/backend.hpp
  /// Exact pair count in every result mode; histogram only in kHistogram.
  std::uint64_t total_pairs = 0;
  std::vector<std::uint32_t> histogram;
  SelfJoinStats stats;
};

class GpuSelfJoin {
 public:
  explicit GpuSelfJoin(GpuSelfJoinOptions opt = {});

  /// Compute the full self-join of `d` with distance threshold eps >= 0:
  /// a single-use PreparedJoin (core/prepared.hpp) in opt.layout.
  SelfJoinResult run(const Dataset& d, double eps) const;

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
                       const GpuSelfJoinOptions& opt, SelfJoinStats& st);

}  // namespace sj
