// General epsilon join between two datasets — "the self-join problem is a
// special case of a join operation on two different sets of data points"
// (paper Section II). The inner set B is grid-indexed; each point of the
// outer set A searches its adjacent cells; the result pairs are
// (a_index, b_index) with dist(A[a], B[b]) <= eps.
//
// UNICOMP does not apply (its parity argument requires query and data
// cells to be the same set); the exact two-pass batching works exactly as
// in the self-join, with the queries as the emitting units.
//
// Two layouts for the INDEXED side, mirroring the self-join:
//   kCellMajor (default) — the data set is reordered cell-major at upload
//     and the queries are sorted and GROUPED by the data-grid cell they
//     fall into; each group's candidate slot ranges are resolved once
//     (build_group_adjacency — the builder and kernel the self-join runs
//     with the grid's own cells as its groups) and scanned contiguously;
//     batches are contiguous ranges of that sorted query order.
//   kLegacy — the paper's point-centric search: every query re-runs the
//     mask filtering and binary searches of B, candidates gathered
//     through A[]. Kept for ablation (bench/ablation_join.cpp).
//
// Since the self-join is a join, this header declares the types every GPU
// self-join and join shares: GpuJoinOptions (the batching settings of
// PipelineConfig plus layout, mode, device and control), which
// GpuSelfJoinOptions (core/self_join.hpp) extends with the self-join's
// two switches, and GpuJoinResult with one GpuJoinStats, which every
// engine returns — one-shot, prepared, session or sharded.
#pragma once

#include <cstdint>
#include <vector>

#include "common/cancel.hpp"
#include "common/dataset.hpp"
#include "common/result.hpp"
#include "core/batcher.hpp"
#include "core/device_view.hpp"
#include "gpusim/device.hpp"
#include "gpusim/metrics.hpp"

namespace sj {

struct GpuJoinOptions : PipelineConfig {
  /// Data layout + kernel shape. kCellMajor (the default) reorders the
  /// dataset cell-by-cell at upload time and runs the grouped kernel
  /// (adjacency resolved once per group, contiguous SoA candidate scans);
  /// kLegacy keeps the paper's point-centric kernel over the original
  /// order, selectable for ablation and parity checks.
  GridLayout layout = GridLayout::kCellMajor;

  /// What to materialise (common/result.hpp). Non-pairs modes skip the
  /// count pass and all pair-buffer allocation; kSink streams batches
  /// through `sink`. A join's histogram keys are QUERY indices, a
  /// self-join's original point ids.
  ResultMode mode = ResultMode::kPairs;
  PairSink sink;

  /// Device resource model (defaults to the paper's TITAN X Pascal).
  gpu::DeviceSpec device = gpu::DeviceSpec::titan_x_pascal();

  /// Optional deadline/cancellation control (common/cancel.hpp),
  /// non-owning; polled at the pipeline's checkpoint seams. A tripped
  /// control aborts the run with a typed exec:: error.
  const exec::ExecControl* control = nullptr;
};

/// What a GPU self-join or join measured. Each engine fills the fields it
/// has a phase for; the others read 0.
struct GpuJoinStats {
  double total_seconds = 0.0;
  /// Host index build: 0 when a prepared index is reused.
  double index_build_seconds = 0.0;
  /// Staging the data set's device image: 0 when a prepared image is
  /// reused.
  double upload_seconds = 0.0;
  double join_seconds = 0.0;  // count pass, batched fills and transfers
  /// Query grouping and adjacency build (cell-major): 0 when a prepared
  /// self-join reused the cached adjacency; summed over the chunklets of
  /// a gpu_shard self-join.
  double adjacency_seconds = 0.0;
  /// The serial Table II replay (a self-join's collect_metrics), outside
  /// total_seconds; 0 when the replay is off.
  double metrics_seconds = 0.0;

  BatchRunStats batch;

  std::size_t grid_nonempty_cells = 0;
  std::uint64_t grid_total_cells = 0;
  /// Distinct data-grid home cells over a join's query set (cell-major
  /// layout only) — the number of adjacency resolutions the join
  /// amortises.
  std::uint64_t query_groups = 0;

  /// Work counters aggregated over every batch kernel; in metrics mode
  /// also the cache-model counters and modelled bandwidth.
  gpu::KernelMetrics metrics;

  /// Theoretical occupancy of a self-join's kernel (register model, see
  /// gpusim/occupancy.hpp).
  double occupancy = 0.0;
  int regs_per_thread = 0;
};

struct GpuJoinResult {
  /// Pairs are (query index into A, data index into B) for a join, and
  /// ordered id pairs, self pairs included, for a self-join (repo-wide
  /// convention, see api/backend.hpp).
  ResultSet pairs;
  /// Exact pair count in every result mode; histogram only in kHistogram.
  std::uint64_t total_pairs = 0;
  std::vector<std::uint32_t> histogram;
  GpuJoinStats stats;
};

/// Epsilon join: every (a, b) with a in A, b in B, dist(a, b) <= eps.
/// Both datasets must share the same dimensionality. Runs a single-use
/// PreparedJoin (core/prepared.hpp) over `data` in opt.layout.
GpuJoinResult gpu_join(const Dataset& queries, const Dataset& data,
                       double eps, GpuJoinOptions opt = {});

}  // namespace sj
