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
#pragma once

#include "common/dataset.hpp"
#include "common/result.hpp"
#include "core/self_join.hpp"

namespace sj {

struct GpuJoinOptions {
  GridLayout layout = GridLayout::kCellMajor;
  int block_size = 256;
  std::size_t min_batches = 3;
  int num_streams = 3;
  std::uint64_t max_buffer_pairs = 1ULL << 24;
  /// Result mode (common/result.hpp); non-pairs modes skip the count pass
  /// and the pair buffers, kSink streams batches through `sink`.
  /// Histogram keys are QUERY indices.
  ResultMode mode = ResultMode::kPairs;
  PairSink sink;
  gpu::DeviceSpec device = gpu::DeviceSpec::titan_x_pascal();
  /// Transient-fault retry policy (batcher.hpp).
  RetryPolicy retry;
  /// Optional deadline/cancellation control (common/cancel.hpp),
  /// non-owning; polled at the pipeline's checkpoint seams.
  const exec::ExecControl* control = nullptr;
};

struct GpuJoinStats {
  double total_seconds = 0.0;
  double index_build_seconds = 0.0;
  /// Distinct data-grid home cells over the query set (cell-major layout
  /// only) — the number of adjacency resolutions the join amortises.
  std::uint64_t query_groups = 0;
  /// Wall time of the query grouping and adjacency build (cell-major).
  double adjacency_seconds = 0.0;
  BatchRunStats batch;
  gpu::KernelMetrics metrics;
};

struct GpuJoinResult {
  /// Pairs are (query index into A, data index into B).
  ResultSet pairs;
  /// Exact pair count in every result mode; per-query histogram only in
  /// kHistogram.
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
