// Batch pipeline — the Section V-A batching scheme as exact two-pass
// output (see batcher.hpp for the scheme itself).
//
//   count launch (per-unit pair counts, and for the grouped kernel the
//   match masks) -> exclusive prefix sum (offsets) -> batches cut from
//   the exact counts -> per batch, in ascending order: fill launch into
//   one of `streams` rotating device result buffers, then one async copy
//   that lands the batch at its final offset of the output (pairs mode)
//   or in a host staging buffer handed to the sink (sink mode).
//
// The match masks (ResultBufferView::masks, one bit per candidate) let
// the grouped fills write their pairs without computing a distance. They
// are allocated once per run, like the offsets, and only when the arena
// still holds `streams` buffers of max_buffer_pairs and the work-item
// reserve beside them, so they never change the batch plan; otherwise
// the fills scan their candidates again.
//
// Fill launches run one at a time, in batch order — each gpu::launch
// already spans every host core — while earlier batches' copies drain on
// the transfer stream; a buffer is refilled only once its previous copy
// landed. Every unit's offset (and mask) is fixed before any fill runs,
// so a range re-run after a transient fault, or halved after resource
// exhaustion, writes exactly the bytes the first attempt would have: the
// output is deterministic by construction.
//
// Count-only and histogram runs need no offsets: they skip the count
// pass and the buffers and run min_batches equal unit ranges.
#pragma once

#include <cstdint>
#include <exception>
#include <string>

#include "core/batcher.hpp"
#include "core/device_view.hpp"
#include "core/work_counters.hpp"
#include "gpusim/arena.hpp"
#include "gpusim/device.hpp"

namespace sj {

struct GroupAdjacency;  // kernels.hpp

struct PipelineConfig {
  int streams = 3;  ///< rotating device result buffers (copy overlap)
  int block_size = 256;
  std::size_t min_batches = 3;  ///< the paper's minimum batch count
  /// Cap on one device result buffer (pairs); the arena's free memory
  /// caps it further.
  std::uint64_t max_buffer_pairs = 1ULL << 24;
  RetryPolicy retry;   ///< transient-fault response (batcher.hpp)
  int device_id = -1;  ///< simulated device id (gpu_shard); -1 = unsharded
};

/// The pipeline configuration a GPU engine's options describe (every
/// engine option struct carries these batching members).
template <typename Options>
PipelineConfig pipeline_config(const Options& opt, int device_id = -1) {
  PipelineConfig config;
  config.streams = opt.num_streams;
  config.block_size = opt.block_size;
  config.min_batches = opt.min_batches;
  config.max_buffer_pairs = opt.max_buffer_pairs;
  config.retry = opt.retry;
  config.device_id = device_id;
  return config;
}

/// Rebuild `e` with `context + ": "` prefixed to its message, preserving
/// the sj::fault taxonomy type (and DeviceOutOfMemory's byte counts /
/// DeviceLost's device id) so callers can still dispatch on it. Unknown
/// exception types degrade to std::runtime_error. Shared by the pipeline
/// (batch context) and the shard engine (shard context — annotations
/// compose, shard prefix outermost).
std::exception_ptr annotate_exception(std::exception_ptr e,
                                      const std::string& context);

/// The two-pass executor, in two modes: the paper's point-centric kernel
/// (run, layout=legacy) and the grouped kernel (run_groups, cell-major).
/// One pipeline may serve many runs (gpu_shard re-arms one per device
/// across its chunklets), one run at a time.
class BatchPipeline {
 public:
  BatchPipeline(gpu::GlobalMemoryArena& arena, const gpu::DeviceSpec& spec,
                const PipelineConfig& config);

  /// Point-centric self-join (or join, when the view carries an external
  /// query set) over a legacy-layout grid: the units are the query ids.
  PipelineOutput run(const ResultRequest& req, const GridDeviceView& grid,
                     bool unicomp, AtomicWork* work, BatchRunStats* stats);

  /// Grouped join over a cell-major grid: the units are the adjacency's
  /// group positions (build_group_adjacency), each scanning its group's
  /// precomputed candidate ranges. A self-join's groups are the grid's
  /// non-empty cells in identity order (positions are point slots); a
  /// join's are its queries sorted by home cell, read from the view's
  /// external query set. A batch's position range may cut a group, so
  /// one oversized group splits across batches.
  PipelineOutput run_groups(const ResultRequest& req,
                            const GridDeviceView& grid,
                            const GroupAdjacency& adjacency,
                            AtomicWork* work, BatchRunStats* stats);

 private:
  template <typename Mode>
  PipelineOutput run_impl(const Mode& mode, const ResultRequest& req,
                          AtomicWork* work, BatchRunStats* stats);

  template <typename Body>
  void for_each_range(const std::vector<std::uint32_t>& bounds,
                      const std::string& what, const char* unit_name,
                      BatchRunStats& acc, Body&& body);

  gpu::GlobalMemoryArena& arena_;
  gpu::DeviceSpec spec_;
  PipelineConfig config_;
  /// 1-based range start ordinal, cumulative over every run on this
  /// pipeline — the trigger for targeted `device:shard<S>@batch<B>` loss
  /// injection. A pipeline re-armed across many chunklets (gpu_shard's
  /// stealing scheduler) counts the DEVICE's batches, not one chunklet's,
  /// matching the spec grammar's per-device wording.
  std::uint64_t batch_ordinal_ = 0;
};

}  // namespace sj
