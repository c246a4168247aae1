// The batching scheme (Section V-A), as exact two-pass output.
//
// Low-dimensional self-joins produce result sets that can exceed the
// GPU's global memory, so the output is produced in >= 3 batches (the
// paper's minimum) whose device->host transfers overlap later kernels.
// The paper sizes the batches from a sampled estimate of the result size
// and key/value-sorts each batch before transferring it; this
// implementation sizes them EXACTLY instead:
//
//   1. one count launch records every emitting unit's pair count — a
//      query id (point-centric kernel) or a group position (grouped
//      kernel: a point slot in a self-join, a query position in a join);
//   2. an exclusive prefix sum turns the counts into output offsets;
//   3. batches are contiguous unit ranges cut from those exact counts
//      (plan_batches below);
//   4. each batch's fill launch writes every unit's pairs at the unit's
//      own offset, in scan order. The grouped kernel's fills read the
//      match masks the count pass stored (one bit per candidate), so
//      each candidate distance is computed once; where the masks do not
//      fit the device, and in the point-centric kernel, the fills scan
//      again.
//
// No buffer can overflow and no batch needs a sort: the output — each
// unit's pairs contiguous in scan order, units in ascending order — is the
// same bytes for any batch count, buffer size or stream count. The
// executor is BatchPipeline (batch_pipeline.hpp).
#pragma once

#include <cstdint>
#include <vector>

#include "common/cancel.hpp"
#include "common/result.hpp"

namespace sj {

/// Cut `units` emitting units into contiguous batches from their exact
/// output offsets (`offsets`: the exclusive prefix sum of the per-unit
/// pair counts, units + 1 entries). Yields at least min(min_batches,
/// units) batches with balanced pair counts, none holding more than
/// `buffer_pairs` pairs. Returns the batch boundaries (batches + 1
/// entries). Throws gpu::DeviceOutOfMemory naming the batch when a single
/// unit's pairs alone exceed `buffer_pairs` (no cut can help it).
std::vector<std::uint32_t> plan_batches(const std::uint64_t* offsets,
                                        std::uint32_t units,
                                        std::size_t min_batches,
                                        std::uint64_t buffer_pairs);

/// What a pipeline run should materialise (ResultMode,
/// common/result.hpp).
///
///   kPairs     — the full ResultSet: every batch lands at its final
///                offset of the output vector.
///   kCountOnly — total pair count only: no count pass, no result
///                buffers, no transfers.
///   kHistogram — per-key neighbour counts into one O(n) device array
///                (`histogram_keys` entries, keys as emitted by the
///                kernel: original ids for the self-join, query indices
///                for the join); same short-circuits as kCountOnly.
///   kSink      — identical count/fill/transfer path to kPairs, but each
///                batch, once landed in a host staging buffer, is handed
///                to `sink` in ascending batch order instead of being
///                kept — peak host memory drops from O(pairs) to
///                O(batch). The callback is invoked serially, and batch
///                b's call returns before batch b+1 launches; the
///                concatenation of its batches is byte-identical to the
///                kPairs output.
struct ResultRequest {
  ResultMode mode = ResultMode::kPairs;
  PairSink sink;                     ///< consumer for kSink
  std::uint64_t histogram_keys = 0;  ///< key-space size for kHistogram

  /// Optional deadline/cancellation control (common/cancel.hpp),
  /// non-owning. The pipeline polls it at its checkpoint seams (entry,
  /// pre-launch, pre-transfer); a tripped control aborts the run with the
  /// typed exec:: error.
  const exec::ExecControl* control = nullptr;
};

/// What a pipeline run produced: `total_pairs` is exact in every mode;
/// `pairs` is non-empty only for kPairs, `histogram` only for kHistogram.
struct PipelineOutput {
  ResultSet pairs;
  std::uint64_t total_pairs = 0;
  std::vector<std::uint32_t> histogram;
};

struct BatchRunStats {
  std::size_t batches_run = 0;       // fill (or count/histogram) batches
  std::size_t retries = 0;           // ranges re-run after transient faults
  std::size_t batches_split_on_oom = 0;  // halved after ResourceExhausted
  double count_seconds = 0.0;        // exact sizing: count launch, prefix
                                     // sum and batch cut
  double kernel_seconds = 0.0;       // count and fill launches
  double sort_seconds = 0.0;         // always 0: batches are not sorted
                                     // (kept for existing stats readers)
  double assembly_seconds = 0.0;     // landing copies and sink calls
  std::uint64_t bytes_to_host = 0;   // result transfer volume
  double modeled_transfer_seconds = 0.0;  // bytes / PCIe bandwidth
};

/// How the pipeline responds to fault::TransientDeviceError: re-run the
/// range up to `retries` times with exponential backoff starting at
/// `backoff_ms` (doubling per attempt, capped at 32x). Retries never
/// change output — failed operations have no side effects (the injection
/// hooks and the gpusim seams fail BEFORE mutating anything) and every
/// unit's output offset is fixed before its fill runs.
struct RetryPolicy {
  int retries = 6;          ///< max re-runs per range (0 = fail fast)
  double backoff_ms = 0.5;  ///< initial backoff; doubles per attempt
};

}  // namespace sj
