// The self-join GPU kernels.
//
// self_join_thread() is the per-thread body of GPUSELFJOINGLOBAL
// (Algorithm 1) generalised to n dimensions: the paper's nested loops over
// filtered per-dimension ranges (lines 8-9) become an odometer over the
// mask-filtered adjacent coordinates. With `unicomp` set it instead
// follows the UNICOMP access pattern (Algorithm 2): the home cell is
// evaluated in one direction, and for every dimension d whose cell
// coordinate is odd, the neighbour cells that differ in d (free in
// dimensions < d, pinned to the home coordinates in dimensions > d) are
// evaluated emitting BOTH ordered pairs. It runs on the legacy layout
// (candidates are gathered through A by GridDeviceView's candidate
// helpers).
//
// grouped_scan_thread() is the CELL-CENTRIC kernel over the cell-major
// layout, shared by the self-join and the query/data join — "the
// self-join problem is a special case of a join" (Section II): its query
// groups are the grid's own non-empty cells. One work unit is a (group,
// position-subrange) item; the group's candidate slot ranges — including
// the UNICOMP odd/even pattern, which each range carries in its `both`
// flag — are resolved ONCE per join on the host, from the GridIndex
// (build_group_adjacency), and all of the item's points then scan those
// contiguous slot ranges with a blocked, vectorisable inner loop. This
// amortises the per-point binary searches of Algorithm 1 across the
// group and removes the A[] gather from the distance loop. Its count pass
// can store each block's match mask, and a fill given those masks
// writes its pairs without computing a distance (ResultBufferView). The
// masks' layout (one MaskSpan per group) is laid out with the adjacency
// when it is uploaded (upload_group_adjacency), once per adjacency.
//
// brute_force_thread() is the GPU brute-force nested-loop kernel used as
// the paper's index-free baseline (Section VI-B).
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/dataset.hpp"
#include "common/result.hpp"
#include "core/device_view.hpp"
#include "core/grid_index.hpp"
#include "core/work_counters.hpp"
#include "gpusim/atomic.hpp"
#include "gpusim/cachesim.hpp"
#include "gpusim/kernel.hpp"

namespace sj {

/// One contiguous slot range of cell-major candidates; `both` (0/1) marks
/// UNICOMP neighbour ranges whose finds emit both ordered pairs.
struct CandidateRange {
  std::uint32_t begin;
  std::uint32_t end;  // one past the last slot
  std::uint32_t both;
};

/// Candidates per block of the grouped kernel's distance loop, and bits
/// per match-mask word.
inline constexpr int kSoaScanBlock = 16;

/// One query group's share of the match masks: unit s of the group owns
/// the `blocks` words from base + (s - first) · blocks, one per
/// kSoaScanBlock-candidate block of each of the group's candidate ranges,
/// in scan order. Every unit of a group scans the same ranges, so the
/// layout follows from the adjacency before any distance is computed.
struct MaskSpan {
  std::uint64_t base;
  std::uint32_t first;   ///< the group's first position
  std::uint32_t blocks;  ///< words per unit
};

/// Match-mask words one unit fills scanning `r`: one per block.
inline std::uint32_t mask_words(const CandidateRange& r) {
  return (r.end - r.begin + kSoaScanBlock - 1) / kSoaScanBlock;
}

/// Where results go. Every kernel walks EMITTING UNITS — a query id
/// (point-centric kernel) or a group position (grouped kernel: a point
/// slot in a self-join, a sorted query position in a join) — and one
/// struct covers every pass:
///
///   count pass — `unit_counts` set: each unit's pair count is recorded
///                at its unit index (the exact-sizing pass of the
///                two-pass output). With `masks` set (grouped kernel
///                only), the pass also stores each block's match mask.
///   fill pass  — `out` + `offsets` set: unit u's pairs are written in
///                scan order to out[offsets[u] - base ..), where
///                `offsets` is the exclusive prefix sum of the count pass
///                and `base` the first offset `out` holds. No atomics, no
///                overflow: every unit's slice is sized exactly. With
///                `masks` set, the fill reads the count pass's masks and
///                orig[] instead of scanning: no coordinate load, no
///                distance. Without, it scans again.
///   count_only — `cursor` set: each unit adds its count to the cursor.
///   histogram  — `counts` set (per-ORIGINAL-id neighbour counters,
///                incremented with relaxed atomics): no buffer traffic.
struct ResultBufferView {
  Pair* out = nullptr;
  const std::uint64_t* offsets = nullptr;
  std::uint64_t base = 0;
  std::uint64_t* unit_counts = nullptr;
  gpu::DeviceCounter* cursor = nullptr;
  std::uint32_t* counts = nullptr;
  /// Match masks, one word per (unit, candidate block): bit v set when
  /// lane v lies within eps. A block the prune skips, and the lanes past
  /// a ragged block end, stay 0. Laid out by `mask_spans` (one per group,
  /// GroupAdjacency::mask_spans).
  std::uint16_t* masks = nullptr;
  const MaskSpan* mask_spans = nullptr;
};

struct SelfJoinKernelParams {
  GridDeviceView grid;
  /// The launch processes query ids [first_query, first_query +
  /// num_queries) — a batch's contiguous unit range.
  std::uint64_t first_query = 0;
  std::uint64_t num_queries = 0;
  ResultBufferView result;
  bool unicomp = false;
  AtomicWork* work = nullptr;      // aggregated algorithmic work counters
  gpu::CacheSim* cache = nullptr;  // L1 model; only valid with serial exec
};

void self_join_thread(const gpu::ThreadCtx& ctx,
                      const SelfJoinKernelParams& p);

/// One grouped work item: positions [begin, end) of query group `group`.
/// Items cover whole groups except where a batch's position range cuts a
/// group, which narrows the item to the batch's positions.
struct GroupWorkItem {
  std::uint32_t group;
  std::uint32_t begin;
  std::uint32_t end;
};

/// The builder's input: which emitting units form each query group, and
/// each group's home cell.
struct QueryGroups {
  /// Position -> query id. Empty means the identity: the positions are
  /// the cell-major slots of the indexed set itself (the self-join).
  std::vector<std::uint32_t> query_order;
  /// Group g covers positions [group_offsets[g], group_offsets[g+1]).
  std::vector<std::uint32_t> group_offsets;
  /// Linear grid id of each group's home cell.
  std::vector<std::uint64_t> home_cells;
  /// Wall time spent forming the groups (the join's sort), carried into
  /// the adjacency's build time.
  double seconds = 0.0;
};

/// The self-join's groups: non-empty cells [cell_begin, cell_end) of the
/// index in identity order — group g is cell cell_begin + g, its
/// positions are the cell's slots (of the cell-major image) and its keys
/// come from orig[].
QueryGroups cell_groups(const GridIndex& index, std::uint32_t cell_begin,
                        std::uint32_t cell_end);

/// The join's groups: `queries` radix-sorted by (home cell in the index's
/// grid, id), one group per distinct home cell. The home cell need not be
/// non-empty in the data grid: groups are keyed by coordinates, not by B
/// entries.
QueryGroups sorted_query_groups(const GridIndex& index,
                                const Dataset& queries);

/// The group adjacency on the host, resolved ONCE per join: group g's
/// units are positions [group_offsets[g], group_offsets[g+1]) of
/// query_order (the identity when empty) and its candidate slot ranges
/// are ranges[offsets[g], offsets[g+1]). This is what the shard planner
/// slices per chunklet, and what upload_group_adjacency ships whole.
struct GroupAdjacencyHost {
  std::vector<std::uint32_t> query_order;    // empty = identity
  std::vector<std::uint32_t> group_offsets;  // num_groups + 1 positions
  std::vector<CandidateRange> ranges;
  std::vector<std::uint64_t> offsets;  // num_groups + 1 entries
  /// Per-group candidate-pair counts (group population x candidate
  /// population, both-orders ranges twice): the shard planner's weights.
  std::vector<std::uint64_t> weights;
  /// Index-search work the build performed — the grouped equivalent of
  /// the point-centric kernel's cell counters (amortised: once per group
  /// instead of once per point). Folded into the join metrics.
  std::uint64_t cells_examined = 0;
  std::uint64_t cells_nonempty = 0;
  /// Wall time of the build, the grouping included.
  double build_seconds = 0.0;

  std::size_t num_groups() const {
    return group_offsets.empty() ? 0 : group_offsets.size() - 1;
  }
};

/// Resolve every group's candidate slot ranges from the index with one
/// enumeration pass per group (odometer or, with `unicomp`, the UNICOMP
/// pattern) over the mask-filtered neighbourhood, and one
/// GridIndex::find_cell per candidate cell: a load from the index's cell
/// table, or a binary search of B when it keeps none. Fixed-size chunks
/// of groups resolve across the OpenMP team; the result is byte-identical
/// for any thread count. Candidate ranges are in the slot coordinates of
/// the index's cell-major image (A-order).
GroupAdjacencyHost build_group_adjacency(const GridIndex& index,
                                         QueryGroups groups, bool unicomp);

/// The device-resident group adjacency the grouped kernel reads. The
/// group offsets stay on the host: the pipeline cuts work items from them.
/// The match-mask layout travels with it: one MaskSpan per group (16 B),
/// laid out group by group, and the words all units own together. It
/// depends only on the ranges, so a cached adjacency (a prepared
/// self-join's) lays it out once for every run.
struct GroupAdjacency {
  gpu::DeviceBuffer<std::uint32_t> query_order;  // empty = identity
  std::vector<std::uint32_t> group_offsets;
  gpu::DeviceBuffer<CandidateRange> ranges;
  gpu::DeviceBuffer<std::uint64_t> offsets;
  gpu::DeviceBuffer<MaskSpan> mask_spans;
  std::uint64_t num_mask_words = 0;
  std::uint64_t cells_examined = 0;
  std::uint64_t cells_nonempty = 0;
  double build_seconds = 0.0;

  std::size_t num_groups() const {
    return group_offsets.empty() ? 0 : group_offsets.size() - 1;
  }
};

/// Ship a host adjacency into `arena`, with its match-mask layout.
GroupAdjacency upload_group_adjacency(gpu::GlobalMemoryArena& arena,
                                      GroupAdjacencyHost host);

struct GroupedScanParams {
  GridDeviceView grid;  ///< cell-major; qpoints/qn set for a join
  /// Position -> query id (a join's sorted order); null = identity.
  const std::uint32_t* query_order = nullptr;
  const GroupWorkItem* items = nullptr;
  std::uint64_t num_items = 0;
  const CandidateRange* ranges = nullptr;
  const std::uint64_t* range_offsets = nullptr;
  ResultBufferView result;
  AtomicWork* work = nullptr;
  gpu::CacheSim* cache = nullptr;  // L1 model; only valid with serial exec
};

/// The grouped kernel: one work unit is a query-group subrange; each of
/// its units reads its point and key through GridDeviceView::query_point /
/// query_id and scans the group's precomputed contiguous candidate ranges
/// with the blocked distance loop — or, in a fill given the count pass's
/// match masks, reads only its key, its masks and orig[].
void grouped_scan_thread(const gpu::ThreadCtx& ctx,
                         const GroupedScanParams& p);

struct BruteForceKernelParams {
  const double* points = nullptr;
  std::uint64_t n = 0;
  int dim = 0;
  double eps = 0.0;
  ResultBufferView result;
  AtomicWork* work = nullptr;
};

void brute_force_thread(const gpu::ThreadCtx& ctx,
                        const BruteForceKernelParams& p);

}  // namespace sj
