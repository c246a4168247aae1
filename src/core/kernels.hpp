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
// evaluated emitting BOTH ordered pairs. It works on either data layout
// (candidates are resolved through GridDeviceView's candidate helpers).
//
// self_join_cells_thread() is the CELL-CENTRIC kernel over the cell-major
// layout: one work unit is a (cell, point-subrange) item, the adjacent-
// cell range list — including the UNICOMP odd/even pattern — is computed
// ONCE per item, and all of the item's points then scan those contiguous
// slot ranges with a blocked, vectorisable inner loop. This amortises the
// per-point binary searches of Algorithm 1 across the cell and removes
// the A[] gather from the distance loop.
//
// brute_force_thread() is the GPU brute-force nested-loop kernel used as
// the paper's index-free baseline (Section VI-B).
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/result.hpp"
#include "core/device_view.hpp"
#include "core/work_counters.hpp"
#include "gpusim/atomic.hpp"
#include "gpusim/cachesim.hpp"
#include "gpusim/kernel.hpp"

namespace sj {

/// Where results go. Every kernel walks EMITTING UNITS — a query id
/// (point-centric kernel), a point slot (cell-centric self-join) or a
/// query position (grouped join) — and one struct covers every pass:
///
///   count pass — `unit_counts` set: each unit's pair count is recorded
///                at its unit index (the exact-sizing pass of the
///                two-pass output; nothing else is written).
///   fill pass  — `out` + `offsets` set: unit u's pairs are written in
///                scan order to out[offsets[u] - base ..), where
///                `offsets` is the exclusive prefix sum of the count pass
///                and `base` the first offset `out` holds. No atomics, no
///                overflow: every unit's slice is sized exactly.
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
};

struct SelfJoinKernelParams {
  GridDeviceView grid;
  /// The launch processes query ids [first_query, first_query +
  /// num_queries) — a batch's contiguous unit range. On a cell-major grid
  /// these are point SLOTS, not original ids.
  std::uint64_t first_query = 0;
  std::uint64_t num_queries = 0;
  ResultBufferView result;
  bool unicomp = false;
  AtomicWork* work = nullptr;      // aggregated algorithmic work counters
  gpu::CacheSim* cache = nullptr;  // L1 model; only valid with serial exec
};

void self_join_thread(const gpu::ThreadCtx& ctx,
                      const SelfJoinKernelParams& p);

/// One cell-centric work item: the points in slots [begin, end) of the
/// non-empty cell with index `cell` into B/G. Items cover whole cells
/// (begin = G[cell].min, end = G[cell].max + 1) except where a batch's
/// slot range cuts a cell, which narrows the item to the batch's slots.
struct CellWorkItem {
  std::uint32_t cell;
  std::uint32_t begin;
  std::uint32_t end;
};

/// One contiguous slot range of cell-major candidates; `both` (0/1) marks
/// UNICOMP neighbour ranges whose finds emit both ordered pairs.
struct CandidateRange {
  std::uint32_t begin;
  std::uint32_t end;  // one past the last slot
  std::uint32_t both;
};

/// The per-cell adjacency, resolved ONCE per join: cell i's candidate
/// slot ranges are ranges[offsets[i], offsets[i+1]). Shared by the count
/// pass and every fill launch, so no launch repeats the odometer + binary
/// searches of B.
struct CellAdjacency {
  gpu::DeviceBuffer<CandidateRange> ranges;
  gpu::DeviceBuffer<std::uint64_t> offsets;  // b_size + 1 entries

  /// Index-search work the build performed — the cell-mode equivalent of
  /// the point-centric kernel's cell counters (amortised: once per cell
  /// instead of once per point). Folded into the join metrics.
  std::uint64_t cells_examined = 0;
  std::uint64_t cells_nonempty = 0;
};

/// Host-resident form of CellAdjacency: the same CSR and work counters as
/// plain vectors, with no device allocation, plus the per-cell work
/// weights. This is what the shard planner slices per device — each shard
/// uploads only its own cells' remapped ranges — and what
/// build_cell_adjacency uploads whole.
struct CellAdjacencyHost {
  std::vector<CandidateRange> ranges;
  std::vector<std::uint64_t> offsets;  // b_size + 1 entries
  /// Per-cell candidate-pair counts (cell population x candidate
  /// population, both-orders ranges twice).
  std::vector<std::uint64_t> weights;
  std::uint64_t cells_examined = 0;
  std::uint64_t cells_nonempty = 0;
};

/// Build the adjacency of every non-empty cell of a cell-major grid on
/// the host with one enumeration pass (odometer or UNICOMP pattern +
/// find_cell each).
CellAdjacencyHost build_cell_adjacency_host(const GridDeviceView& grid,
                                            bool unicomp);

/// build_cell_adjacency_host restricted to cells [cell_begin, cell_end):
/// offsets/weights are indexed relative to cell_begin (offsets[0] == 0);
/// candidate ranges stay in GLOBAL slot coordinates. This is the
/// per-device form: each gpu_shard device resolves only its own cells'
/// adjacency, so the build parallelises across shards instead of sitting
/// in the unsharded common phase.
CellAdjacencyHost build_cell_adjacency_span(const GridDeviceView& grid,
                                            bool unicomp,
                                            std::uint32_t cell_begin,
                                            std::uint32_t cell_end);

/// build_cell_adjacency_host() + upload into `arena` — the single-device
/// form PreparedJoin::self_join consumes.
CellAdjacency build_cell_adjacency(gpu::GlobalMemoryArena& arena,
                                   const GridDeviceView& grid, bool unicomp);

struct CellJoinKernelParams {
  GridDeviceView grid;  ///< must be cell-major
  const CellWorkItem* items = nullptr;
  std::uint64_t num_items = 0;
  /// Precomputed adjacency (build_cell_adjacency). When null the kernel
  /// enumerates each item's neighbourhood inline — the standalone mode
  /// the serial metrics pass uses, which also produces the Table II cell
  /// counters.
  const CandidateRange* ranges = nullptr;
  const std::uint64_t* range_offsets = nullptr;
  ResultBufferView result;
  bool unicomp = false;
  AtomicWork* work = nullptr;
  gpu::CacheSim* cache = nullptr;  // L1 model; only valid with serial exec
};

void self_join_cells_thread(const gpu::ThreadCtx& ctx,
                            const CellJoinKernelParams& p);

/// The query/data join analogue of CellAdjacency: queries are sorted by
/// the DATA grid cell they fall into, queries sharing a home cell form a
/// group, and each group's candidate slot ranges in the cell-major data
/// layout are resolved ONCE (the home cell need not be non-empty in the
/// data grid — groups are keyed by coordinates, not by B entries). Shared
/// by the shard planner (weights) and every kernel launch.
struct JoinAdjacency {
  /// All query ids, sorted by (home cell, id); group g covers
  /// query_order[group_offsets[g], group_offsets[g+1]).
  gpu::DeviceBuffer<std::uint32_t> query_order;
  std::vector<std::uint32_t> group_offsets;  // num_groups + 1 entries

  gpu::DeviceBuffer<CandidateRange> ranges;
  gpu::DeviceBuffer<std::uint64_t> offsets;  // num_groups + 1 entries

  std::uint64_t cells_examined = 0;
  std::uint64_t cells_nonempty = 0;

  std::size_t num_groups() const {
    return group_offsets.empty() ? 0 : group_offsets.size() - 1;
  }
};

/// Host-resident form of JoinAdjacency (see CellAdjacencyHost): what the
/// shard planner partitions into contiguous group ranges.
struct JoinAdjacencyHost {
  std::vector<std::uint32_t> query_order;
  std::vector<std::uint32_t> group_offsets;  // num_groups + 1 entries
  std::vector<CandidateRange> ranges;
  std::vector<std::uint64_t> offsets;  // num_groups + 1 entries
  std::vector<std::uint64_t> weights;
  std::uint64_t cells_examined = 0;
  std::uint64_t cells_nonempty = 0;

  std::size_t num_groups() const {
    return group_offsets.empty() ? 0 : group_offsets.size() - 1;
  }
};

/// Build the query-group adjacency for a query/data join on the host:
/// `grid` must be a cell-major view of the indexed data with qpoints/qn
/// describing the external query set.
JoinAdjacencyHost build_join_adjacency_host(const GridDeviceView& grid);

/// build_join_adjacency_host() + upload into `arena` — the single-device
/// form PreparedJoin::run consumes.
JoinAdjacency build_join_adjacency(gpu::GlobalMemoryArena& arena,
                                   const GridDeviceView& grid);

struct JoinCellsKernelParams {
  GridDeviceView grid;  ///< cell-major data side, qpoints/qn set
  const std::uint32_t* query_order = nullptr;
  /// Work items: `cell` is a GROUP index into range_offsets, [begin, end)
  /// a position range of query_order.
  const CellWorkItem* items = nullptr;
  std::uint64_t num_items = 0;
  const CandidateRange* ranges = nullptr;
  const std::uint64_t* range_offsets = nullptr;
  ResultBufferView result;
  AtomicWork* work = nullptr;
  gpu::CacheSim* cache = nullptr;  // L1 model; only valid with serial exec
};

/// Cell-centric query/data join kernel: one work unit is a query group
/// subrange; all of its queries scan the group's precomputed contiguous
/// candidate ranges with the blocked distance loop.
void join_cells_thread(const gpu::ThreadCtx& ctx,
                       const JoinCellsKernelParams& p);

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
