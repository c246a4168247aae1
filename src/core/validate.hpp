// Deep structural validators for the layered data structures the engines
// build: grid index / device grid, the group adjacency CSR, and shard
// plans. Each validator is a one-shot O(n + ranges) walk that
// aborts with a contracts::fail report on the first violated invariant.
//
// The validators are ALWAYS compiled (tests corrupt a structure and call
// them directly in any build); engine call sites gate them on
// contracts::active() — true in -DSJ_VALIDATE=ON builds and under
// `sjtool --validate`. Time spent inside them accumulates into
// contracts::validation_seconds().
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/dataset.hpp"
#include "core/device_view.hpp"
#include "core/grid_index.hpp"
#include "core/kernels.hpp"
#include "core/shard_plan.hpp"

namespace sj::validate {

/// GridIndex invariants over the dataset it was built from:
///   - B strictly increasing (sorted non-empty cell ids)
///   - G ranges partition [0, n) in order (G[0].min == 0, contiguous,
///     G.back().max == n - 1)
///   - A is a permutation of [0, n)
///   - every point's home cell linearises to the B entry owning its slot
///   - per-dimension masks strictly increasing and within cells_in_dim
///   - the cell table, when the index keeps one, covers every cell of the
///     grid and passes cell_table()
void grid_index(const GridIndex& index, const Dataset& d, const char* context);

/// Direct-address cell table invariants against the B it inverts:
/// table[B[i]] == i for every i, and exactly B.size() entries are not
/// kEmptyCell (no empty cell claims a B entry).
void cell_table(const std::vector<std::uint32_t>& table,
                const std::vector<std::uint64_t>& B, const char* context);

/// GridDeviceView invariants, one image per layout:
///   - cell-major: coordinate planes and an `orig` that is a permutation
///     of [0, n); no rows, no A, and no B, G or masks (the host index
///     resolves the grouped kernel's candidates)
///   - legacy: rows and an A that is a permutation of [0, n); G ranges
///     partition [0, n), B strictly increasing, masks strictly increasing
///     and within cells_per_dim; no planes and no `orig`
///   - when `d` is non-null, every staged coordinate matches the source
///     dataset: coord[j][k] is coordinate j of point orig[k] (cell-major),
///     row k is point k (legacy)
void device_grid(const GridDeviceView& view, const Dataset* d,
                 const char* context);

/// Group-adjacency invariants over a data slot space of size n_slots:
///   - identity order (empty query_order): `cells` lists the groups'
///     cells in order, and group g's positions are cell g's slots
///     (group_offsets[g] == cells[g].min, the last offset one past the
///     last cell's max)
///   - sorted order: query_order is a permutation of [0, q) for its
///     length q, and group_offsets run from 0 to q (`cells` is unused)
///   - group_offsets strictly increasing (no empty groups)
///   - offsets a well-formed CSR over num_groups() ending at ranges.size()
///   - weights has num_groups() entries
///   - every range non-empty, in [0, n_slots), both flag in {0, 1}
///   - each group's merged ranges pairwise non-overlapping
void group_adjacency(const GroupAdjacencyHost& adj,
                     const GridIndex::CellRange* cells, std::uint64_t n_slots,
                     const char* context);

/// Shard boundary invariants: boundaries[0] == 0, strictly increasing,
/// ending at num_units — the shards are disjoint, non-empty, and cover
/// every unit. (The degenerate num_units == 0 plan is {0, 0}.)
void shard_boundaries(const std::vector<std::uint32_t>& boundaries,
                      std::size_t num_units, const char* context);

/// shard_boundaries plus the planner's coalescing guarantee: every part
/// carries nonzero summed unit weight unless the total weight itself is
/// zero (no degenerate empty shards next to a giant unit).
void shard_boundaries(const std::vector<std::uint32_t>& boundaries,
                      const std::vector<std::uint64_t>& unit_weights,
                      const char* context);

/// ChunkletPlan invariants over the unit weights it was planned from:
///   - bounds strictly cover [0, units) (shard_boundaries + nonzero
///     per-chunklet weight, i.e. disjoint owned spans with no weightless
///     chunklet unless the total is zero)
///   - weights mirror the per-chunklet unit-weight sums exactly
///   - device_bounds strictly cover [0, chunklets) with at most `devices`
///     groups (the contiguous stealing seed)
void chunklet_plan(const ChunkletPlan& plan,
                   const std::vector<std::uint64_t>& unit_weights,
                   std::size_t devices, const char* context);

/// ShardSlice invariants over a global slot space of size n_slots:
///   - owned span within [0, n_slots]
///   - halo intervals non-empty, sorted, pairwise disjoint, entirely
///     outside the owned span, with contiguous local numbering starting
///     at owned_points()
///   - to_local() round-trips the endpoints of the owned span and every
///     halo interval
///   - offsets a well-formed CSR over the owned units ending at
///     ranges.size()
///   - every remapped range non-empty and within [0, local_points())
void shard_slice(const ShardSlice& slice, std::uint64_t n_slots,
                 const char* context);

}  // namespace sj::validate
