// Host-side planning for the sharded multi-device engine (gpu_shard).
//
// The cell-major layout makes multi-device partitioning natural: a shard
// is a CONTIGUOUS range of non-empty cells (self-join) or query groups
// (query/data join), so its owned point slots are one contiguous span.
// Boundaries are placed by weighted_partition, so skewed IPPP-style data
// does not serialise on one device.
//
// Each shard additionally needs the NEIGHBOUR data its kernels read — the
// one-cell halo. Rather than reasoning geometrically, the halo is derived
// from the already-resolved adjacency: every candidate slot range of an
// owned cell that falls outside the owned span is halo, and overlapping
// pieces merge into a few contiguous intervals (adjacent cells occupy
// adjacent slots, so the halo is compact). make_shard_slice() clips and
// remaps every candidate range into the shard-local slot space: owned
// slots first, halo intervals appended in ascending global order.
//
// Exactness needs no dedup pass: each group (for the self-join, a cell)
// is owned by exactly one shard, and the grouped kernel emits each pair
// from the scan of exactly one unit — so shard results are disjoint by
// construction and concatenate in shard order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/kernels.hpp"

namespace sj {

/// One contiguous global-slot interval of remote (halo) data a shard
/// reads, plus where that interval lands in the shard's local slot space.
struct HaloInterval {
  std::uint32_t begin = 0;        // global slot, inclusive
  std::uint32_t end = 0;          // global slot, one past the last
  std::uint32_t local_begin = 0;  // first local slot of the interval
};

/// One shard's slice of the cell-major layout: its contiguous range of
/// owned units (cells for the self-join, query groups for the join), the
/// owned global slot span, the merged halo intervals, and the shard-local
/// adjacency CSR with every candidate range remapped into local slots.
/// Owned slots occupy local [0, owned_points()); halo intervals follow in
/// ascending global order.
struct ShardSlice {
  std::uint32_t unit_begin = 0;   // first owned unit (global index)
  std::uint32_t unit_end = 0;     // one past the last owned unit
  std::uint32_t owned_begin = 0;  // owned global slot span [begin, end)
  std::uint32_t owned_end = 0;
  std::vector<HaloInterval> halo;
  std::vector<CandidateRange> ranges;  // remapped to local slots
  std::vector<std::uint64_t> offsets;  // per owned unit, rebased to 0
  std::uint64_t weight = 0;            // summed weight of the owned units

  std::uint32_t owned_points() const { return owned_end - owned_begin; }
  std::uint32_t halo_points() const {
    return halo.empty() ? 0
                        : halo.back().local_begin +
                              (halo.back().end - halo.back().begin) -
                              owned_points();
  }
  std::uint32_t local_points() const { return owned_points() + halo_points(); }

  /// Local slot of a global slot; the slot must lie in the owned span or
  /// in one of the halo intervals.
  std::uint32_t to_local(std::uint32_t global_slot) const;
};

/// Cheap per-cell partition weights for placing SHARD boundaries without
/// resolving any adjacency: cell population times a three-cell population
/// window over the B order (B-adjacent non-empty cells are usually the
/// last-dimension spatial neighbours, so the window tracks local density).
/// Each device resolves its own cells' adjacency, and its batches are cut
/// from exact counts, but the boundary pass must not cost an unsharded
/// global enumeration, or it becomes the scale-out serial tail.
std::vector<std::uint64_t> proxy_cell_weights(const GridIndex& index);

/// Place `parts` contiguous boundaries over `weights` so each part takes
/// at least one entry and carries an approximately equal share of the
/// total weight: part b closes where the cumulative weight first reaches
/// (b + 1) / parts of the total. Returns parts + 1 boundaries
/// (boundaries[p] .. boundaries[p+1] is part p); `parts` must be in
/// [1, weights.size()]. The balance rule behind every shard and chunklet
/// boundary below.
std::vector<std::uint32_t> weighted_partition(
    const std::vector<std::uint64_t>& weights, std::size_t parts);

/// Partition units 0..weights.size() into `shards` contiguous ranges of
/// approximately equal total weight (weighted_partition).
/// The shard count is clamped into [1, weights.size()] — fewer units than
/// requested devices means some devices stay idle. Zero-weight parts (one
/// giant unit next to zero-weight tails forces weighted_partition's
/// one-unit-per-part floor to close weightless shards) are coalesced into
/// their predecessor, so every returned part carries weight unless the
/// total itself is zero. Returns K + 1 boundaries for the effective K.
std::vector<std::uint32_t> plan_shard_boundaries(
    const std::vector<std::uint64_t>& weights, std::size_t shards);

/// Over-decomposition plan for the work-stealing shard scheduler: the
/// unit range is split into M >> K contiguous chunklets (each becomes one
/// ShardSlice, exactly as a PR-5 shard did), and the chunklets are dealt
/// to the K devices as contiguous groups by the same weighted partition —
/// the static plan is the SEED, stealing corrects its mispredictions.
struct ChunkletPlan {
  std::vector<std::uint32_t> bounds;         ///< M + 1 unit boundaries
  std::vector<std::uint64_t> weights;        ///< per-chunklet summed weight
  std::vector<std::uint32_t> device_bounds;  ///< K + 1 chunklet boundaries

  std::size_t chunklets() const { return weights.size(); }
  std::size_t devices() const {
    return device_bounds.empty() ? 0 : device_bounds.size() - 1;
  }
};

/// Default over-decomposition factor: M = kChunkletsPerDevice * K keeps
/// the per-device chunklet overhead constant across device counts while
/// giving the stealing scheduler ~12 rebalancing opportunities per device.
inline constexpr std::size_t kChunkletsPerDevice = 12;

/// Build the chunklet plan over per-unit weights. `devices` is clamped
/// into [1, units]; `chunklets` of 0 means kChunkletsPerDevice * devices,
/// and any request is clamped into [devices, units] (one cell is the
/// finest ownable grain). Zero-weight chunklets coalesce away, so M may
/// come back smaller than requested on degenerate weight profiles.
ChunkletPlan plan_chunklets(const std::vector<std::uint64_t>& unit_weights,
                            std::size_t devices, std::size_t chunklets = 0);

/// Slice the global adjacency CSR for owned units [unit_begin, unit_end):
/// clip every candidate range against the owned global slot span
/// [owned_begin, owned_end), merge the outside pieces into halo
/// intervals, and remap all ranges into the shard-local slot space. Pass
/// owned_begin == owned_end for the join mode, where query groups own no
/// data slots and every referenced slot is halo.
ShardSlice make_shard_slice(const std::vector<CandidateRange>& ranges,
                            const std::vector<std::uint64_t>& offsets,
                            const std::vector<std::uint64_t>& weights,
                            std::uint32_t unit_begin, std::uint32_t unit_end,
                            std::uint32_t owned_begin,
                            std::uint32_t owned_end);

}  // namespace sj
