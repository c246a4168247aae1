// The paper's GPU-efficient grid index (Section IV).
//
// The space is overlaid with an n-dimensional grid of cells of side eps
// (the query distance), extended by eps on each side to avoid boundary
// conditions. Only NON-EMPTY cells are stored (Section IV-B), making the
// space complexity O(|D|) regardless of the hypervolume:
//
//   B — sorted array of the linearised ids of the non-empty cells; cell
//       existence is decided by binary search (Section IV-D). Where the
//       grid's TOTAL cell count is itself O(|D|), the index also keeps a
//       direct-address cell table beside B and find_cell() is one load.
//   G — for each non-empty cell C_h, the inclusive range
//       [Amin_h, Amax_h] of its points inside A.
//   A — lookup array mapping those ranges to point ids; |A| = |D|.
//   M_j — per-dimension masking arrays holding the cell coordinates that
//       are non-empty in dimension j, used to filter the adjacent-cell
//       ranges O_j before any binary search of B.
//
// The index is the host's only grid structure: the group adjacency
// builder, the query groupings, the shard planner and the Table II replay
// all read it. Only the paper's point-centric kernel (and kNN) search a
// device copy of B, G and M (core/device_view.hpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/dataset.hpp"

namespace sj {

/// Cell coordinate of a point `rel` cell widths above the grid's lower
/// corner, clamped into [0, cells). The clamp runs in floating point
/// BEFORE the integer conversion: converting a value outside the target
/// range (a query ~2^63 cells away) or a NaN is undefined behaviour. NaN
/// goes to cell 0. The single implementation shared by the host index and
/// the device view.
inline std::uint32_t clamp_cell_coord(double rel, std::uint32_t cells) {
  if (!(rel > 0.0)) return 0;  // below the grid, or NaN
  if (rel >= static_cast<double>(cells - 1)) return cells - 1;
  return static_cast<std::uint32_t>(rel);  // truncation == floor here
}

/// Row-major linearisation of n-dimensional cell coordinates. The single
/// implementation shared by the host index and the device view
/// (GridDeviceView), so the two layouts cannot drift.
inline std::uint64_t linearize_cell(const std::uint32_t* coords,
                                    const std::uint64_t* stride, int dim) {
  std::uint64_t id = 0;
  for (int j = 0; j < dim; ++j) {
    id += static_cast<std::uint64_t>(coords[j]) * stride[j];
  }
  return id;
}

/// A (linear cell id, point id) sort key.
struct CellKey {
  std::uint64_t cell;
  std::uint32_t id;
};

/// Stable LSD radix sort of `keys` by cell, 8 bits per pass, touching
/// only the bytes `max_cell` occupies (a near-square grid rarely needs
/// more than three). Keys entered in ascending id order leave in (cell,
/// id) order — byte-identical to a comparison sort — at O(n) per pass
/// instead of O(n log n). The index build bins its points with it and the
/// join groups its queries with it.
void sort_cell_keys(std::vector<CellKey>& keys, std::uint64_t max_cell);

/// Result of a cell lookup (and cell-table entry) for an empty cell.
inline constexpr std::uint32_t kEmptyCell =
    std::numeric_limits<std::uint32_t>::max();

/// The paper stores only the non-empty cells so that the index stays
/// O(|D|) in space whatever the grid's hypervolume (Section IV-B). A
/// direct-address table over ALL cells keeps that bound only while the
/// total cell count is itself O(|D|): at most this many entries per
/// point, and never less than kCellTableMinEntries (a 256 KiB table) so
/// that small datasets on small grids still get one.
inline constexpr std::uint64_t kCellTableEntriesPerPoint = 8;
inline constexpr std::uint64_t kCellTableMinEntries = std::uint64_t{1} << 16;

/// The mask-filtered adjacent coordinates of cell coordinate `cj` in one
/// dimension (Algorithm 1, line 7; the paper's O_j intersect M_j): the
/// elements of {cj-1, cj, cj+1} present in the sorted, unique mask
/// m[0..size). Writes at most 3 values to `out`; returns how many. The
/// single implementation shared by the host index and the point-centric
/// kernel's device masks.
inline int filter_adjacent(const std::uint32_t* m, std::size_t size,
                           std::uint32_t cj, std::uint32_t out[3]) {
  const std::uint32_t* end = m + size;
  const std::uint32_t lo = cj == 0 ? 0 : cj - 1;
  const std::int64_t hi = static_cast<std::int64_t>(cj) + 1;
  int count = 0;
  // One lower_bound finds the first candidate, then a forward scan.
  for (const std::uint32_t* it = std::lower_bound(m, end, lo);
       it != end && static_cast<std::int64_t>(*it) <= hi; ++it) {
    out[count++] = *it;
  }
  return count;
}

class GridIndex {
 public:
  /// Inclusive range [min, max] into A for one non-empty cell (the
  /// paper's [Amin_h, Amax_h]).
  struct CellRange {
    std::uint32_t min;
    std::uint32_t max;
  };

  GridIndex() = default;

  /// Build the index over `d` with cell width eps. For eps == 0 (a legal
  /// query asking for co-located points) a unit cell width is used — the
  /// search is correct for any cell width >= eps.
  GridIndex(const Dataset& d, double eps);

  /// The serialisable fields of an index — what a snapshot persists and
  /// what from_parts() reconstructs without re-binning or re-sorting.
  struct Parts {
    int dim = 0;
    double eps = 0.0;
    double width = 0.0;
    double gmin[kMaxDims] = {};
    double gmax[kMaxDims] = {};
    std::uint32_t cells_per_dim[kMaxDims] = {};
    std::uint64_t stride[kMaxDims] = {};
    std::vector<std::uint64_t> B;
    std::vector<CellRange> G;
    std::vector<std::uint32_t> A;
    std::vector<std::uint32_t> M[kMaxDims];
  };

  /// Copy of this index's fields (snapshot save path).
  Parts to_parts() const;

  /// Rebuild an index from serialised parts in O(copy) — the snapshot
  /// restore path that skips the radix-sort binning. ALWAYS runs the
  /// deep structural validator against `d` (core/validate.hpp), not just
  /// under contracts: the parts come from disk, and a checksum only
  /// protects against torn bytes, not against a stale or hand-edited
  /// snapshot disagreeing with the dataset. Throws on any mismatch.
  static GridIndex from_parts(Parts parts, const Dataset& d);

  int dim() const { return dim_; }
  double eps() const { return eps_; }
  double cell_width() const { return width_; }
  std::size_t num_points() const { return A_.size(); }
  std::size_t num_nonempty_cells() const { return B_.size(); }

  double gmin(int j) const { return gmin_[j]; }
  double gmax(int j) const { return gmax_[j]; }
  std::uint32_t cells_in_dim(int j) const { return cells_per_dim_[j]; }
  std::uint64_t stride(int j) const { return stride_[j]; }

  /// Total cells of the full (mostly empty) grid — the intractable count
  /// the paper avoids storing. Saturates at UINT64_MAX.
  std::uint64_t total_cells() const;

  const std::vector<std::uint64_t>& B() const { return B_; }
  const std::vector<CellRange>& G() const { return G_; }
  const std::vector<std::uint32_t>& A() const { return A_; }
  const std::vector<std::uint32_t>& mask(int j) const { return M_[j]; }

  /// Direct-address cell table: entry c holds the B index of the cell
  /// with linear id c, or kEmptyCell. Built with the index when the grid's
  /// total cell count fits the O(|D|) budget above; empty otherwise.
  /// Derived from B, so snapshots do not persist it.
  const std::vector<std::uint32_t>& cell_table() const { return table_; }

  /// Grid coordinates of a point (clamped into the grid).
  void cell_coords(const double* pt, std::uint32_t* out) const {
    for (int j = 0; j < dim_; ++j) {
      out[j] = clamp_cell_coord((pt[j] - gmin_[j]) / width_, cells_per_dim_[j]);
    }
  }

  /// Row-major linearisation of n-dimensional cell coordinates.
  std::uint64_t linearize(const std::uint32_t* coords) const {
    return linearize_cell(coords, stride_, dim_);
  }

  /// Index into G()/B() of the cell with this linear id (which must name
  /// a cell of the grid), or kEmptyCell when the cell is empty: one load
  /// from the cell table, else a binary search of B (Section IV-D).
  std::uint32_t find_cell(std::uint64_t linear_id) const {
    if (!table_.empty()) return table_[static_cast<std::size_t>(linear_id)];
    const auto it = std::lower_bound(B_.begin(), B_.end(), linear_id);
    return it != B_.end() && *it == linear_id
               ? static_cast<std::uint32_t>(it - B_.begin())
               : kEmptyCell;
  }

  /// filter_adjacent over the masking array M_j.
  int filtered_adjacent(int j, std::uint32_t cj, std::uint32_t out[3]) const {
    return filter_adjacent(M_[j].data(), M_[j].size(), cj, out);
  }

 private:
  /// M_j rebuilt from B: the sorted, unique coordinates of the non-empty
  /// cells in dimension j.
  std::vector<std::uint32_t> mask_from_cells(int j) const;
  /// Fill table_ under the O(|D|) budget (left empty over it).
  void build_cell_table();

  int dim_ = 0;
  double eps_ = 0.0;
  double width_ = 0.0;
  double gmin_[kMaxDims] = {};
  double gmax_[kMaxDims] = {};
  std::uint32_t cells_per_dim_[kMaxDims] = {};
  std::uint64_t stride_[kMaxDims] = {};
  std::vector<std::uint64_t> B_;
  std::vector<CellRange> G_;
  std::vector<std::uint32_t> A_;
  std::vector<std::uint32_t> M_[kMaxDims];
  std::vector<std::uint32_t> table_;
};

}  // namespace sj
