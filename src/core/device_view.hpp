// Device-resident image of the dataset, plus the plain-pointer view the
// kernels consume (the analogue of the D, A, G, B, M kernel arguments of
// Algorithm 1). Each layout stages only what its kernel reads:
//
//   kLegacy    — the paper's layout: `points` holds the dataset's rows in
//                their original order, next to copies of A, B, G and the
//                masks. The point-centric kernel (and kNN) searches B on
//                the device for every candidate cell of every point and
//                gathers each candidate through A (a random access per
//                distance calculation).
//   kCellMajor — the dataset is reordered at upload time so that each
//                non-empty cell's points occupy CONTIGUOUS slots (A-order),
//                stored as one coordinate plane per dimension (`coord`),
//                and `orig` maps a slot back to its original dataset id so
//                emitted pairs still carry original ids. Nothing else is
//                staged: the grouped kernel scans candidate slot ranges
//                the host resolved once per group from the GridIndex
//                (build_group_adjacency), so it never searches B, G or the
//                masks. Candidate scans are unit-stride plane reads.
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/dataset.hpp"
#include "core/grid_index.hpp"
#include "gpusim/arena.hpp"

namespace sj {

/// How DeviceGrid lays the dataset out in device memory.
enum class GridLayout {
  kLegacy,    ///< original point order, candidates gathered through A[]
  kCellMajor  ///< points reordered cell-by-cell, A[] is the identity
};

/// Raw-pointer view passed to kernels.
struct GridDeviceView {
  /// Legacy layout: the indexed set's row-major coordinates in original
  /// order. Null in the cell-major layout, whose only image is `coord`.
  const double* points = nullptr;
  std::uint64_t n = 0;
  int dim = 0;

  /// Query set for the general epsilon join. For the self-join this stays
  /// null and queries are the indexed set's own points; for an A-join-B
  /// the grid indexes B and `qpoints`/`qn` describe A.
  const double* qpoints = nullptr;
  std::uint64_t qn = 0;

  /// Coordinates of query `pid`. Join queries and legacy rows are read in
  /// place; a cell-major self-join query (a slot, which has no row) is
  /// gathered from the planes into `buf`, which holds `dim` values.
  const double* query_point(std::uint64_t pid, double* buf) const {
    const auto row = static_cast<std::size_t>(pid) * dim;
    if (qpoints != nullptr) return qpoints + row;
    if (!cell_major) return points + row;
    for (int j = 0; j < dim; ++j) buf[j] = coord[j][pid];
    return buf;
  }
  std::uint64_t num_queries() const { return qpoints != nullptr ? qn : n; }

  /// Legacy layout: the non-empty cells' linear ids and slot ranges.
  /// Null in the cell-major layout.
  const std::uint64_t* B = nullptr;
  std::uint64_t b_size = 0;
  const GridIndex::CellRange* G = nullptr;

  /// Legacy layout: B index of the cell with linear id `id`, or kEmptyCell
  /// when the cell is empty — the paper's binary search of B (Section
  /// IV-D).
  std::uint32_t find_cell(std::uint64_t id) const {
    const std::uint64_t* end = B + b_size;
    const std::uint64_t* it = std::lower_bound(B, end, id);
    return it != end && *it == id ? static_cast<std::uint32_t>(it - B)
                                  : kEmptyCell;
  }

  /// Cell-major layout: the dataset as per-dimension coordinate planes,
  /// coord[j][k] = j-th coordinate of the point in slot k. Contiguous per
  /// dimension so the blocked candidate scan reads unit-stride streams the
  /// compiler can vectorise. Null in the legacy layout.
  const double* coord[kMaxDims] = {};

  /// Legacy layout: slot -> point id (the paper's A). Null in cell-major
  /// layout, where the mapping is the identity.
  const std::uint32_t* A = nullptr;
  /// Cell-major layout: slot -> ORIGINAL dataset id (the reorder map).
  /// Null in the legacy layout, where slots already hold original ids
  /// through A.
  const std::uint32_t* orig = nullptr;
  bool cell_major = false;

  /// Legacy layout: the masking arrays M_j. Null in the cell-major layout.
  const std::uint32_t* M[kMaxDims] = {};
  std::uint64_t m_size[kMaxDims] = {};

  double gmin[kMaxDims] = {};
  double width = 0.0;
  double eps = 0.0;
  std::uint32_t cells_per_dim[kMaxDims] = {};
  std::uint64_t stride[kMaxDims] = {};

  /// Legacy layout (the point-centric kernel): coordinates of the
  /// candidate at slot k of the A-range, gathered through A.
  const double* candidate_point(std::uint64_t k) const {
    return points + static_cast<std::size_t>(A[k]) * dim;
  }

  /// Legacy layout: original dataset id of the candidate at slot k.
  std::uint32_t candidate_id(std::uint64_t k) const { return A[k]; }

  /// Original dataset id of query `pid` (a point id in the legacy layout,
  /// a point slot in cell-major). External query sets always pass
  /// through: `orig` maps the INDEXED set's slots and must not be applied
  /// to a query id from a different set.
  std::uint32_t query_id(std::uint64_t pid) const {
    if (qpoints != nullptr) return static_cast<std::uint32_t>(pid);
    return orig != nullptr ? orig[pid] : static_cast<std::uint32_t>(pid);
  }

  /// Grid coordinates of the cell containing `pt`, clamped into the grid
  /// (external query points may lie outside the indexed set's bounds; the
  /// clamped cell's neighbourhood still covers every in-range candidate
  /// because the cell width is >= eps).
  void home_cell(const double* pt, std::uint32_t* c) const {
    for (int j = 0; j < dim; ++j) {
      c[j] = clamp_cell_coord((pt[j] - gmin[j]) / width, cells_per_dim[j]);
    }
  }

  std::uint64_t linearize(const std::uint32_t* coords) const {
    return linearize_cell(coords, stride, dim);
  }
};

/// Owns the device buffers (charged against the arena, like cudaMalloc +
/// cudaMemcpy of the host-built index) and exposes the kernel view. A
/// cell-major image charges n·dim·8 + n·4 bytes (planes and `orig`); a
/// legacy image adds B, G and the masks to its rows and A.
class DeviceGrid {
 public:
  DeviceGrid(gpu::GlobalMemoryArena& arena, const Dataset& d,
             const GridIndex& index, GridLayout layout = GridLayout::kLegacy);

  const GridDeviceView& view() const { return view_; }

 private:
  gpu::DeviceBuffer<double> points_;  // legacy: n rows of dim
  gpu::DeviceBuffer<double> coords_;  // cell-major: dim planes of n
  gpu::DeviceBuffer<std::uint32_t> a_;  // legacy: A; cell-major: orig map
  gpu::DeviceBuffer<std::uint64_t> b_;             // legacy only
  gpu::DeviceBuffer<GridIndex::CellRange> g_;      // legacy only
  gpu::DeviceBuffer<std::uint32_t> m_[kMaxDims];   // legacy only
  GridDeviceView view_;
};

}  // namespace sj
