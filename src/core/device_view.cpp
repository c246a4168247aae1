#include "core/device_view.hpp"

#include <cstring>

#include "common/contracts.hpp"
#include "core/validate.hpp"

namespace sj {

namespace {

/// memcpy tolerating the empty range: an empty vector's data() may be
/// null, and passing null to memcpy is UB even for zero bytes (UBSan
/// flags it on empty datasets).
void copy_bytes(void* dst, const void* src, std::size_t bytes) {
  if (bytes > 0) std::memcpy(dst, src, bytes);
}

}  // namespace

DeviceGrid::DeviceGrid(gpu::GlobalMemoryArena& arena, const Dataset& d,
                       const GridIndex& index, GridLayout layout)
    : a_(arena, index.A().size()) {
  const int dim = d.dim();
  copy_bytes(a_.data(), index.A().data(),
             index.A().size() * sizeof(std::uint32_t));
  if (layout == GridLayout::kCellMajor) {
    // Reorder the dataset into cell-major order: slot k holds point A[k],
    // so every cell's points are contiguous and A becomes the identity.
    // Plane j is the contiguous stream coord[j][0..n) the vectorised scan
    // reads; a_ holds the slot -> original-id map. Each slot writes only
    // its own column, so any split of the slots over the team gives the
    // same bytes.
    coords_ = gpu::DeviceBuffer<double>(arena, d.raw().size());
    double* const planes = coords_.data();
    const std::uint32_t* const A = index.A().data();
    const auto slots = static_cast<std::int64_t>(index.A().size());
#pragma omp parallel for schedule(static)
    for (std::int64_t k = 0; k < slots; ++k) {
      const double* src = d.pt(A[k]);
      for (int j = 0; j < dim; ++j) planes[j * slots + k] = src[j];
    }
    for (int j = 0; j < dim; ++j) view_.coord[j] = planes + j * slots;
    view_.orig = a_.data();
    view_.cell_major = true;
  } else {
    points_ = gpu::DeviceBuffer<double>(arena, d.raw().size());
    copy_bytes(points_.data(), d.raw().data(),
               d.raw().size() * sizeof(double));
    b_ = gpu::DeviceBuffer<std::uint64_t>(arena, index.B().size());
    copy_bytes(b_.data(), index.B().data(),
               index.B().size() * sizeof(std::uint64_t));
    g_ = gpu::DeviceBuffer<GridIndex::CellRange>(arena, index.G().size());
    copy_bytes(g_.data(), index.G().data(),
               index.G().size() * sizeof(GridIndex::CellRange));
    view_.points = points_.data();
    view_.A = a_.data();
    view_.B = b_.data();
    view_.b_size = b_.size();
    view_.G = g_.data();
    for (int j = 0; j < dim; ++j) {
      m_[j] = gpu::DeviceBuffer<std::uint32_t>(arena, index.mask(j).size());
      copy_bytes(m_[j].data(), index.mask(j).data(),
                 index.mask(j).size() * sizeof(std::uint32_t));
      view_.M[j] = m_[j].data();
      view_.m_size[j] = m_[j].size();
    }
  }

  view_.n = d.size();
  view_.dim = dim;
  view_.width = index.cell_width();
  view_.eps = index.eps();
  for (int j = 0; j < dim; ++j) {
    view_.gmin[j] = index.gmin(j);
    view_.cells_per_dim[j] = index.cells_in_dim(j);
    view_.stride[j] = index.stride(j);
  }

  if (contracts::active()) validate::device_grid(view_, &d, "DeviceGrid(upload)");
}

}  // namespace sj
