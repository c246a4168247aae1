// DeviceGrid upload: buffer contents must mirror the host index exactly
// and the arena accounting must match the uploaded footprint.
#include "core/device_view.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/datagen.hpp"
#include "core/grid_index.hpp"
#include "gpusim/arena.hpp"

namespace sj {
namespace {

TEST(DeviceGrid, ViewMirrorsHostIndex) {
  const auto d = datagen::uniform(2000, 3, 0.0, 100.0, 5);
  GridIndex index(d, 4.0);
  gpu::GlobalMemoryArena arena(gpu::DeviceSpec::titan_x_pascal());
  DeviceGrid dev(arena, d, index);
  const GridDeviceView& v = dev.view();

  EXPECT_EQ(v.n, d.size());
  EXPECT_EQ(v.dim, d.dim());
  EXPECT_EQ(v.b_size, index.B().size());
  EXPECT_DOUBLE_EQ(v.eps, index.eps());
  EXPECT_DOUBLE_EQ(v.width, index.cell_width());
  EXPECT_EQ(0, std::memcmp(v.points, d.raw().data(),
                           d.raw().size() * sizeof(double)));
  EXPECT_EQ(0, std::memcmp(v.B, index.B().data(),
                           index.B().size() * sizeof(std::uint64_t)));
  EXPECT_EQ(0, std::memcmp(v.A, index.A().data(),
                           index.A().size() * sizeof(std::uint32_t)));
  for (int j = 0; j < d.dim(); ++j) {
    EXPECT_EQ(v.m_size[j], index.mask(j).size());
    EXPECT_EQ(0, std::memcmp(v.M[j], index.mask(j).data(),
                             index.mask(j).size() * sizeof(std::uint32_t)));
    EXPECT_DOUBLE_EQ(v.gmin[j], index.gmin(j));
    EXPECT_EQ(v.cells_per_dim[j], index.cells_in_dim(j));
    EXPECT_EQ(v.stride[j], index.stride(j));
  }
}

TEST(DeviceGrid, ArenaChargedAndReleased) {
  const auto d = datagen::uniform(1000, 2, 0.0, 100.0, 7);
  GridIndex index(d, 2.0);
  gpu::GlobalMemoryArena arena(gpu::DeviceSpec::titan_x_pascal());
  // Each layout stages what its kernel reads. Cell-major: the planes and
  // the slot -> id map, n·dim·8 + n·4 bytes. Legacy: the rows and A, plus
  // B, G and the masks the point-centric kernel searches.
  const std::size_t image = d.raw().size() * sizeof(double) +
                            index.A().size() * sizeof(std::uint32_t);
  ASSERT_EQ(image, d.size() * (2 * 8 + 4));
  const std::size_t legacy =
      image + index.B().size() * sizeof(std::uint64_t) +
      index.G().size() * sizeof(GridIndex::CellRange) +
      index.mask(0).size() * sizeof(std::uint32_t) +
      index.mask(1).size() * sizeof(std::uint32_t);
  for (GridLayout layout : {GridLayout::kLegacy, GridLayout::kCellMajor}) {
    {
      DeviceGrid dev(arena, d, index, layout);
      EXPECT_EQ(arena.used(),
                layout == GridLayout::kLegacy ? legacy : image);
    }
    EXPECT_EQ(arena.used(), 0u);
  }
}

TEST(DeviceGrid, LinearizeMatchesHost) {
  const auto d = datagen::uniform(500, 4, 0.0, 100.0, 9);
  GridIndex index(d, 10.0);
  gpu::GlobalMemoryArena arena(gpu::DeviceSpec::titan_x_pascal());
  DeviceGrid dev(arena, d, index);
  std::uint32_t coords[kMaxDims];
  for (std::size_t i = 0; i < d.size(); i += 13) {
    index.cell_coords(d.pt(i), coords);
    EXPECT_EQ(dev.view().linearize(coords), index.linearize(coords));
  }
}

TEST(DeviceGrid, QueryPointDefaultsToIndexedSet) {
  const auto d = datagen::uniform(100, 2, 0.0, 10.0, 11);
  const auto q = datagen::uniform(10, 2, 0.0, 10.0, 12);
  GridIndex index(d, 1.0);
  gpu::GlobalMemoryArena arena(gpu::DeviceSpec::titan_x_pascal());
  double buf[kMaxDims] = {};
  for (GridLayout layout : {GridLayout::kLegacy, GridLayout::kCellMajor}) {
    DeviceGrid dev(arena, d, index, layout);
    GridDeviceView v = dev.view();
    EXPECT_EQ(v.num_queries(), d.size());
    if (layout == GridLayout::kLegacy) {
      // A legacy query is its row, read in place.
      EXPECT_EQ(v.query_point(7, buf), v.points + 7 * 2);
    } else {
      // A cell-major query is slot 7, gathered from the planes.
      EXPECT_EQ(v.query_point(7, buf), buf);
      EXPECT_EQ(buf[0], d.coord(v.orig[7], 0));
      EXPECT_EQ(buf[1], d.coord(v.orig[7], 1));
    }

    // With a distinct query set the accessors switch over.
    v.qpoints = q.raw().data();
    v.qn = q.size();
    EXPECT_EQ(v.num_queries(), q.size());
    EXPECT_EQ(v.query_point(3, buf), q.raw().data() + 3 * 2);
  }
}

TEST(DeviceGrid, HomeCellClampsFarAndNanCoordinates) {
  const auto d = datagen::uniform(200, 3, 0.0, 10.0, 15);
  GridIndex index(d, 1.0);
  gpu::GlobalMemoryArena arena(gpu::DeviceSpec::titan_x_pascal());
  for (GridLayout layout : {GridLayout::kLegacy, GridLayout::kCellMajor}) {
    DeviceGrid dev(arena, d, index, layout);
    const GridDeviceView& v = dev.view();
    std::uint32_t c[kMaxDims];
    const double far[] = {1e300, -1e300, 5.0};
    v.home_cell(far, c);
    EXPECT_EQ(c[0], index.cells_in_dim(0) - 1);
    EXPECT_EQ(c[1], 0u);
    std::uint32_t want[kMaxDims];
    index.cell_coords(far, want);
    EXPECT_EQ(c[2], want[2]);
    const double nan[] = {std::nan(""), 1e300, -1e300};
    v.home_cell(nan, c);
    EXPECT_EQ(c[0], 0u);
    EXPECT_EQ(c[1], index.cells_in_dim(1) - 1);
    EXPECT_EQ(c[2], 0u);
    // In-grid points land where the host index puts them.
    for (std::size_t i = 0; i < d.size(); i += 7) {
      v.home_cell(d.pt(i), c);
      index.cell_coords(d.pt(i), want);
      EXPECT_EQ(std::vector<std::uint32_t>(c, c + 3),
                std::vector<std::uint32_t>(want, want + 3));
    }
  }
}

TEST(DeviceGrid, TooSmallDeviceThrows) {
  const auto d = datagen::uniform(50000, 4, 0.0, 100.0, 13);
  GridIndex index(d, 5.0);
  gpu::GlobalMemoryArena arena(1 << 20);  // 1 MiB
  EXPECT_THROW(DeviceGrid(arena, d, index), gpu::DeviceOutOfMemory);
}

}  // namespace
}  // namespace sj
