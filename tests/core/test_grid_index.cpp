#include "core/grid_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>

#include "common/datagen.hpp"

namespace sj {
namespace {

Dataset small2d() {
  // Hand-placed 2-D points spanning a few cells at eps = 1.
  return Dataset(2, {0.5, 0.5,   //
                     0.6, 0.4,   //
                     2.5, 0.5,   //
                     0.5, 2.5,   //
                     5.0, 5.0},
                 "small2d");
}

TEST(GridIndex, RejectsNegativeEps) {
  EXPECT_THROW(GridIndex(small2d(), -1.0), std::invalid_argument);
}

TEST(GridIndex, EmptyDataset) {
  Dataset d(3);
  GridIndex g(d, 1.0);
  EXPECT_EQ(g.num_points(), 0u);
  EXPECT_EQ(g.num_nonempty_cells(), 0u);
}

TEST(GridIndex, SizesMatchPaperContract) {
  const auto d = datagen::uniform(2000, 3, 0.0, 100.0, 17);
  GridIndex g(d, 5.0);
  // |A| = |D| and |B| = |G| (Section IV-C).
  EXPECT_EQ(g.A().size(), d.size());
  EXPECT_EQ(g.B().size(), g.G().size());
  EXPECT_GT(g.num_nonempty_cells(), 0u);
  EXPECT_LE(g.num_nonempty_cells(), d.size());
}

TEST(GridIndex, AIsAPermutation) {
  const auto d = datagen::uniform(5000, 2, 0.0, 100.0, 3);
  GridIndex g(d, 2.0);
  std::vector<bool> seen(d.size(), false);
  for (std::uint32_t id : g.A()) {
    ASSERT_LT(id, d.size());
    EXPECT_FALSE(seen[id]);
    seen[id] = true;
  }
}

TEST(GridIndex, BIsStrictlySorted) {
  const auto d = datagen::uniform(5000, 4, 0.0, 100.0, 5);
  GridIndex g(d, 10.0);
  const auto& B = g.B();
  for (std::size_t i = 1; i < B.size(); ++i) EXPECT_LT(B[i - 1], B[i]);
}

TEST(GridIndex, GRangesPartitionA) {
  const auto d = datagen::uniform(3000, 2, 0.0, 100.0, 7);
  GridIndex g(d, 3.0);
  std::uint32_t expected_min = 0;
  for (const auto& range : g.G()) {
    EXPECT_EQ(range.min, expected_min);
    EXPECT_GE(range.max, range.min);
    expected_min = range.max + 1;
  }
  EXPECT_EQ(expected_min, g.A().size());
}

TEST(GridIndex, EveryPointMapsIntoItsCell) {
  const auto d = datagen::uniform(2000, 3, 0.0, 100.0, 11);
  GridIndex g(d, 4.0);
  std::uint32_t coords[kMaxDims];
  for (std::size_t i = 0; i < d.size(); ++i) {
    g.cell_coords(d.pt(i), coords);
    const auto lin = g.linearize(coords);
    const auto cell = g.find_cell(lin);
    ASSERT_NE(cell, kEmptyCell) << "point's own cell must be non-empty";
    // The point id must appear within the cell's A-range.
    const auto range = g.G()[cell];
    bool found = false;
    for (std::uint32_t k = range.min; k <= range.max; ++k) {
      if (g.A()[k] == i) found = true;
    }
    EXPECT_TRUE(found);
  }
}

TEST(GridIndex, MasksContainExactlyTheNonEmptyCoords) {
  const auto d = datagen::uniform(1000, 2, 0.0, 100.0, 23);
  GridIndex g(d, 7.0);
  for (int j = 0; j < 2; ++j) {
    std::set<std::uint32_t> expected;
    for (std::uint64_t cell : g.B()) {
      expected.insert(
          static_cast<std::uint32_t>((cell / g.stride(j)) % g.cells_in_dim(j)));
    }
    const auto& m = g.mask(j);
    EXPECT_EQ(std::set<std::uint32_t>(m.begin(), m.end()), expected);
    EXPECT_TRUE(std::is_sorted(m.begin(), m.end()));
  }
}

TEST(GridIndex, PaddedRangeAvoidsBoundaryCells) {
  // gmin = min - eps means no in-data point can land in cell 0.
  const auto d = datagen::uniform(1000, 2, 0.0, 100.0, 29);
  GridIndex g(d, 1.0);
  std::uint32_t coords[kMaxDims];
  for (std::size_t i = 0; i < d.size(); ++i) {
    g.cell_coords(d.pt(i), coords);
    for (int j = 0; j < 2; ++j) {
      EXPECT_GE(coords[j], 1u);
      EXPECT_LT(coords[j], g.cells_in_dim(j));
    }
  }
}

TEST(GridIndex, FindCellReturnsEmptyCellForAbsentId) {
  // small2d's grid fits the cell-table budget; two clusters 1000 units
  // apart at eps 0.5 (~4e6 cells for 4 points) do not, so find_cell
  // binary-searches B there.
  const Dataset far(2, {0.0, 0.0, 0.2, 0.2, 1000.0, 1000.0, 1000.2, 1000.2});
  const GridIndex table(small2d(), 1.0);
  const GridIndex searched(far, 0.5);
  ASSERT_FALSE(table.cell_table().empty());
  ASSERT_TRUE(searched.cell_table().empty());
  for (const GridIndex* g : {&table, &searched}) {
    // The first linear id not in B, and every id of B.
    std::uint64_t absent = 0;
    while (std::binary_search(g->B().begin(), g->B().end(), absent)) ++absent;
    EXPECT_EQ(g->find_cell(absent), kEmptyCell);
    for (std::size_t i = 0; i < g->B().size(); ++i) {
      EXPECT_EQ(g->find_cell(g->B()[i]), i);
    }
  }
}

TEST(GridIndex, FilteredAdjacentSubsetOfWindow) {
  const auto d = datagen::uniform(500, 2, 0.0, 100.0, 31);
  GridIndex g(d, 10.0);
  std::uint32_t coords[kMaxDims];
  std::uint32_t out[3];
  for (std::size_t i = 0; i < d.size(); ++i) {
    g.cell_coords(d.pt(i), coords);
    for (int j = 0; j < 2; ++j) {
      const int cnt = g.filtered_adjacent(j, coords[j], out);
      ASSERT_GE(cnt, 1);  // own coordinate is always present
      ASSERT_LE(cnt, 3);
      bool has_center = false;
      for (int k = 0; k < cnt; ++k) {
        EXPECT_LE(std::abs(static_cast<long>(out[k]) -
                           static_cast<long>(coords[j])),
                  1);
        if (out[k] == coords[j]) has_center = true;
      }
      EXPECT_TRUE(has_center);
    }
  }
}

TEST(GridIndex, EpsZeroUsesUnitWidth) {
  GridIndex g(small2d(), 0.0);
  EXPECT_DOUBLE_EQ(g.eps(), 0.0);
  EXPECT_DOUBLE_EQ(g.cell_width(), 1.0);
  EXPECT_GT(g.num_nonempty_cells(), 0u);
}

TEST(GridIndex, SpaceIsOofD) {
  // Non-empty cells never exceed |D| even when the full grid is huge.
  const auto d = datagen::uniform(1000, 6, 0.0, 100.0, 37);
  GridIndex g(d, 2.0);
  EXPECT_LE(g.num_nonempty_cells(), d.size());
  EXPECT_GT(g.total_cells(), g.num_nonempty_cells());
}

TEST(GridIndex, SkewedDataHasFewerNonEmptyCellsThanUniform) {
  // The paper's worst-case argument (Section VI-C): uniform data
  // maximises non-empty cells at equal |D| and eps.
  const auto uni = datagen::uniform(10000, 2, 0.0, 100.0, 41);
  const auto skew = datagen::sw_like(10000, 2, 41);
  GridIndex gu(uni, 1.0);
  GridIndex gs(skew, 1.0);
  EXPECT_GT(gu.num_nonempty_cells(), gs.num_nonempty_cells());
}

TEST(GridIndex, SinglePoint) {
  Dataset d(2, {1.0, 1.0});
  GridIndex g(d, 0.5);
  EXPECT_EQ(g.num_nonempty_cells(), 1u);
  EXPECT_EQ(g.A().size(), 1u);
  EXPECT_EQ(g.A()[0], 0u);
}

TEST(GridIndex, CellCoordsClampFarAndNanCoordinates) {
  GridIndex g(small2d(), 1.0);
  const std::uint32_t top0 = g.cells_in_dim(0) - 1;
  const std::uint32_t top1 = g.cells_in_dim(1) - 1;
  std::uint32_t c[kMaxDims];
  const double far_high_low[] = {1e300, -1e300};
  g.cell_coords(far_high_low, c);
  EXPECT_EQ(c[0], top0);
  EXPECT_EQ(c[1], 0u);
  const double far_low_high[] = {-1e300, 1e300};
  g.cell_coords(far_low_high, c);
  EXPECT_EQ(c[0], 0u);
  EXPECT_EQ(c[1], top1);
  const double nan_and_inside[] = {std::nan(""), 2.5};
  g.cell_coords(nan_and_inside, c);
  EXPECT_EQ(c[0], 0u);
  const double inside[] = {0.5, 2.5};
  std::uint32_t want[kMaxDims];
  g.cell_coords(inside, want);
  EXPECT_EQ(c[1], want[1]);
}

TEST(GridIndex, IdenticalPointsShareOneCell) {
  Dataset d(3, {5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0});
  GridIndex g(d, 1.0);
  EXPECT_EQ(g.num_nonempty_cells(), 1u);
  EXPECT_EQ(g.G()[0].min, 0u);
  EXPECT_EQ(g.G()[0].max, 2u);
}

}  // namespace
}  // namespace sj
