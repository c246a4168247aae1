// Parameterised grid-index property sweep: the structural invariants of
// Section IV must hold for every (dimension, eps, distribution)
// combination, not just the hand-picked cases of test_grid_index.cpp.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>

#include "common/datagen.hpp"
#include "core/grid_index.hpp"

namespace sj {
namespace {

class GridSweep
    : public ::testing::TestWithParam<std::tuple<int, double, std::string>> {
 protected:
  Dataset make() const {
    const auto [dim, eps_scale, kind] = GetParam();
    (void)eps_scale;
    if (kind == "uniform") {
      return datagen::uniform(1500, dim, 0.0, 100.0, 3000 + dim);
    }
    if (kind == "clustered") {
      return datagen::gaussian_mixture(1500, dim, 7, 3.0, 0.0, 100.0,
                                       3100 + dim);
    }
    return datagen::exponential_blob(1500, dim, 0.07, 3200 + dim);
  }
  double eps() const {
    const auto [dim, eps_scale, kind] = GetParam();
    (void)kind;
    return eps_scale * std::pow(2.0, dim - 2);
  }
};

TEST_P(GridSweep, StructuralInvariants) {
  const auto d = make();
  const GridIndex g(d, eps());

  // |A| = |D|, |B| = |G|, B strictly sorted, G partitions A.
  EXPECT_EQ(g.A().size(), d.size());
  EXPECT_EQ(g.B().size(), g.G().size());
  for (std::size_t i = 1; i < g.B().size(); ++i) {
    EXPECT_LT(g.B()[i - 1], g.B()[i]);
  }
  std::uint32_t next = 0;
  for (const auto& r : g.G()) {
    EXPECT_EQ(r.min, next);
    EXPECT_GE(r.max, r.min);
    next = r.max + 1;
  }
  EXPECT_EQ(next, g.A().size());
}

TEST_P(GridSweep, EveryPointResolvableThroughIndex) {
  const auto d = make();
  const GridIndex g(d, eps());
  std::uint32_t coords[kMaxDims];
  for (std::size_t i = 0; i < d.size(); i += 7) {
    g.cell_coords(d.pt(i), coords);
    EXPECT_NE(g.find_cell(g.linearize(coords)), kEmptyCell);
  }
}

TEST_P(GridSweep, CellWidthCoversEps) {
  const auto d = make();
  const GridIndex g(d, eps());
  EXPECT_GE(g.cell_width(), g.eps());
  // Any two points within eps differ by at most one cell per dimension.
  std::uint32_t ca[kMaxDims], cb[kMaxDims];
  const double eps2 = eps() * eps();
  for (std::size_t i = 0; i < d.size(); i += 17) {
    for (std::size_t j = i + 1; j < std::min(d.size(), i + 40); ++j) {
      if (sq_dist(d.pt(i), d.pt(j), d.dim()) > eps2) continue;
      g.cell_coords(d.pt(i), ca);
      g.cell_coords(d.pt(j), cb);
      for (int k = 0; k < d.dim(); ++k) {
        EXPECT_LE(std::abs(static_cast<long>(ca[k]) -
                           static_cast<long>(cb[k])),
                  1);
      }
    }
  }
}

TEST_P(GridSweep, NonEmptyCellsBoundedByPoints) {
  const auto d = make();
  const GridIndex g(d, eps());
  EXPECT_LE(g.num_nonempty_cells(), d.size());
  EXPECT_GE(g.num_nonempty_cells(), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    DimsEpsKinds, GridSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 6),
                       ::testing::Values(0.5, 2.0, 8.0),
                       ::testing::Values("uniform", "clustered",
                                         "exponential")),
    [](const auto& info) {
      return "dim" + std::to_string(std::get<0>(info.param)) + "_eps" +
             std::to_string(static_cast<int>(std::get<1>(info.param) * 10)) +
             "_" + std::get<2>(info.param);
    });

}  // namespace
}  // namespace sj
