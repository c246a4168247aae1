// The group adjacency builder gives the same bytes however a cell is
// looked up, however the groups are split and however many threads
// resolve them: the index's cell table against the binary search of B,
// the whole build against a chunklet split, one thread against the
// default team, and the radix grouping of join queries against a
// comparison sort. A grid over the cell-table budget keeps no table and
// still matches the brute-force oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bruteforce/brute_force.hpp"
#include "common/datagen.hpp"
#include "core/grid_index.hpp"
#include "core/join.hpp"
#include "core/kernels.hpp"
#include "core/self_join.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace sj {
namespace {

/// Every field of two builds but the wall time.
void expect_identical(const GroupAdjacencyHost& a, const GroupAdjacencyHost& b,
                      const std::string& what) {
  EXPECT_EQ(a.query_order, b.query_order) << what;
  EXPECT_EQ(a.group_offsets, b.group_offsets) << what;
  ASSERT_EQ(a.ranges.size(), b.ranges.size()) << what;
  EXPECT_EQ(0, std::memcmp(a.ranges.data(), b.ranges.data(),
                           a.ranges.size() * sizeof(CandidateRange)))
      << what;
  EXPECT_EQ(a.offsets, b.offsets) << what;
  EXPECT_EQ(a.weights, b.weights) << what;
  EXPECT_EQ(a.cells_examined, b.cells_examined) << what;
  EXPECT_EQ(a.cells_nonempty, b.cells_nonempty) << what;
}

/// One input of the sweep: an index over `data` and a query set reaching
/// past the data bounds (those queries land in the empty padding cells at
/// the grid's edges).
struct Case {
  std::string name;
  Dataset data;
  Dataset queries;
  double eps;
};

/// Dims 1-6 x uniform and IPPP data. Cell widths keep every grid at a few
/// hundred to a few thousand non-empty cells — many build chunks — and
/// within the cell-table budget.
std::vector<Case> sweep() {
  const double eps_by_dim[] = {0.25, 4.0, 12.0, 25.0, 35.0, 40.0};
  std::vector<Case> cases;
  for (int dim = 1; dim <= 6; ++dim) {
    const double eps = eps_by_dim[dim - 1];
    const auto seed = static_cast<std::uint64_t>(dim);
    Dataset queries = datagen::uniform(700, dim, -20.0, 120.0, 70 + seed);
    cases.push_back({"uniform dim " + std::to_string(dim),
                     datagen::uniform(1500, dim, 0.0, 100.0, 10 + seed),
                     queries, eps});
    cases.push_back({"ippp dim " + std::to_string(dim),
                     datagen::ippp(1500, dim, 32.0, 40 + seed), queries,
                     eps});
  }
  return cases;
}

QueryGroups self_groups(const GridIndex& index) {
  return cell_groups(
      index, 0, static_cast<std::uint32_t>(index.num_nonempty_cells()));
}

TEST(AdjacencyParity, CellTableMatchesBinarySearch) {
  // The builder's only cell lookup is GridIndex::find_cell, so the table
  // and the search agree on every adjacency when they agree on every cell
  // of the grid.
  for (const Case& c : sweep()) {
    const GridIndex index(c.data, c.eps);
    const std::vector<std::uint32_t>& table = index.cell_table();
    ASSERT_EQ(table.size(), index.total_cells()) << c.name;
    // More groups than two build chunks of 64.
    ASSERT_GT(index.num_nonempty_cells(), 128u) << c.name;
    const std::vector<std::uint64_t>& B = index.B();
    for (std::uint64_t id = 0; id < table.size(); ++id) {
      const auto it = std::lower_bound(B.begin(), B.end(), id);
      const std::uint32_t searched =
          it != B.end() && *it == id ? static_cast<std::uint32_t>(it - B.begin())
                                     : kEmptyCell;
      ASSERT_EQ(index.find_cell(id), searched) << c.name << " cell " << id;
    }
  }
}

TEST(AdjacencyParity, ChunkletSplitMatchesWholeBuild) {
  for (const Case& c : sweep()) {
    const GridIndex index(c.data, c.eps);
    const auto b = static_cast<std::uint32_t>(index.num_nonempty_cells());
    const std::uint32_t k = b / 3 + 5;  // not on a chunk boundary
    for (bool unicomp : {false, true}) {
      const GroupAdjacencyHost whole =
          build_group_adjacency(index, cell_groups(index, 0, b), unicomp);
      const GroupAdjacencyHost head =
          build_group_adjacency(index, cell_groups(index, 0, k), unicomp);
      const GroupAdjacencyHost tail =
          build_group_adjacency(index, cell_groups(index, k, b), unicomp);

      // Concatenate: group offsets are slots already; range offsets are
      // rebased past the head's ranges.
      GroupAdjacencyHost joined = head;
      joined.group_offsets.insert(joined.group_offsets.end(),
                                  tail.group_offsets.begin() + 1,
                                  tail.group_offsets.end());
      joined.ranges.insert(joined.ranges.end(), tail.ranges.begin(),
                           tail.ranges.end());
      for (std::size_t g = 1; g < tail.offsets.size(); ++g) {
        joined.offsets.push_back(head.ranges.size() + tail.offsets[g]);
      }
      joined.weights.insert(joined.weights.end(), tail.weights.begin(),
                            tail.weights.end());
      joined.cells_examined += tail.cells_examined;
      joined.cells_nonempty += tail.cells_nonempty;
      expect_identical(whole, joined,
                       c.name + (unicomp ? " unicomp" : " full"));
    }
  }
}

TEST(AdjacencyParity, OneThreadMatchesDefaultTeam) {
  for (const Case& c : sweep()) {
    const GridIndex index(c.data, c.eps);
    for (bool unicomp : {false, true}) {
      const GroupAdjacencyHost self_team =
          build_group_adjacency(index, self_groups(index), unicomp);
      const GroupAdjacencyHost join_team = build_group_adjacency(
          index, sorted_query_groups(index, c.queries), unicomp);
#ifdef _OPENMP
      const int team = omp_get_max_threads();
      omp_set_num_threads(1);
#endif
      const GroupAdjacencyHost self_one =
          build_group_adjacency(index, self_groups(index), unicomp);
      const GroupAdjacencyHost join_one = build_group_adjacency(
          index, sorted_query_groups(index, c.queries), unicomp);
#ifdef _OPENMP
      omp_set_num_threads(team);
#endif
      const std::string what = c.name + (unicomp ? " unicomp" : " full");
      expect_identical(self_team, self_one, what + " self groups");
      expect_identical(join_team, join_one, what + " join groups");
    }
  }
}

TEST(AdjacencyParity, RadixGroupingMatchesComparisonSort) {
  for (const Case& c : sweep()) {
    const GridIndex index(c.data, c.eps);
    const QueryGroups got = sorted_query_groups(index, c.queries);

    std::vector<std::pair<std::uint64_t, std::uint32_t>> keys;
    std::uint32_t coords[kMaxDims];
    for (std::size_t q = 0; q < c.queries.size(); ++q) {
      index.cell_coords(c.queries.pt(q), coords);
      keys.emplace_back(index.linearize(coords),
                        static_cast<std::uint32_t>(q));
    }
    std::sort(keys.begin(), keys.end());
    QueryGroups want;
    for (std::size_t pos = 0; pos < keys.size(); ++pos) {
      want.query_order.push_back(keys[pos].second);
      if (pos == 0 || keys[pos].first != keys[pos - 1].first) {
        want.group_offsets.push_back(static_cast<std::uint32_t>(pos));
        want.home_cells.push_back(keys[pos].first);
      }
    }
    want.group_offsets.push_back(static_cast<std::uint32_t>(keys.size()));

    EXPECT_EQ(got.query_order, want.query_order) << c.name;
    EXPECT_EQ(got.group_offsets, want.group_offsets) << c.name;
    EXPECT_EQ(got.home_cells, want.home_cells) << c.name;
  }
}

/// Two tight clusters 1000 units apart under a small eps: ~2.5e9 grid
/// cells for 400 points, far over the O(|D|) cell-table budget.
Dataset far_clusters() {
  Dataset a = datagen::uniform(200, 2, 0.0, 0.2, 91);
  const Dataset b = datagen::uniform(200, 2, 1000.0, 1000.2, 92);
  a.raw().insert(a.raw().end(), b.raw().begin(), b.raw().end());
  return a;
}

TEST(AdjacencyParity, OverBudgetGridStagesNoTableAndMatchesBrute) {
  const Dataset d = far_clusters();
  const double eps = 0.02;
  GridIndex index(d, eps);
  ASSERT_GT(index.total_cells(),
            std::max(kCellTableMinEntries,
                     kCellTableEntriesPerPoint * index.num_points()));
  EXPECT_TRUE(index.cell_table().empty());

  GpuSelfJoinOptions opt;
  opt.unicomp = true;
  const GpuJoinResult self = GpuSelfJoin(opt).run(d, eps);
  ASSERT_GT(self.total_pairs, d.size());  // pairs beyond the self pairs
  EXPECT_TRUE(
      ResultSet::equal_normalized(self.pairs, brute::self_join(d, eps).pairs));

  const Dataset queries = datagen::uniform(300, 2, -0.1, 0.3, 93);
  const GpuJoinResult join = gpu_join(queries, d, eps);
  ASSERT_GT(join.total_pairs, 0u);
  EXPECT_TRUE(ResultSet::equal_normalized(
      join.pairs, brute::join(queries, d, eps).pairs));
}

}  // namespace
}  // namespace sj
