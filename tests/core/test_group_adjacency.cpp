// The group adjacency builder gives the same bytes however a cell is
// looked up, however the groups are split and however many threads
// resolve them: the staged cell table against the binary search of B, the
// whole build against a chunklet split, one thread against the default
// team, and the radix grouping of join queries against a comparison sort.
// A grid over the cell-table budget stages no table and still matches the
// brute-force oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bruteforce/brute_force.hpp"
#include "common/datagen.hpp"
#include "core/device_view.hpp"
#include "core/grid_index.hpp"
#include "core/join.hpp"
#include "core/kernels.hpp"
#include "core/self_join.hpp"
#include "gpusim/arena.hpp"

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

/// One input of the sweep: a staged cell-major grid over `data` and a
/// query set reaching past the data bounds (those queries land in the
/// empty padding cells at the grid's edges).
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

/// A case's data indexed and staged cell-major, as the engines stage it.
struct Staged {
  explicit Staged(const Case& c)
      : index(c.data, c.eps),
        dev(arena, c.data, index, GridLayout::kCellMajor) {}
  GridIndex index;
  gpu::GlobalMemoryArena arena{gpu::DeviceSpec::titan_x_pascal()};
  DeviceGrid dev;
};

QueryGroups self_groups(const GridDeviceView& v) {
  return cell_groups(v, 0, static_cast<std::uint32_t>(v.b_size));
}

/// `v` over an external query set.
GridDeviceView with_queries(GridDeviceView v, const Dataset& queries) {
  v.qpoints = queries.raw().data();
  v.qn = queries.size();
  return v;
}

TEST(AdjacencyParity, CellTableMatchesBinarySearch) {
  for (const Case& c : sweep()) {
    const Staged s(c);
    const GridDeviceView& table = s.dev.view();
    ASSERT_NE(table.cell_table, nullptr) << c.name;
    // More groups than two build chunks of 64.
    ASSERT_GT(table.b_size, 128u) << c.name;
    GridDeviceView searched = table;
    searched.cell_table = nullptr;
    const GridDeviceView jtable = with_queries(table, c.queries);
    const GridDeviceView jsearched = with_queries(searched, c.queries);
    for (bool unicomp : {false, true}) {
      const std::string what = c.name + (unicomp ? " unicomp" : " full");
      expect_identical(
          build_group_adjacency(table, self_groups(table), unicomp),
          build_group_adjacency(searched, self_groups(searched), unicomp),
          what + " self groups");
      expect_identical(
          build_group_adjacency(jtable, sorted_query_groups(jtable), unicomp),
          build_group_adjacency(jsearched, sorted_query_groups(jsearched),
                                unicomp),
          what + " join groups");
    }
  }
}

TEST(AdjacencyParity, ChunkletSplitMatchesWholeBuild) {
  for (const Case& c : sweep()) {
    const Staged s(c);
    const GridDeviceView& v = s.dev.view();
    const auto b = static_cast<std::uint32_t>(v.b_size);
    const std::uint32_t k = b / 3 + 5;  // not on a chunk boundary
    for (bool unicomp : {false, true}) {
      const GroupAdjacencyHost whole =
          build_group_adjacency(v, cell_groups(v, 0, b), unicomp);
      const GroupAdjacencyHost head =
          build_group_adjacency(v, cell_groups(v, 0, k), unicomp);
      const GroupAdjacencyHost tail =
          build_group_adjacency(v, cell_groups(v, k, b), unicomp);

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
    const Staged s(c);
    const GridDeviceView& v = s.dev.view();
    const GridDeviceView jv = with_queries(v, c.queries);
    for (bool unicomp : {false, true}) {
      const GroupAdjacencyHost self_team =
          build_group_adjacency(v, self_groups(v), unicomp);
      const GroupAdjacencyHost join_team =
          build_group_adjacency(jv, sorted_query_groups(jv), unicomp);
#ifdef _OPENMP
      const int team = omp_get_max_threads();
      omp_set_num_threads(1);
#endif
      const GroupAdjacencyHost self_one =
          build_group_adjacency(v, self_groups(v), unicomp);
      const GroupAdjacencyHost join_one =
          build_group_adjacency(jv, sorted_query_groups(jv), unicomp);
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
    const Staged s(c);
    const GridDeviceView v = with_queries(s.dev.view(), c.queries);
    const QueryGroups got = sorted_query_groups(v);

    std::vector<std::pair<std::uint64_t, std::uint32_t>> keys;
    std::uint32_t coords[kMaxDims];
    for (std::size_t q = 0; q < c.queries.size(); ++q) {
      s.index.cell_coords(c.queries.pt(q), coords);
      keys.emplace_back(s.index.linearize(coords),
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
  EXPECT_TRUE(make_cell_table(index).empty());
  gpu::GlobalMemoryArena arena(gpu::DeviceSpec::titan_x_pascal());
  DeviceGrid dev(arena, d, index, GridLayout::kCellMajor);
  EXPECT_EQ(dev.view().cell_table, nullptr);

  GpuSelfJoinOptions opt;
  opt.unicomp = true;
  const SelfJoinResult self = GpuSelfJoin(opt).run(d, eps);
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
