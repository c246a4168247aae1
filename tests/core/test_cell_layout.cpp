// Cell-major layout + cell-centric kernel: the reorder itself (original
// ids preserved through the slot -> id map), exactness on the edge cases
// that break reorder logic, run-twice determinism under starved buffers,
// exact batching on skewed data, and the dim <= kMaxDims guard.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <stdexcept>

#include "bruteforce/brute_force.hpp"
#include "common/datagen.hpp"
#include "core/batcher.hpp"
#include "core/device_view.hpp"
#include "core/grid_index.hpp"
#include "core/kernels.hpp"
#include "core/self_join.hpp"
#include "core/shard_plan.hpp"
#include "gpusim/arena.hpp"

namespace sj {
namespace {

GpuSelfJoinOptions cell_opts() {
  GpuSelfJoinOptions opt;
  opt.unicomp = false;
  opt.layout = GridLayout::kCellMajor;
  return opt;
}

TEST(CellMajorLayout, ReorderMatchesIndexAndKeepsOriginalIds) {
  const auto d = datagen::uniform(500, 3, 0.0, 50.0, 21);
  GridIndex index(d, 2.0);
  gpu::GlobalMemoryArena arena(gpu::DeviceSpec::titan_x_pascal());
  DeviceGrid dev(arena, d, index, GridLayout::kCellMajor);
  const GridDeviceView& v = dev.view();

  EXPECT_TRUE(v.cell_major);
  EXPECT_EQ(v.A, nullptr);  // identity — the indirection is gone
  EXPECT_EQ(v.points, nullptr);  // the planes are the only image
  EXPECT_EQ(v.B, nullptr);  // the host index resolves the candidates
  EXPECT_EQ(v.G, nullptr);
  EXPECT_EQ(v.M[0], nullptr);
  ASSERT_NE(v.orig, nullptr);

  // Slot k of every plane holds a coordinate of original point A[k], and
  // orig maps the slot back to that id.
  ASSERT_EQ(v.n, d.size());
  for (std::size_t k = 0; k < d.size(); ++k) {
    EXPECT_EQ(v.orig[k], index.A()[k]);
    for (int j = 0; j < v.dim; ++j) {
      EXPECT_EQ(v.coord[j][k], d.coord(index.A()[k], j)) << "slot " << k;
    }
  }

  // Every original id appears exactly once.
  std::vector<bool> seen(d.size(), false);
  for (std::size_t k = 0; k < d.size(); ++k) {
    ASSERT_LT(v.orig[k], d.size());
    EXPECT_FALSE(seen[v.orig[k]]);
    seen[v.orig[k]] = true;
  }

  // Within each cell the slots are exactly the G range, contiguous.
  double buf[kMaxDims];
  for (std::size_t cell = 0; cell < index.num_nonempty_cells(); ++cell) {
    const auto range = index.G()[cell];
    for (std::uint32_t k = range.min; k <= range.max; ++k) {
      std::uint32_t coords[kMaxDims];
      index.cell_coords(v.query_point(k, buf), coords);
      EXPECT_EQ(index.linearize(coords), index.B()[cell]);
    }
  }
}

TEST(CellMajorLayout, LegacyViewIsUnchanged) {
  const auto d = datagen::uniform(200, 2, 0.0, 20.0, 23);
  GridIndex index(d, 1.0);
  gpu::GlobalMemoryArena arena(gpu::DeviceSpec::titan_x_pascal());
  DeviceGrid dev(arena, d, index, GridLayout::kLegacy);
  const GridDeviceView& v = dev.view();
  EXPECT_FALSE(v.cell_major);
  EXPECT_EQ(v.orig, nullptr);
  ASSERT_NE(v.A, nullptr);
  EXPECT_EQ(std::memcmp(v.points, d.raw().data(),
                        d.raw().size() * sizeof(double)),
            0);
}

TEST(CellMajorLayout, EdgeCasesMatchBruteForce) {
  // Empty.
  EXPECT_TRUE(GpuSelfJoin(cell_opts()).run(Dataset(2), 1.0).pairs.empty());

  // Single point: the lone self pair.
  Dataset one(3, {1.0, 2.0, 3.0});
  auto single = GpuSelfJoin(cell_opts()).run(one, 0.5);
  ASSERT_EQ(single.pairs.size(), 1u);
  EXPECT_EQ(single.pairs.pairs()[0], (Pair{0, 0}));

  // eps = 0: co-located points only.
  Dataset co(2, {1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0});
  auto got0 = GpuSelfJoin(cell_opts()).run(co, 0.0);
  auto want0 = brute::self_join(co, 0.0);
  EXPECT_TRUE(ResultSet::equal_normalized(got0.pairs, want0.pairs));

  // All duplicates: one cell holding everything.
  Dataset dup(2);
  for (int i = 0; i < 40; ++i) {
    double p[2] = {7.0, -3.0};
    dup.push_back(p);
  }
  auto gotd = GpuSelfJoin(cell_opts()).run(dup, 0.5);
  EXPECT_EQ(gotd.pairs.size(), 40u * 40u);
  auto wantd = brute::self_join(dup, 0.5);
  EXPECT_TRUE(ResultSet::equal_normalized(gotd.pairs, wantd.pairs));
}

TEST(CellMajorLayout, RunTwiceIsByteIdenticalUnderOverflowStress) {
  const auto d = datagen::ippp(1500, 2, 32.0, 77);
  auto opt = cell_opts();
  opt.num_streams = 4;
  opt.max_buffer_pairs = 64;  // many batches, each within its buffer
  const auto first = GpuSelfJoin(opt).run(d, 1.0);
  const auto second = GpuSelfJoin(opt).run(d, 1.0);
  EXPECT_GE(first.stats.batch.batches_run, first.pairs.size() / 64);
  EXPECT_EQ(first.pairs.pairs(), second.pairs.pairs());
  // The starved buffer changes the batches, not the bytes.
  EXPECT_EQ(first.pairs.pairs(),
            GpuSelfJoin(cell_opts()).run(d, 1.0).pairs.pairs());
  const auto want = brute::self_join(d, 1.0);
  EXPECT_TRUE(ResultSet::equal_normalized(first.pairs, want.pairs));
}

TEST(CellMajorLayout, OversizedSingleCellSplitsDownToPoints) {
  // One dense clump in a single cell: the batches cut the cell by slot
  // range, down to single points, and must stay exact.
  Dataset d(2);
  for (int i = 0; i < 200; ++i) {
    double p[2] = {5.0 + 1e-4 * i, 5.0};
    d.push_back(p);
  }
  auto opt = cell_opts();
  opt.max_buffer_pairs = 256;  // 200 points -> 40000 pairs >> buffer
  const auto got = GpuSelfJoin(opt).run(d, 1.0);
  // 200 pairs per point: one point per batch.
  EXPECT_EQ(got.stats.batch.batches_run, 200u);
  const auto want = brute::self_join(d, 1.0);
  EXPECT_TRUE(ResultSet::equal_normalized(got.pairs, want.pairs));
}

TEST(CellMajorLayout, MaxDimBoundaryWorks) {
  const auto d = datagen::uniform(120, kMaxDims, 0.0, 10.0, 31);
  const auto got = GpuSelfJoin(cell_opts()).run(d, 4.0);
  const auto want = brute::self_join(d, 4.0);
  EXPECT_TRUE(ResultSet::equal_normalized(got.pairs, want.pairs));
}

// --- Per-cell work weights (the shard planner's) and the batch cut.

TEST(CellBatchPlanner, WeightsTrackSkewAndPartitionBalances) {
  // Strongly skewed data: a few cells carry most of the candidate volume.
  const auto d = datagen::ippp(2000, 2, 48.0, 91);
  const double eps = 1.0;
  GridIndex index(d, eps);

  const auto weights =
      build_group_adjacency(
          index,
          cell_groups(index, 0,
                      static_cast<std::uint32_t>(index.num_nonempty_cells())),
          false)
          .weights;
  ASSERT_EQ(weights.size(), index.num_nonempty_cells());
  const std::uint64_t total =
      std::accumulate(weights.begin(), weights.end(), std::uint64_t{0});
  ASSERT_GT(total, 0u);
  const std::uint64_t max_w = *std::max_element(weights.begin(),
                                                weights.end());
  // Skew: the heaviest cell far exceeds the mean.
  EXPECT_GT(max_w, 4 * total / weights.size());

  const auto boundaries = weighted_partition(weights, 8);
  ASSERT_EQ(boundaries.size(), 9u);
  // Boundaries are monotone, start at 0, end at the cell count.
  EXPECT_EQ(boundaries.front(), 0u);
  EXPECT_EQ(boundaries.back(), weights.size());
  for (std::size_t b = 0; b + 1 < boundaries.size(); ++b) {
    ASSERT_LT(boundaries[b], boundaries[b + 1]);
  }
  // Work balance: no part exceeds its fair share by more than one cell
  // (the greedy partition overshoots by at most the straddling cell).
  for (std::size_t b = 0; b + 1 < boundaries.size(); ++b) {
    std::uint64_t part_w = 0;
    for (std::uint32_t c = boundaries[b]; c < boundaries[b + 1]; ++c) {
      part_w += weights[c];
    }
    EXPECT_LE(part_w, total / 8 + max_w + 1) << "part " << b;
  }
}

TEST(CellBatchPlanner, HonoursMinBatchesAndCellCap) {
  // Offsets of 100 units holding 10 pairs each: min_batches rules.
  std::vector<std::uint64_t> offsets(101);
  for (std::size_t u = 0; u < offsets.size(); ++u) offsets[u] = 10 * u;
  EXPECT_EQ(plan_batches(offsets.data(), 100, 3, 1 << 20).size(), 4u);

  // Never more batches than units, whatever min_batches asks for.
  EXPECT_EQ(plan_batches(offsets.data(), 4, 8, 1 << 20).size(), 5u);

  // No units -> no batches.
  EXPECT_EQ(plan_batches(offsets.data(), 0, 3, 64).size(), 1u);
}

TEST(CellBatchPlanner, SkewedIpppJoinStaysExactWithManyBatches) {
  const auto d = datagen::ippp(2500, 2, 64.0, 93);
  auto opt = cell_opts();
  opt.min_batches = 13;
  const auto got = GpuSelfJoin(opt).run(d, 1.5);
  EXPECT_GE(got.stats.batch.batches_run, 13u);
  const auto want = brute::self_join(d, 1.5);
  EXPECT_TRUE(ResultSet::equal_normalized(got.pairs, want.pairs));
}

// --- The adjacency shared between planner and kernels.

TEST(CellAdjacencyBuild, RangesCoverExactlyTheKernelCandidates) {
  const auto d = datagen::uniform(400, 2, 0.0, 20.0, 37);
  GridIndex index(d, 1.0);

  for (bool unicomp : {false, true}) {
    const GroupAdjacencyHost adj = build_group_adjacency(
        index,
        cell_groups(index, 0,
                    static_cast<std::uint32_t>(index.num_nonempty_cells())),
        unicomp);
    ASSERT_EQ(adj.weights.size(), index.num_nonempty_cells());
    EXPECT_GT(adj.cells_examined, 0u);
    // offsets is a valid monotone CSR over ranges.
    for (std::size_t c = 0; c < adj.weights.size(); ++c) {
      ASSERT_LE(adj.offsets[c], adj.offsets[c + 1]);
      std::uint64_t candidates = 0;
      for (std::uint64_t r = adj.offsets[c]; r < adj.offsets[c + 1]; ++r) {
        const CandidateRange& cr = adj.ranges[r];
        ASSERT_LT(cr.begin, cr.end);
        ASSERT_LE(cr.end, d.size());
        candidates += static_cast<std::uint64_t>(cr.end - cr.begin) *
                      (cr.both != 0 ? 2 : 1);
      }
      const auto g = index.G()[c];
      EXPECT_EQ(adj.weights[c], candidates * (g.max - g.min + 1u));
    }
  }
}

TEST(GridIndexGuards, SharedLinearizeMatchesBetweenHostAndView) {
  const auto d = datagen::uniform(300, 4, 0.0, 30.0, 41);
  GridIndex index(d, 2.0);
  gpu::GlobalMemoryArena arena(gpu::DeviceSpec::titan_x_pascal());
  DeviceGrid dev(arena, d, index, GridLayout::kCellMajor);
  std::uint32_t coords[kMaxDims] = {3, 1, 4, 1};
  EXPECT_EQ(dev.view().linearize(coords), index.linearize(coords));
  // Both call the one shared helper.
  std::uint64_t stride[kMaxDims];
  for (int j = 0; j < 4; ++j) stride[j] = index.stride(j);
  EXPECT_EQ(linearize_cell(coords, stride, 4), index.linearize(coords));
}

}  // namespace
}  // namespace sj
