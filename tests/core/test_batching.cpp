// Batching scheme (Section V-A) with exact two-pass output: the batch cut
// from exact counts, the >= 3 batch minimum, buffer-bounded batches, and
// exactness under severe memory pressure.
#include "core/batcher.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "bruteforce/brute_force.hpp"
#include "common/datagen.hpp"
#include "core/batch_pipeline.hpp"
#include "core/device_view.hpp"
#include "core/grid_index.hpp"
#include "core/kernels.hpp"
#include "core/self_join.hpp"

namespace sj {
namespace {

/// Exclusive prefix sum of per-unit pair counts (units + 1 entries).
std::vector<std::uint64_t> offsets_of(const std::vector<std::uint64_t>& counts) {
  std::vector<std::uint64_t> offsets(counts.size() + 1, 0);
  std::partial_sum(counts.begin(), counts.end(), offsets.begin() + 1);
  return offsets;
}

std::vector<std::uint32_t> plan(const std::vector<std::uint64_t>& counts,
                                std::size_t min_batches,
                                std::uint64_t buffer_pairs) {
  return plan_batches(offsets_of(counts).data(),
                      static_cast<std::uint32_t>(counts.size()), min_batches,
                      buffer_pairs);
}

TEST(BatchPlan, MinimumThreeBatches) {
  // A tiny result: volume alone would need 1 batch, the paper forces 3.
  const auto bounds = plan(std::vector<std::uint64_t>(1000, 1), 3, 1 << 20);
  EXPECT_EQ(bounds.size() - 1, 3u);
}

TEST(BatchPlan, VolumeDrivenBatchCount) {
  // 10M pairs over 100k units into 1M-pair buffers: exactly ceil(10M/1M)
  // batches, since the exact counts need no safety margin.
  const auto bounds =
      plan(std::vector<std::uint64_t>(100000, 100), 3, 1'000'000);
  EXPECT_EQ(bounds.size() - 1, 10u);
}

TEST(BatchPlan, NeverMoreBatchesThanQueries) {
  const auto bounds = plan(std::vector<std::uint64_t>(5, 2), 8, 1 << 20);
  EXPECT_EQ(bounds, (std::vector<std::uint32_t>{0, 1, 2, 3, 4, 5}));
}

TEST(BatchPlan, EveryBatchFitsTheBuffer) {
  // A heavy unit among light ones: the balanced cut overshoots next to
  // it, and the greedy split must keep every batch within the buffer.
  std::vector<std::uint64_t> counts(200, 3);
  counts[77] = 90;
  const auto offsets = offsets_of(counts);
  const auto bounds = plan_batches(offsets.data(), 200, 3, 100);
  ASSERT_EQ(bounds.front(), 0u);
  ASSERT_EQ(bounds.back(), 200u);
  EXPECT_GE(bounds.size() - 1, 3u);
  for (std::size_t b = 0; b + 1 < bounds.size(); ++b) {
    ASSERT_LT(bounds[b], bounds[b + 1]);
    EXPECT_LE(offsets[bounds[b + 1]] - offsets[bounds[b]], 100u) << b;
  }
}

TEST(BatchPlan, UnitOverTheBufferThrowsNamingTheBatch) {
  std::vector<std::uint64_t> counts(10, 1);
  counts[6] = 40;
  try {
    (void)plan(counts, 1, 32);
    FAIL() << "expected DeviceOutOfMemory";
  } catch (const gpu::DeviceOutOfMemory& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("batch 1 (unit 6)"), std::string::npos) << what;
  }
}

TEST(Batching, ManyBatchesProduceExactResult) {
  const auto d = datagen::uniform(3000, 2, 0.0, 100.0, 5);
  GpuSelfJoinOptions opt;
  opt.min_batches = 17;  // force an unusual batch count
  auto got = GpuSelfJoin(opt).run(d, 3.0);
  const auto want = brute::self_join(d, 3.0);
  EXPECT_TRUE(ResultSet::equal_normalized(got.pairs, want.pairs));
  EXPECT_GE(got.stats.batch.batches_run, 17u);
}

TEST(Batching, TinyBuffersForceOverflowSplitsButStayExact) {
  const auto d = datagen::uniform(2000, 2, 0.0, 100.0, 7);
  GpuSelfJoinOptions opt;
  // A deliberately absurd undersized buffer: 64 pairs. The exact counts
  // cut the join into as many batches as that takes, each within it.
  opt.max_buffer_pairs = 64;
  auto got = GpuSelfJoin(opt).run(d, 2.0);
  const auto want = brute::self_join(d, 2.0);
  EXPECT_TRUE(ResultSet::equal_normalized(got.pairs, want.pairs));
  EXPECT_GE(got.stats.batch.batches_run, want.pairs.size() / 64);
}

TEST(Batching, ShrinkingBufferAddsBatchesNotBytes) {
  const auto d = datagen::uniform(2000, 2, 0.0, 100.0, 9);
  std::size_t previous_batches = 0;
  ResultSet reference;
  for (const std::uint64_t buffer : {1ULL << 24, 1024ULL, 256ULL, 64ULL}) {
    GpuSelfJoinOptions opt;
    opt.max_buffer_pairs = buffer;
    const auto r = GpuSelfJoin(opt).run(d, 2.0);
    EXPECT_GT(r.stats.batch.batches_run, previous_batches) << buffer;
    previous_batches = r.stats.batch.batches_run;
    if (buffer == 1ULL << 24) {
      reference = r.pairs;
    } else {
      EXPECT_EQ(r.pairs.pairs(), reference.pairs()) << buffer;
    }
  }
}

TEST(Batching, SmallDeviceMemoryStillExact) {
  // A 2 MiB device: data + index + buffers must all fit, exercising the
  // capacity-aware buffer sizing.
  const auto d = datagen::uniform(4000, 2, 0.0, 100.0, 11);
  GpuSelfJoinOptions opt;
  opt.device = gpu::DeviceSpec::tiny(2 << 20);
  auto got = GpuSelfJoin(opt).run(d, 1.0);
  const auto want = brute::self_join(d, 1.0);
  EXPECT_TRUE(ResultSet::equal_normalized(got.pairs, want.pairs));
}

TEST(Batching, ThrowsWhenDatasetItselfExceedsDevice) {
  const auto d = datagen::uniform(100000, 4, 0.0, 100.0, 13);
  GpuSelfJoinOptions opt;
  opt.device = gpu::DeviceSpec::tiny(1 << 20);  // 1 MiB: data cannot fit
  EXPECT_THROW(GpuSelfJoin(opt).run(d, 1.0), gpu::DeviceOutOfMemory);
}

TEST(Batching, TransferAccountingIsConsistent) {
  const auto d = datagen::uniform(3000, 2, 0.0, 100.0, 15);
  GpuSelfJoinOptions opt;
  auto r = GpuSelfJoin(opt).run(d, 2.0);
  // Every result pair crossed the link exactly once.
  EXPECT_EQ(r.stats.batch.bytes_to_host, r.pairs.size() * sizeof(Pair));
  EXPECT_GT(r.stats.batch.modeled_transfer_seconds, 0.0);
}

TEST(Batching, StreamCountDoesNotChangeResult) {
  const auto d = datagen::uniform(2000, 3, 0.0, 100.0, 17);
  ResultSet reference;
  for (int streams : {1, 2, 3, 6}) {
    GpuSelfJoinOptions opt;
    opt.num_streams = streams;
    auto r = GpuSelfJoin(opt).run(d, 3.0);
    if (streams == 1) {
      reference = std::move(r.pairs);
    } else {
      EXPECT_EQ(reference.pairs(), r.pairs.pairs()) << streams << " streams";
    }
  }
}

TEST(Batching, AssemblyOrderIsDeterministicAcrossRuns) {
  // Every unit's output offset is fixed by the count pass, so two runs
  // with many batches on 4 streams produce byte-identical raw pair
  // vectors — also under the SJ_FAULTS chaos sweep, whose retries and
  // halvings differ between the runs but write the same bytes.
  const auto d = datagen::ippp(1500, 2, 32.0, 23);
  GpuSelfJoinOptions opt;
  opt.num_streams = 4;
  opt.max_buffer_pairs = 64;
  auto first = GpuSelfJoin(opt).run(d, 1.0);
  auto second = GpuSelfJoin(opt).run(d, 1.0);
  EXPECT_GT(first.stats.batch.batches_run, 3u);
  EXPECT_EQ(first.pairs.pairs(), second.pairs.pairs());
}

// Isolated points on the legacy (point-centric) layout: every point's
// only neighbour is itself, one pair per query.
Dataset isolated_points(int n) {
  Dataset d(2);
  for (int i = 0; i < n; ++i) {
    const double p[2] = {10.0 * i, 0.0};
    d.push_back(p);
  }
  return d;
}

PipelineOutput run_point_pipeline(const Dataset& d, double eps,
                                  PipelineConfig config, BatchRunStats* stats) {
  GridIndex index(d, eps);
  gpu::GlobalMemoryArena arena(gpu::DeviceSpec::titan_x_pascal());
  DeviceGrid dev(arena, d, index, GridLayout::kLegacy);
  BatchPipeline pipeline(arena, gpu::DeviceSpec::titan_x_pascal(), config);
  AtomicWork work;
  return pipeline.run(ResultRequest{}, dev.view(), /*unicomp=*/false, &work,
                      stats);
}

TEST(Batching, OnePairBufferRunsOneBatchPerPoint) {
  const auto d = isolated_points(48);
  const auto want = brute::self_join(d, 1.0);
  PipelineConfig config;
  config.max_buffer_pairs = 1;
  BatchRunStats stats;
  const auto got = run_point_pipeline(d, 1.0, config, &stats);
  EXPECT_EQ(stats.batches_run, d.size());
  EXPECT_TRUE(ResultSet::equal_normalized(got.pairs, want.pairs));
}

TEST(Batching, FatalOverflowRequiresUnsplittableSinglePoint) {
  // DeviceOutOfMemory only when a SINGLE point's neighbourhood exceeds
  // the buffer: a duplicate of point 0 gives two points 2 pairs each
  // against a 1-pair buffer.
  auto d = isolated_points(16);
  const double dup[2] = {0.0, 0.0};
  d.push_back(dup);
  PipelineConfig config;
  config.max_buffer_pairs = 1;
  EXPECT_THROW(run_point_pipeline(d, 1.0, config, nullptr),
               gpu::DeviceOutOfMemory);
  config.max_buffer_pairs = 2;
  EXPECT_EQ(run_point_pipeline(d, 1.0, config, nullptr).total_pairs, 19u);
}

// --- Direct BatchPipeline coverage of the grouped mode.

TEST(BatchPipelineDirect, OnePairBufferRecoversViaSplitsExactly) {
  // Nonzero pairs against a 1-pair buffer: the exact counts cut one
  // batch per point (one self pair each), which then fits exactly.
  const auto d = isolated_points(64);
  const double eps = 1.0;
  GridIndex index(d, eps);
  gpu::GlobalMemoryArena arena(gpu::DeviceSpec::titan_x_pascal());
  DeviceGrid dev(arena, d, index, GridLayout::kCellMajor);
  const GroupAdjacency adjacency = upload_group_adjacency(
      arena, build_group_adjacency(
                 index,
                 cell_groups(index, 0,
                             static_cast<std::uint32_t>(
                                 index.num_nonempty_cells())),
                 /*unicomp=*/false));

  PipelineConfig config;
  config.num_streams = 3;
  config.max_buffer_pairs = 1;
  BatchPipeline pipeline(arena, gpu::DeviceSpec::titan_x_pascal(), config);
  AtomicWork work;
  BatchRunStats stats;
  auto got = pipeline
                 .run_groups(ResultRequest{}, dev.view(), adjacency, &work,
                             &stats)
                 .pairs;

  EXPECT_EQ(stats.batches_run, d.size());
  got.normalize();
  ASSERT_EQ(got.size(), d.size());
  for (std::uint32_t i = 0; i < d.size(); ++i) {
    EXPECT_EQ(got.pairs()[i], (Pair{i, i}));
  }
}

TEST(BatchPipelineDirect, FatalOverflowOnlyOnUnsplittableSinglePoint) {
  // Two co-located points: each produces TWO pairs, which cannot fit a
  // 1-pair buffer no matter how the batches are cut.
  auto d = isolated_points(16);
  const double dup[2] = {0.0, 0.0};  // duplicates point 0
  d.push_back(dup);
  const double eps = 1.0;
  GridIndex index(d, eps);
  gpu::GlobalMemoryArena arena(gpu::DeviceSpec::titan_x_pascal());
  DeviceGrid dev(arena, d, index, GridLayout::kCellMajor);
  const GroupAdjacency adjacency = upload_group_adjacency(
      arena, build_group_adjacency(
                 index,
                 cell_groups(index, 0,
                             static_cast<std::uint32_t>(
                                 index.num_nonempty_cells())),
                 /*unicomp=*/false));

  PipelineConfig config;
  config.num_streams = 2;
  config.max_buffer_pairs = 1;
  BatchPipeline pipeline(arena, gpu::DeviceSpec::titan_x_pascal(), config);
  AtomicWork work;
  EXPECT_THROW(pipeline.run_groups(ResultRequest{}, dev.view(), adjacency,
                                   &work, nullptr),
               gpu::DeviceOutOfMemory);
}

TEST(BatchPipelineDirect, PointCentricRunRejectsCellMajorGrid) {
  // The point-centric kernel reads legacy rows; a cell-major grid has
  // only coordinate planes and runs through run_groups.
  const auto d = isolated_points(8);
  GridIndex index(d, 1.0);
  gpu::GlobalMemoryArena arena(gpu::DeviceSpec::titan_x_pascal());
  DeviceGrid dev(arena, d, index, GridLayout::kCellMajor);
  BatchPipeline pipeline(arena, gpu::DeviceSpec::titan_x_pascal(),
                         PipelineConfig{});
  AtomicWork work;
  EXPECT_THROW(pipeline.run(ResultRequest{}, dev.view(), /*unicomp=*/false,
                            &work, nullptr),
               std::invalid_argument);
}

TEST(Batching, EachQuerysPairsAreContiguousInScanOrder) {
  // Without UNICOMP every pair a unit emits carries the unit's own key:
  // the point-centric output is then sorted by key (units are original
  // ids), and the cell-major output keeps each key in one contiguous run.
  const auto d = datagen::uniform(500, 2, 0.0, 50.0, 19);
  for (const GridLayout layout : {GridLayout::kLegacy, GridLayout::kCellMajor}) {
    GpuSelfJoinOptions opt;
    opt.unicomp = false;
    opt.layout = layout;
    const auto r = GpuSelfJoin(opt).run(d, 1.0);
    const auto& pairs = r.pairs.pairs();
    std::vector<bool> closed(d.size(), false);
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      if (i > 0 && pairs[i].key != pairs[i - 1].key) {
        closed[pairs[i - 1].key] = true;
        if (layout == GridLayout::kLegacy) {
          EXPECT_LT(pairs[i - 1].key, pairs[i].key);
        }
      }
      EXPECT_FALSE(closed[pairs[i].key]) << "key " << pairs[i].key;
    }
    auto copy = r.pairs;
    copy.normalize();
    EXPECT_EQ(copy.size(), r.pairs.size());  // no duplicates across batches
  }
}

}  // namespace
}  // namespace sj
