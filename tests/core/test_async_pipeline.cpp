// gpu_async / BatchPipeline: parity on skewed data, raw-output
// determinism across configs and runs, exact batching under starved
// buffers, fatal-overflow behaviour, and the registry adapter's knobs.
#include "core/async_self_join.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "api/registry.hpp"
#include "bruteforce/brute_force.hpp"
#include "common/datagen.hpp"
#include "core/batch_pipeline.hpp"
#include "core/device_view.hpp"
#include "core/grid_index.hpp"
#include "core/kernels.hpp"
#include "core/self_join.hpp"
#include "gpusim/arena.hpp"

namespace sj {
namespace {

AsyncSelfJoinOptions async_opts(int streams) {
  AsyncSelfJoinOptions opt;
  opt.unicomp = false;  // mirror the "gpu" backend
  opt.num_streams = streams;
  return opt;
}

TEST(AsyncPipeline, ParityWithBruteOnSkewedClusteredData) {
  struct Case {
    const char* name;
    Dataset data;
  };
  const Case cases[] = {
      {"ippp", datagen::ippp(1500, 2, 32.0, 71)},
      {"gaussian_x8", datagen::gaussian_mixture(1500, 2, 8, 2.0, 0.0, 100.0,
                                                72)},
      {"sw_stations", datagen::sw_like(1200, 2, 73)},
  };
  for (const auto& c : cases) {
    const auto want = brute::self_join(c.data, 1.0);
    auto got = AsyncGpuSelfJoin(async_opts(3)).run(c.data, 1.0);
    EXPECT_TRUE(ResultSet::equal_normalized(got.pairs, want.pairs)) << c.name;
  }
}

TEST(AsyncPipeline, IdenticalSortedPairSetAsGpuBackend) {
  const auto d = datagen::ippp(1200, 2, 16.0, 5);
  const auto& registry = api::BackendRegistry::instance();
  for (double eps : {0.25, 1.0, 4.0}) {
    const auto gpu = registry.at("gpu").run(d, eps).pairs;
    const auto async = registry.at("gpu_async").run(d, eps).pairs;
    // Same pipeline, same unicomp setting: the raw bytes agree.
    EXPECT_EQ(gpu.pairs(), async.pairs()) << "eps=" << eps;
  }
}

// streams=1 must degenerate to the serial result — and because every
// unit's output offset is fixed by the count pass, every other stream
// count, buffer size and batch count produces the same RAW pair order.
TEST(AsyncPipeline, ConfigSweepDegeneratesToSerialRawOutput) {
  const auto d = datagen::ippp(1200, 2, 24.0, 11);
  const double eps = 1.5;

  GpuSelfJoinOptions serial_opt;
  serial_opt.unicomp = false;
  serial_opt.num_streams = 1;
  serial_opt.max_buffer_pairs = 2048;
  serial_opt.min_batches = 5;
  const auto serial = GpuSelfJoin(serial_opt).run(d, eps);

  for (int streams : {1, 2, 4}) {
    for (const std::uint64_t buffer : {256ULL, 2048ULL, 1ULL << 24}) {
      auto opt = async_opts(streams);
      opt.max_buffer_pairs = buffer;
      opt.min_batches = static_cast<std::size_t>(streams + 2);
      const auto got = AsyncGpuSelfJoin(opt).run(d, eps);
      EXPECT_EQ(got.pairs.pairs(), serial.pairs.pairs())
          << streams << " streams, " << buffer << "-pair buffers";
    }
  }
}

TEST(AsyncPipeline, DeterministicAcrossRunsUnderOverflowStress) {
  const auto d = datagen::ippp(1500, 2, 32.0, 23);
  auto opt = async_opts(4);
  opt.max_buffer_pairs = 64;  // many batches, each filling its buffer
  const auto first = AsyncGpuSelfJoin(opt).run(d, 1.0);
  const auto second = AsyncGpuSelfJoin(opt).run(d, 1.0);
  EXPECT_GT(first.stats.batch.batches_run, first.pairs.size() / 64);
  // Byte-identical even under the SJ_FAULTS chaos sweep: the runs see
  // different fault placements, but every re-run range writes the same
  // bytes at the same offsets.
  EXPECT_EQ(first.pairs.pairs(), second.pairs.pairs());

  const auto want = brute::self_join(d, 1.0);
  EXPECT_TRUE(ResultSet::equal_normalized(first.pairs, want.pairs));
}

TEST(AsyncPipeline, TinyBuffersStayExactOnSkewedData) {
  const auto d = datagen::ippp(1200, 2, 48.0, 31);
  auto opt = async_opts(3);
  opt.max_buffer_pairs = 64;
  const auto got = AsyncGpuSelfJoin(opt).run(d, 2.0);
  const auto want = brute::self_join(d, 2.0);
  EXPECT_TRUE(ResultSet::equal_normalized(got.pairs, want.pairs));
}

TEST(AsyncPipeline, EmptyAndSinglePointDatasets) {
  EXPECT_TRUE(
      AsyncGpuSelfJoin(async_opts(2)).run(Dataset(2), 1.0).pairs.empty());
  Dataset one(3, {1.0, 2.0, 3.0});
  auto got = AsyncGpuSelfJoin(async_opts(2)).run(one, 0.5);
  ASSERT_EQ(got.pairs.size(), 1u);
  EXPECT_EQ(got.pairs.pairs()[0], (Pair{0, 0}));
}

TEST(AsyncPipeline, AssemblyStatsArePopulated) {
  const auto d = datagen::uniform(2000, 2, 0.0, 100.0, 41);
  const auto r = AsyncGpuSelfJoin(async_opts(3)).run(d, 2.0);
  EXPECT_GE(r.stats.batch.batches_run, 3u);  // paper minimum
  EXPECT_EQ(r.stats.batch.bytes_to_host, r.pairs.size() * sizeof(Pair));
  EXPECT_GT(r.stats.batch.modeled_transfer_seconds, 0.0);
}

TEST(AsyncPipeline, RejectsBadOptions) {
  EXPECT_THROW(AsyncGpuSelfJoin(async_opts(0)), std::invalid_argument);
  auto no_batches = async_opts(1);
  no_batches.min_batches = 0;
  EXPECT_THROW(AsyncGpuSelfJoin{no_batches}, std::invalid_argument);
}

// --- Direct BatchPipeline coverage (the machinery both gpu and
// gpu_async run on).

// Isolated points: every point's only neighbour is itself.
Dataset isolated_points(std::size_t n, double spacing) {
  Dataset d(2);
  for (std::size_t i = 0; i < n; ++i) {
    double p[2] = {spacing * static_cast<double>(i), 0.0};
    d.push_back(p);
  }
  return d;
}

TEST(BatchPipelineDirect, OnePairBufferRecoversViaSplitsExactly) {
  // Nonzero pairs against a 1-pair buffer: the exact counts cut one
  // batch per point (one self pair each), which then fits exactly.
  const auto d = isolated_points(64, 10.0);
  const double eps = 1.0;
  GridIndex index(d, eps);
  gpu::GlobalMemoryArena arena(gpu::DeviceSpec::titan_x_pascal());
  DeviceGrid dev(arena, d, index, GridLayout::kCellMajor);
  const CellAdjacency adjacency =
      build_cell_adjacency(arena, dev.view(), /*unicomp=*/false);

  PipelineConfig config;
  config.streams = 3;
  config.max_buffer_pairs = 1;
  BatchPipeline pipeline(arena, gpu::DeviceSpec::titan_x_pascal(), config);
  AtomicWork work;
  BatchRunStats stats;
  auto got = pipeline
                 .run_cells(ResultRequest{}, dev.view(), /*unicomp=*/false,
                            adjacency, &work, &stats)
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
  auto d = isolated_points(16, 10.0);
  double dup[2] = {0.0, 0.0};  // duplicates point 0
  d.push_back(dup);
  const double eps = 1.0;
  GridIndex index(d, eps);
  gpu::GlobalMemoryArena arena(gpu::DeviceSpec::titan_x_pascal());
  DeviceGrid dev(arena, d, index, GridLayout::kCellMajor);
  const CellAdjacency adjacency =
      build_cell_adjacency(arena, dev.view(), /*unicomp=*/false);

  PipelineConfig config;
  config.streams = 2;
  config.max_buffer_pairs = 1;
  BatchPipeline pipeline(arena, gpu::DeviceSpec::titan_x_pascal(), config);
  AtomicWork work;
  EXPECT_THROW(pipeline.run_cells(ResultRequest{}, dev.view(), false,
                                  adjacency, &work, nullptr),
               gpu::DeviceOutOfMemory);
}

TEST(GpuAsyncBackend, RegistryKnobsAndValidation) {
  const auto& registry = api::BackendRegistry::instance();
  const api::SelfJoinBackend* backend = registry.find("gpu_async");
  ASSERT_NE(backend, nullptr);
  EXPECT_TRUE(backend->capabilities().gpu);

  const auto d = datagen::uniform(300, 2, 0.0, 50.0, 55);

  api::RunConfig ok;
  ok.extra = {{"streams", "2"}, {"unicomp", "1"}};
  const auto outcome = backend->run(d, 1.0, ok);
  EXPECT_EQ(outcome.stats.native_value("streams"), 2.0);
  // Same pipeline, same unicomp setting as gpu_unicomp: same bytes.
  EXPECT_EQ(outcome.pairs.pairs(),
            registry.at("gpu_unicomp").run(d, 1.0).pairs.pairs());

  api::RunConfig junk;
  junk.extra = {{"streams", "2x"}};
  EXPECT_THROW(backend->run(d, 1.0, junk), std::invalid_argument);

  api::RunConfig zero;
  zero.extra = {{"streams", "0"}};
  EXPECT_THROW(backend->run(d, 1.0, zero), std::invalid_argument);

  // The knobs of the sampled estimator and of the host assembly stage are
  // gone, and rejected as unknown rather than silently accepted.
  for (const char* removed : {"assembly_threads", "sample_rate", "safety"}) {
    api::RunConfig stale;
    stale.extra = {{removed, "1"}};
    EXPECT_THROW(backend->run(d, 1.0, stale), std::invalid_argument)
        << removed;
  }

  // gpu's spelling of the stream knob is accepted as an alias, so
  // switching --algo does not require renaming options.
  api::RunConfig alias;
  alias.extra = {{"num_streams", "2"}};
  EXPECT_EQ(backend->run(d, 1.0, alias).stats.native_value("streams"), 2.0);

  api::RunConfig unknown;
  unknown.extra = {{"bogus_knob", "2"}};
  EXPECT_THROW(backend->run(d, 1.0, unknown), std::invalid_argument);

  api::RunConfig threads;
  threads.threads = 4;
  EXPECT_THROW(backend->run(d, 1.0, threads), std::invalid_argument);
}

}  // namespace
}  // namespace sj
