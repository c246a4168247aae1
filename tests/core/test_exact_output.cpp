// Exact two-pass output (count, prefix sum, fill in place): the raw pair
// vector is a function of the data alone — the same bytes for any buffer
// size, batch count or stream count, and between every engine that runs
// the same pipeline mode — while buffers only decide how many batches
// the fill takes.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bruteforce/brute_force.hpp"
#include "common/datagen.hpp"
#include "core/join.hpp"
#include "core/prepared.hpp"
#include "core/self_join.hpp"

namespace sj {
namespace {

TEST(ExactOutput, RawPairsIdenticalAcrossBufferBatchAndStreamSettings) {
  const auto d = datagen::ippp(1500, 2, 32.0, 801);
  const double eps = 1.0;
  for (const GridLayout layout : {GridLayout::kCellMajor, GridLayout::kLegacy}) {
    for (const bool unicomp : {false, true}) {
      GpuSelfJoinOptions base;
      base.layout = layout;
      base.unicomp = unicomp;
      const auto reference = GpuSelfJoin(base).run(d, eps);
      for (const std::uint64_t buffer :
           {std::uint64_t{64}, base.max_buffer_pairs}) {
        for (const std::size_t batches : {1, 3, 17}) {
          for (const int streams : {1, 3}) {
            GpuSelfJoinOptions opt = base;
            opt.max_buffer_pairs = buffer;
            opt.min_batches = batches;
            opt.num_streams = streams;
            const auto got = GpuSelfJoin(opt).run(d, eps);
            EXPECT_EQ(got.pairs.pairs(), reference.pairs.pairs())
                << "layout " << static_cast<int>(layout) << " unicomp "
                << unicomp << " buffer " << buffer << " min_batches "
                << batches << " streams " << streams;
            EXPECT_GE(got.stats.batch.batches_run, batches);
          }
        }
      }
      const auto want = brute::self_join(d, eps);
      EXPECT_TRUE(ResultSet::equal_normalized(reference.pairs, want.pairs));
    }
  }
}

TEST(ExactOutput, PreparedSelfJoinMatchesOneShotByteForByte) {
  const auto d = datagen::ippp(1400, 2, 24.0, 805);
  const double eps = 1.2;
  PreparedJoin prepared(d, eps);
  for (const bool unicomp : {false, true}) {
    GpuSelfJoinOptions opt;
    opt.unicomp = unicomp;
    const auto oneshot = GpuSelfJoin(opt).run(d, eps);
    // Different batching on the prepared side: still the same bytes.
    opt.max_buffer_pairs = 128;
    EXPECT_EQ(prepared.self_join(opt).pairs.pairs(), oneshot.pairs.pairs())
        << "unicomp " << unicomp;
  }
}

TEST(ExactOutput, PreparedRunMatchesGpuJoinByteForByte) {
  const auto data = datagen::gaussian_mixture(1500, 2, 5, 4.0, 0.0, 60.0, 807);
  const auto queries = datagen::uniform(700, 2, 0.0, 60.0, 809);
  const double eps = 1.5;
  const auto oneshot = gpu_join(queries, data, eps);
  PreparedJoin prepared(data, eps);
  GpuJoinOptions opt;
  opt.min_batches = 9;
  opt.max_buffer_pairs = 100;
  const auto warm = prepared.run(queries, opt);
  EXPECT_EQ(warm.pairs.pairs(), oneshot.pairs.pairs());
  EXPECT_GE(warm.stats.batch.batches_run, oneshot.pairs.size() / 100);
  EXPECT_TRUE(ResultSet::equal_normalized(
      oneshot.pairs, brute::join(queries, data, eps).pairs));
}

/// A dense clump of `clump` coincident points in one cell beside sparse
/// uniform points.
Dataset clump_and_scatter(int clump, std::uint64_t seed) {
  Dataset d = datagen::uniform(400, 2, 0.0, 40.0, seed);
  for (int i = 0; i < clump; ++i) {
    const double p[2] = {20.5, 20.5};
    d.push_back(p);
  }
  return d;
}

TEST(ExactOutput, CellOverTheBufferSplitsBySlotRangeAndStaysExact) {
  // The clump's cell holds 60 x 60 pairs; every point's 60-odd pairs fit
  // a 200-pair buffer, so the batches cut the cell by slot range.
  const auto d = clump_and_scatter(60, 811);
  const double eps = 0.4;
  GpuSelfJoinOptions opt;
  opt.unicomp = false;
  const auto whole = GpuSelfJoin(opt).run(d, eps);
  opt.max_buffer_pairs = 200;
  const auto split = GpuSelfJoin(opt).run(d, eps);
  EXPECT_GE(split.stats.batch.batches_run, 60u * 60u / 200u);
  EXPECT_EQ(split.pairs.pairs(), whole.pairs.pairs());
  EXPECT_TRUE(ResultSet::equal_normalized(split.pairs,
                                          brute::self_join(d, eps).pairs));
}

TEST(ExactOutput, PointOverTheBufferThrowsTypedNamingTheBatch) {
  const auto d = clump_and_scatter(60, 813);
  for (const GridLayout layout : {GridLayout::kCellMajor, GridLayout::kLegacy}) {
    GpuSelfJoinOptions opt;
    opt.layout = layout;
    opt.max_buffer_pairs = 50;  // below one clump point's 60 pairs
    try {
      (void)GpuSelfJoin(opt).run(d, 0.4);
      FAIL() << "expected DeviceOutOfMemory";
    } catch (const gpu::DeviceOutOfMemory& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("batch "), std::string::npos) << what;
      EXPECT_NE(what.find("neighbourhood overflows"), std::string::npos)
          << what;
    }
  }
}

TEST(ExactOutput, SinkStreamsTheSameBytesBatchByBatch) {
  const auto d = datagen::ippp(1500, 2, 32.0, 815);
  GpuSelfJoinOptions opt;
  opt.max_buffer_pairs = 300;
  const auto pairs = GpuSelfJoin(opt).run(d, 1.0);
  std::vector<Pair> streamed;
  std::size_t calls = 0;
  opt.mode = ResultMode::kSink;
  opt.sink = [&](const Pair* p, std::size_t n) {
    ++calls;
    EXPECT_LE(n, 300u);
    streamed.insert(streamed.end(), p, p + n);
  };
  const auto sunk = GpuSelfJoin(opt).run(d, 1.0);
  EXPECT_EQ(calls, sunk.stats.batch.batches_run);
  EXPECT_EQ(streamed, pairs.pairs.pairs());
}

}  // namespace
}  // namespace sj
