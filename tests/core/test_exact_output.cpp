// Exact two-pass output (count, prefix sum, fill in place): the raw pair
// vector is a function of the data alone — the same bytes for any buffer
// size, batch count or stream count, and between every engine that runs
// the same pipeline mode — while buffers only decide how many batches
// the fill takes. A fill that reads the count pass's match masks writes
// the bytes of one that scans its candidates again.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "bruteforce/brute_force.hpp"
#include "common/datagen.hpp"
#include "core/join.hpp"
#include "core/prepared.hpp"
#include "core/self_join.hpp"
#include "gpusim/device.hpp"

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

/// A device smaller than three full result buffers: the match masks never
/// fit, so the fills scan their candidates again.
gpu::DeviceSpec maskless_device() {
  return gpu::DeviceSpec::tiny(std::size_t{64} << 20);
}

/// `dim`-D points that stress the mask fill: uniform points (in 4-6-D
/// most candidate blocks are pruned to a zero mask), duplicates, the
/// origin (the data minimum, so on a cell face) and a point exactly
/// eps = 1 from it, and a 37-point cell (a ragged last block).
Dataset mask_case(int dim, std::uint64_t seed) {
  Dataset d = datagen::uniform(500, dim, 0.0, 8.0, seed);
  for (std::size_t i = 0; i < 5; ++i) d.push_back(d.pt(i));
  double p[kMaxDims] = {};
  d.push_back(p);
  p[0] = 1.0;
  d.push_back(p);
  const Dataset clump = datagen::uniform(37, dim, 5.1, 5.9, seed + 1);
  for (std::size_t i = 0; i < clump.size(); ++i) d.push_back(clump.pt(i));
  return d;
}

/// The mask run's and the scanning run's raw bytes, and their distance
/// counts against a count-only run's: one pass with masks, two without.
/// (Under injected faults a fill re-run after its landing copy failed
/// scans again, so only a scanning run without retries computes exactly
/// two passes.)
template <typename Run>
void expect_masked_equals_scanned(Run run, const std::string& label) {
  const gpu::DeviceSpec device = gpu::DeviceSpec::titan_x_pascal();
  const auto masked = run(device, ResultMode::kPairs);
  const auto scanned = run(maskless_device(), ResultMode::kPairs);
  const auto counted = run(device, ResultMode::kCountOnly);
  EXPECT_EQ(masked.pairs.pairs(), scanned.pairs.pairs()) << label;
  EXPECT_EQ(masked.total_pairs, counted.total_pairs) << label;
  EXPECT_EQ(masked.stats.metrics.distance_calcs,
            counted.stats.metrics.distance_calcs)
      << label;
  if (scanned.stats.batch.retries == 0) {
    EXPECT_EQ(scanned.stats.metrics.distance_calcs,
              2 * counted.stats.metrics.distance_calcs)
        << label;
  } else {
    EXPECT_GE(scanned.stats.metrics.distance_calcs,
              2 * counted.stats.metrics.distance_calcs)
        << label;
  }
}

TEST(ExactOutput, MaskedFillMatchesRecomputingFill) {
  const double eps = 1.0;
  std::vector<std::pair<std::string, Dataset>> inputs;
  for (int dim = 1; dim <= 6; ++dim) {
    inputs.emplace_back(std::to_string(dim) + "-D",
                        mask_case(dim, 900 + static_cast<std::uint64_t>(dim)));
  }
  inputs.emplace_back("IPPP 2-D", datagen::ippp(1500, 2, 32.0, 921));
  for (const auto& [name, d] : inputs) {
    for (const bool unicomp : {false, true}) {
      const std::string label = name + (unicomp ? " gpu_unicomp" : " gpu");
      expect_masked_equals_scanned(
          [&](const gpu::DeviceSpec& device, ResultMode mode) {
            GpuSelfJoinOptions opt;
            opt.unicomp = unicomp;
            opt.device = device;
            opt.mode = mode;
            return GpuSelfJoin(opt).run(d, eps);
          },
          label);
      GpuSelfJoinOptions opt;
      opt.unicomp = unicomp;
      const auto got = GpuSelfJoin(opt).run(d, eps);
      EXPECT_TRUE(ResultSet::equal_normalized(got.pairs,
                                              brute::self_join(d, eps).pairs))
          << label;
    }
    // A join whose queries repeat some data points.
    Dataset queries = datagen::uniform(300, d.dim(), 0.0, 8.0, 931);
    for (std::size_t i = 0; i < 20; ++i) queries.push_back(d.pt(i));
    expect_masked_equals_scanned(
        [&](const gpu::DeviceSpec& device, ResultMode mode) {
          GpuJoinOptions opt;
          opt.device = device;
          opt.mode = mode;
          return gpu_join(queries, d, eps, opt);
        },
        name + " gpu_join");
    EXPECT_TRUE(ResultSet::equal_normalized(
        gpu_join(queries, d, eps).pairs, brute::join(queries, d, eps).pairs))
        << name;
  }
}

TEST(ExactOutput, MaskedFillOfAnEmptyResult) {
  // Queries one cell beside a 37-point cell but more than eps from each
  // of its points: every block is scanned and every mask is zero.
  const double eps = 1.0;
  for (int dim = 1; dim <= 6; ++dim) {
    const Dataset data = datagen::uniform(37, dim, 5.1, 5.9, 941);
    Dataset queries(dim);
    for (int i = 0; i < 50; ++i) {
      double p[kMaxDims];
      for (int j = 0; j < dim; ++j) p[j] = 5.5;
      p[0] = 6.95 + 0.001 * i;
      queries.push_back(p);
    }
    const std::string label = std::to_string(dim) + "-D";
    expect_masked_equals_scanned(
        [&](const gpu::DeviceSpec& device, ResultMode mode) {
          GpuJoinOptions opt;
          opt.device = device;
          opt.mode = mode;
          return gpu_join(queries, data, eps, opt);
        },
        label);
    const auto got = gpu_join(queries, data, eps);
    EXPECT_EQ(got.total_pairs, 0u) << label;
    EXPECT_EQ(got.stats.metrics.distance_calcs, 50u * 37u) << label;
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
