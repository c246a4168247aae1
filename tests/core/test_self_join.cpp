// GPU-SJ correctness: exact pair-set equality against the CPU brute-force
// reference over a parameterised sweep of dimensionalities, eps values and
// data distributions.
#include "core/self_join.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>

#include "bruteforce/brute_force.hpp"
#include "common/datagen.hpp"
#include "common/timer.hpp"

namespace sj {
namespace {

Dataset make_distribution(const std::string& kind, std::size_t n, int dim,
                          std::uint64_t seed) {
  if (kind == "uniform") {
    return datagen::uniform(n, dim, 0.0, 100.0, seed);
  }
  if (kind == "clustered") {
    return datagen::gaussian_mixture(n, dim, 8, 3.0, 0.0, 100.0, seed);
  }
  return datagen::exponential_blob(n, dim, 0.08, seed);
}

class SelfJoinEquality
    : public ::testing::TestWithParam<std::tuple<int, double, std::string>> {};

TEST_P(SelfJoinEquality, MatchesBruteForce) {
  const auto [dim, eps_scale, kind] = GetParam();
  // eps chosen so the expected neighbour count is in a sensible band for
  // each dimension: unit density would explode in 2-D and starve in 6-D.
  const double eps = eps_scale * std::pow(2.2, dim - 2);
  const auto d = make_distribution(kind, 1200, dim, 1234 + dim);

  GpuSelfJoinOptions opt;
  opt.unicomp = false;
  GpuSelfJoin join(opt);
  auto got = join.run(d, eps);
  auto want = brute::self_join(d, eps);

  EXPECT_TRUE(ResultSet::equal_normalized(got.pairs, want.pairs))
      << "dim=" << dim << " eps=" << eps << " kind=" << kind
      << " got=" << got.pairs.size() << " want=" << want.pairs.size();
}

TEST_P(SelfJoinEquality, UnicompMatchesBruteForce) {
  const auto [dim, eps_scale, kind] = GetParam();
  const double eps = eps_scale * std::pow(2.2, dim - 2);
  const auto d = make_distribution(kind, 1200, dim, 987 + dim);

  GpuSelfJoinOptions opt;
  opt.unicomp = true;
  GpuSelfJoin join(opt);
  auto got = join.run(d, eps);
  auto want = brute::self_join(d, eps);

  EXPECT_TRUE(ResultSet::equal_normalized(got.pairs, want.pairs))
      << "dim=" << dim << " eps=" << eps << " kind=" << kind;
}

INSTANTIATE_TEST_SUITE_P(
    DimsEpsDistributions, SelfJoinEquality,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 6),
                       ::testing::Values(0.5, 2.0),
                       ::testing::Values("uniform", "clustered",
                                         "exponential")),
    [](const auto& info) {
      return "dim" + std::to_string(std::get<0>(info.param)) + "_eps" +
             std::to_string(static_cast<int>(std::get<1>(info.param) * 10)) +
             "_" + std::get<2>(info.param);
    });

TEST(GpuSelfJoin, EmptyDataset) {
  Dataset d(2);
  GpuSelfJoin join;
  const auto r = join.run(d, 1.0);
  EXPECT_TRUE(r.pairs.empty());
}

TEST(GpuSelfJoin, SinglePointFindsItself) {
  Dataset d(3, {1.0, 2.0, 3.0});
  GpuSelfJoin join;
  auto r = join.run(d, 0.5);
  r.pairs.normalize();
  ASSERT_EQ(r.pairs.size(), 1u);
  EXPECT_EQ(r.pairs.pairs()[0], (Pair{0, 0}));
}

TEST(GpuSelfJoin, ResultIsSymmetric) {
  const auto d = datagen::uniform(2000, 2, 0.0, 100.0, 55);
  GpuSelfJoin join;
  auto r = join.run(d, 2.0);
  r.pairs.normalize();
  EXPECT_TRUE(r.pairs.is_symmetric());
}

TEST(GpuSelfJoin, EveryPointReportsItself) {
  const auto d = datagen::uniform(1000, 3, 0.0, 100.0, 66);
  GpuSelfJoin join;
  auto r = join.run(d, 1.0);
  const auto counts = r.pairs.counts_per_key(d.size());
  for (std::size_t i = 0; i < d.size(); ++i) {
    EXPECT_GE(counts[i], 1u) << "point " << i << " lost its self pair";
  }
}

TEST(GpuSelfJoin, EpsZeroFindsOnlyCoLocatedPoints) {
  Dataset d(2, {1.0, 1.0, 1.0, 1.0, 2.0, 2.0});
  GpuSelfJoin join;
  auto r = join.run(d, 0.0);
  r.pairs.normalize();
  // Pairs: (0,0),(0,1),(1,0),(1,1),(2,2).
  EXPECT_EQ(r.pairs.size(), 5u);
}

TEST(GpuSelfJoin, MonotoneInEps) {
  const auto d = datagen::uniform(1500, 2, 0.0, 100.0, 77);
  GpuSelfJoin join;
  std::size_t prev = 0;
  for (double eps : {0.5, 1.0, 2.0, 4.0}) {
    auto r = join.run(d, eps);
    r.pairs.normalize();
    EXPECT_GE(r.pairs.size(), prev);
    prev = r.pairs.size();
  }
}

TEST(GpuSelfJoin, HugeEpsReturnsAllOrderedPairs) {
  const auto d = datagen::uniform(200, 2, 0.0, 10.0, 88);
  GpuSelfJoin join;
  auto r = join.run(d, 1000.0);
  r.pairs.normalize();
  EXPECT_EQ(r.pairs.size(), d.size() * d.size());
}

TEST(GpuSelfJoin, StatsArePopulated) {
  const auto d = datagen::uniform(3000, 3, 0.0, 100.0, 99);
  GpuSelfJoin join;
  const auto r = join.run(d, 2.0);
  EXPECT_GT(r.stats.total_seconds, 0.0);
  EXPECT_GT(r.stats.adjacency_seconds, 0.0);
  EXPECT_GT(r.stats.grid_nonempty_cells, 0u);
  EXPECT_GE(r.stats.batch.batches_run, 3u);  // paper minimum
  EXPECT_GT(r.stats.metrics.distance_calcs, 0u);
  EXPECT_GT(r.stats.metrics.cells_examined, 0u);
  EXPECT_GT(r.stats.occupancy, 0.0);
  EXPECT_EQ(r.stats.metrics.results, r.pairs.size());
}

TEST(GpuSelfJoin, MetricsReplayIsTimedApart) {
  // The Table II replay runs after the join: its wall time is reported as
  // metrics_seconds and never inside total_seconds.
  const auto d = datagen::uniform(3000, 2, 0.0, 100.0, 97);
  for (GridLayout layout : {GridLayout::kCellMajor, GridLayout::kLegacy}) {
    GpuSelfJoinOptions opt;
    opt.layout = layout;
    opt.collect_metrics = true;
    const Timer wall;
    const auto r = GpuSelfJoin(opt).run(d, 3.0);
    const double wall_seconds = wall.seconds();
    EXPECT_GT(r.stats.metrics_seconds, 0.0);
    EXPECT_GE(wall_seconds, r.stats.total_seconds + r.stats.metrics_seconds);
    opt.collect_metrics = false;
    EXPECT_EQ(GpuSelfJoin(opt).run(d, 3.0).stats.metrics_seconds, 0.0);
  }
}

TEST(GpuSelfJoin, RejectsBadOptions) {
  GpuSelfJoinOptions opt;
  opt.block_size = 0;
  EXPECT_THROW(GpuSelfJoin{opt}, std::invalid_argument);
  opt = {};
  opt.min_batches = 0;
  EXPECT_THROW(GpuSelfJoin{opt}, std::invalid_argument);
  opt = {};
  opt.num_streams = -1;
  EXPECT_THROW(GpuSelfJoin{opt}, std::invalid_argument);
}

TEST(GpuSelfJoin, RejectsNegativeEps) {
  GpuSelfJoin join;
  EXPECT_THROW(join.run(Dataset(2), -0.5), std::invalid_argument);
}

TEST(GpuSelfJoin, BlockSizeDoesNotChangeResult) {
  const auto d = datagen::uniform(1000, 2, 0.0, 100.0, 111);
  ResultSet reference;
  for (int bs : {32, 128, 256, 512}) {
    GpuSelfJoinOptions opt;
    opt.block_size = bs;
    GpuSelfJoin join(opt);
    auto r = join.run(d, 3.0);
    r.pairs.normalize();
    if (bs == 32) {
      reference = std::move(r.pairs);
    } else {
      EXPECT_TRUE(ResultSet::equal_normalized(reference, r.pairs))
          << "block size " << bs;
    }
  }
}

}  // namespace
}  // namespace sj
