// General epsilon join (A join B): correctness against a brute-force
// reference, asymmetry semantics, batching behaviour.
#include "core/join.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/datagen.hpp"

namespace sj {
namespace {

ResultSet brute_join(const Dataset& a, const Dataset& b, double eps) {
  ResultSet out;
  const double eps2 = eps * eps;
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < b.size(); ++j) {
      if (sq_dist(a.pt(i), b.pt(j), a.dim()) <= eps2) {
        out.add(static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(j));
      }
    }
  }
  return out;
}

class JoinEquality : public ::testing::TestWithParam<int> {};

TEST_P(JoinEquality, MatchesBruteForce) {
  const int dim = GetParam();
  const double eps = std::pow(2.2, dim - 2);
  const auto a = datagen::uniform(700, dim, 0.0, 100.0, 60 + dim);
  const auto b = datagen::gaussian_mixture(900, dim, 6, 4.0, 0.0, 100.0,
                                           90 + dim);
  auto got = gpu_join(a, b, eps);
  EXPECT_TRUE(ResultSet::equal_normalized(got.pairs, brute_join(a, b, eps)))
      << "dim=" << dim;
}

TEST_P(JoinEquality, LayoutsReturnIdenticalNormalizedPairs) {
  // The cell-major indexed side + query-group kernel must agree with the
  // paper's point-centric path exactly, across dimensionalities.
  const int dim = GetParam();
  const double eps = std::pow(2.2, dim - 2);
  const auto a = datagen::uniform(500, dim, 0.0, 100.0, 160 + dim);
  const auto b = datagen::gaussian_mixture(700, dim, 6, 4.0, 0.0, 100.0,
                                           190 + dim);
  GpuJoinOptions legacy_opt;
  legacy_opt.layout = GridLayout::kLegacy;
  GpuJoinOptions cell_opt;
  cell_opt.layout = GridLayout::kCellMajor;
  auto legacy = gpu_join(a, b, eps, legacy_opt);
  auto cell = gpu_join(a, b, eps, cell_opt);
  legacy.pairs.normalize();
  cell.pairs.normalize();
  EXPECT_EQ(legacy.pairs.pairs(), cell.pairs.pairs()) << "dim=" << dim;
  EXPECT_EQ(legacy.stats.query_groups, 0u);
  EXPECT_GT(cell.stats.query_groups, 0u);
  EXPECT_LE(cell.stats.query_groups, a.size());
}

INSTANTIATE_TEST_SUITE_P(Dims, JoinEquality, ::testing::Values(1, 2, 3, 4, 6));

TEST(GpuJoin, CellLayoutSkewedQueriesManyBatchesStayExact) {
  // Skewed queries concentrate the result volume into few groups; force
  // many batches so the weighted group planner and the overflow-split
  // path are both exercised.
  const auto a = datagen::ippp(1200, 2, 32.0, 271);
  const auto b = datagen::uniform(1500, 2, 0.0, 32.0, 272);
  GpuJoinOptions opt;
  opt.min_batches = 9;
  opt.max_buffer_pairs = 512;  // undersized buffers -> overflow splits
  auto got = gpu_join(a, b, 1.0, opt);
  EXPECT_TRUE(ResultSet::equal_normalized(got.pairs, brute_join(a, b, 1.0)));
  EXPECT_GE(got.stats.batch.batches_run, 9u);
}

TEST(GpuJoin, CellLayoutRunTwiceIsDeterministic) {
  const auto a = datagen::uniform(800, 2, 0.0, 50.0, 281);
  const auto b = datagen::uniform(900, 2, 0.0, 50.0, 282);
  auto r1 = gpu_join(a, b, 2.0);
  auto r2 = gpu_join(a, b, 2.0);
  EXPECT_EQ(r1.pairs.pairs(), r2.pairs.pairs());  // raw order, not just set
}

TEST(GpuJoin, ValidationNamesTheArgument) {
  try {
    gpu_join(Dataset(2), Dataset(2), -1.0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("argument 'eps' of gpu_join"),
              std::string::npos)
        << e.what();
  }
  try {
    gpu_join(Dataset(2), Dataset(3), 1.0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("argument 'queries' of gpu_join"),
              std::string::npos)
        << e.what();
  }
}

TEST(GpuJoin, AsymmetricIndicesAreQueryThenData) {
  Dataset a(2, {0.0, 0.0});
  Dataset b(2, {0.1, 0.0, 50.0, 50.0});
  auto r = gpu_join(a, b, 1.0);
  r.pairs.normalize();
  ASSERT_EQ(r.pairs.size(), 1u);
  EXPECT_EQ(r.pairs.pairs()[0], (Pair{0, 0}));  // A[0] matches B[0] only
}

TEST(GpuJoin, SelfJoinAsTwoSetJoinMatchesSelfJoin) {
  const auto d = datagen::uniform(1500, 2, 0.0, 100.0, 77);
  auto two_set = gpu_join(d, d, 2.0);
  GpuSelfJoinOptions opt;
  opt.unicomp = true;
  auto self = GpuSelfJoin(opt).run(d, 2.0);
  EXPECT_TRUE(ResultSet::equal_normalized(two_set.pairs, self.pairs));

  // Without UNICOMP the self-join IS the join of a set with itself: the
  // grid's cells and the queries sorted by home cell are the same groups
  // in the same order, so the raw bytes and the work counters match.
  struct Input {
    Dataset data;
    double eps;
  };
  std::vector<Input> inputs;
  for (int dim = 1; dim <= 6; ++dim) {
    inputs.push_back({datagen::uniform(600, dim, 0.0, 100.0, 300 + dim),
                      std::pow(2.2, dim - 2)});
  }
  inputs.push_back({datagen::ippp(1500, 2, 32.0, 311), 1.0});
  for (const Input& in : inputs) {
    GpuJoinOptions join_opt;
    join_opt.min_batches = 5;
    GpuSelfJoinOptions self_opt;
    self_opt.unicomp = false;
    self_opt.min_batches = 5;
    const auto join = gpu_join(in.data, in.data, in.eps, join_opt);
    const auto raw = GpuSelfJoin(self_opt).run(in.data, in.eps);
    const std::string label = "dim=" + std::to_string(in.data.dim()) +
                              " n=" + std::to_string(in.data.size());
    EXPECT_GT(raw.pairs.size(), in.data.size()) << label;
    EXPECT_EQ(join.pairs.pairs(), raw.pairs.pairs()) << label;
    EXPECT_EQ(join.stats.metrics.distance_calcs,
              raw.stats.metrics.distance_calcs)
        << label;
    EXPECT_EQ(join.stats.metrics.cells_examined,
              raw.stats.metrics.cells_examined)
        << label;
  }
}

TEST(GpuJoin, EmptySidesProduceEmptyResult) {
  const auto d = datagen::uniform(100, 3, 0.0, 10.0, 5);
  EXPECT_TRUE(gpu_join(Dataset(3), d, 1.0).pairs.empty());
  EXPECT_TRUE(gpu_join(d, Dataset(3), 1.0).pairs.empty());
}

TEST(GpuJoin, DimensionMismatchThrows) {
  EXPECT_THROW(gpu_join(Dataset(2), Dataset(3), 1.0), std::invalid_argument);
}

TEST(GpuJoin, NegativeEpsThrows) {
  EXPECT_THROW(gpu_join(Dataset(2), Dataset(2), -1.0),
               std::invalid_argument);
}

TEST(GpuJoin, DisjointRegionsFindNothing) {
  const auto a = datagen::uniform(500, 2, 0.0, 10.0, 1);
  const auto b = datagen::uniform(500, 2, 50.0, 60.0, 2);
  EXPECT_TRUE(gpu_join(a, b, 1.0).pairs.empty());
}

TEST(GpuJoin, ManyBatchesStayExact) {
  const auto a = datagen::uniform(2000, 2, 0.0, 100.0, 3);
  const auto b = datagen::uniform(2500, 2, 0.0, 100.0, 4);
  GpuJoinOptions opt;
  opt.min_batches = 11;
  auto got = gpu_join(a, b, 3.0, opt);
  EXPECT_TRUE(ResultSet::equal_normalized(got.pairs, brute_join(a, b, 3.0)));
  EXPECT_GE(got.stats.batch.batches_run, 11u);
}

TEST(GpuJoin, StatsPopulated) {
  const auto a = datagen::uniform(1000, 2, 0.0, 100.0, 5);
  const auto b = datagen::uniform(1000, 2, 0.0, 100.0, 6);
  const auto r = gpu_join(a, b, 2.0);
  EXPECT_GT(r.stats.total_seconds, 0.0);
  EXPECT_GT(r.stats.adjacency_seconds, 0.0);
  EXPECT_GT(r.stats.metrics.distance_calcs, 0u);
  EXPECT_EQ(r.stats.metrics.results, r.pairs.size());
}

TEST(GpuJoin, QuerySmallerAndLargerThanData) {
  const auto small = datagen::uniform(50, 2, 0.0, 100.0, 7);
  const auto large = datagen::uniform(3000, 2, 0.0, 100.0, 8);
  auto r1 = gpu_join(small, large, 2.0);
  EXPECT_TRUE(
      ResultSet::equal_normalized(r1.pairs, brute_join(small, large, 2.0)));
  auto r2 = gpu_join(large, small, 2.0);
  EXPECT_TRUE(
      ResultSet::equal_normalized(r2.pairs, brute_join(large, small, 2.0)));
}

}  // namespace
}  // namespace sj
