// Grid-based kNN (the paper's future-work extension): exactness against a
// brute-force reference across dimensions, k values and distributions.
#include "core/knn.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/datagen.hpp"
#include "common/distance.hpp"

namespace sj {
namespace {

/// Brute-force kNN distances (ascending), optionally excluding self.
std::vector<double> brute_knn_dists(const Dataset& data, const double* q,
                                    int k, std::int64_t skip_id) {
  std::vector<double> d2;
  d2.reserve(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (static_cast<std::int64_t>(i) == skip_id) continue;
    d2.push_back(sq_dist(q, data.pt(i), data.dim()));
  }
  std::sort(d2.begin(), d2.end());
  if (d2.size() > static_cast<std::size_t>(k)) d2.resize(k);
  for (double& v : d2) v = std::sqrt(v);
  return d2;
}

class KnnExactness
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(KnnExactness, DistancesMatchBruteForce) {
  const auto [dim, k] = GetParam();
  const auto d = datagen::uniform(1500, dim, 0.0, 100.0, 400 + dim);
  KnnOptions opt;
  opt.k = k;
  const auto r = gpu_knn(d, opt);
  ASSERT_EQ(r.num_queries(), d.size());
  for (std::size_t q = 0; q < d.size(); q += 37) {  // sampled queries
    const auto want = brute_knn_dists(d, d.pt(q), k,
                                      static_cast<std::int64_t>(q));
    ASSERT_EQ(static_cast<std::size_t>(r.count(q)), want.size());
    for (std::size_t j = 0; j < want.size(); ++j) {
      EXPECT_NEAR(r.distance(q, static_cast<int>(j)), want[j], 1e-9)
          << "query " << q << " neighbor " << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    DimsKs, KnnExactness,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 6),
                       ::testing::Values(1, 4, 16)),
    [](const auto& info) {
      return "dim" + std::to_string(std::get<0>(info.param)) + "_k" +
             std::to_string(std::get<1>(info.param));
    });

TEST(Knn, SkewedDataExactness) {
  const auto d = datagen::sw_like(2000, 2, 42);
  KnnOptions opt;
  opt.k = 8;
  const auto r = gpu_knn(d, opt);
  for (std::size_t q = 0; q < d.size(); q += 101) {
    const auto want =
        brute_knn_dists(d, d.pt(q), 8, static_cast<std::int64_t>(q));
    ASSERT_EQ(static_cast<std::size_t>(r.count(q)), want.size());
    for (std::size_t j = 0; j < want.size(); ++j) {
      EXPECT_NEAR(r.distance(q, static_cast<int>(j)), want[j], 1e-9);
    }
  }
}

TEST(Knn, IncludeSelfPutsQueryFirst) {
  const auto d = datagen::uniform(500, 2, 0.0, 100.0, 9);
  KnnOptions opt;
  opt.k = 4;
  opt.include_self = true;
  const auto r = gpu_knn(d, opt);
  for (std::size_t q = 0; q < d.size(); q += 50) {
    EXPECT_EQ(r.neighbor(q, 0), q);
    EXPECT_DOUBLE_EQ(r.distance(q, 0), 0.0);
  }
}

TEST(Knn, ResultsSortedAscending) {
  const auto d = datagen::uniform(1000, 3, 0.0, 100.0, 11);
  KnnOptions opt;
  opt.k = 10;
  const auto r = gpu_knn(d, opt);
  for (std::size_t q = 0; q < d.size(); ++q) {
    for (int j = 1; j < r.count(q); ++j) {
      EXPECT_LE(r.distance(q, j - 1), r.distance(q, j));
    }
  }
}

TEST(Knn, KLargerThanDatasetReturnsAll) {
  const auto d = datagen::uniform(10, 2, 0.0, 10.0, 13);
  KnnOptions opt;
  opt.k = 50;
  const auto r = gpu_knn(d, opt);
  for (std::size_t q = 0; q < d.size(); ++q) {
    EXPECT_EQ(r.count(q), 9);  // everyone except self
  }
}

TEST(Knn, TwoSetKnnMatchesBruteForce) {
  const auto queries = datagen::uniform(300, 2, 0.0, 100.0, 15);
  const auto data = datagen::gaussian_mixture(1200, 2, 5, 5.0, 0.0, 100.0, 16);
  KnnOptions opt;
  opt.k = 6;
  const auto r = gpu_knn(queries, data, opt);
  ASSERT_EQ(r.num_queries(), queries.size());
  for (std::size_t q = 0; q < queries.size(); q += 17) {
    const auto want = brute_knn_dists(data, queries.pt(q), 6, -1);
    ASSERT_EQ(static_cast<std::size_t>(r.count(q)), want.size());
    for (std::size_t j = 0; j < want.size(); ++j) {
      EXPECT_NEAR(r.distance(q, static_cast<int>(j)), want[j], 1e-9);
    }
  }
}

TEST(Knn, ExplicitCellWidthStillExact) {
  const auto d = datagen::uniform(800, 2, 0.0, 100.0, 17);
  for (double width : {0.5, 2.0, 25.0}) {
    KnnOptions opt;
    opt.k = 5;
    opt.cell_width = width;
    const auto r = gpu_knn(d, opt);
    const auto want = brute_knn_dists(d, d.pt(0), 5, 0);
    for (std::size_t j = 0; j < want.size(); ++j) {
      EXPECT_NEAR(r.distance(0, static_cast<int>(j)), want[j], 1e-9)
          << "width=" << width;
    }
  }
}

TEST(Knn, DuplicatePointsAreValidNeighbors) {
  Dataset d(2, {5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 9.0, 9.0});
  KnnOptions opt;
  opt.k = 2;
  const auto r = gpu_knn(d, opt);
  EXPECT_DOUBLE_EQ(r.distance(0, 0), 0.0);  // a co-located point
  EXPECT_DOUBLE_EQ(r.distance(0, 1), 0.0);
}

TEST(Knn, StatsPopulated) {
  const auto d = datagen::uniform(2000, 2, 0.0, 100.0, 19);
  const auto r = gpu_knn(d);
  EXPECT_GT(r.stats.total_seconds, 0.0);
  EXPECT_GT(r.stats.chosen_cell_width, 0.0);
  EXPECT_GT(r.stats.rings_expanded, 0u);
  EXPECT_GT(r.stats.metrics.distance_calcs, 0u);
}

TEST(Knn, RejectsBadK) {
  KnnOptions opt;
  opt.k = 0;
  EXPECT_THROW(gpu_knn(Dataset(2), opt), std::invalid_argument);
}

TEST(Knn, EmptyDataset) {
  const auto r = gpu_knn(Dataset(2));
  EXPECT_EQ(r.num_queries(), 0u);
}

TEST(Knn, SinglePointHasNoNeighbors) {
  Dataset d(2, {1.0, 1.0});
  const auto r = gpu_knn(d);
  EXPECT_EQ(r.count(0), 0);
}

TEST(Knn, GridPruningBeatsExhaustiveSearch) {
  // The ring search must examine far fewer candidates than n per query.
  const auto d = datagen::uniform(20000, 2, 0.0, 100.0, 21);
  KnnOptions opt;
  opt.k = 8;
  const auto r = gpu_knn(d, opt);
  const double per_query =
      static_cast<double>(r.stats.metrics.distance_calcs) /
      static_cast<double>(d.size());
  EXPECT_LT(per_query, 500.0);  // vs 20000 for brute force
}

}  // namespace
}  // namespace sj
