// Cross-backend parity for the operation facets (query/data join and
// kNN): one parameterized sweep over every backend advertising each
// capability, asserted against the brute-force oracle, on the inputs
// that historically break spatial search implementations — empty sides,
// single points, eps = 0, duplicate points, queries that are a subset of
// the data, fully disjoint query sets, queries outside the data bounds,
// and k >= n.
//
// This suite is also where the facet conventions are asserted once:
// join results are (query index, data index) pairs — NOT symmetric, no
// implicit self pairs — and kNN lists are ascending by distance, the
// query excluded from its own self-kNN list. Capability gating (the
// one-line error listing capable backends) is covered at the bottom.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "bruteforce/brute_force.hpp"
#include "common/datagen.hpp"
#include "common/distance.hpp"

namespace sj {
namespace {

Dataset all_duplicates(int dim, std::size_t n, double value) {
  Dataset d(dim);
  for (std::size_t i = 0; i < n; ++i) {
    double p[kMaxDims] = {value, value, value, value, value, value};
    d.push_back(p);
  }
  return d;
}

// ---------------------------------------------------------- join parity

class JoinParity : public ::testing::TestWithParam<std::string> {
 protected:
  const api::Backend& backend() const {
    return api::BackendRegistry::instance().at(GetParam(),
                                               api::Operation::kJoin);
  }

  void expect_parity(const Dataset& queries, const Dataset& data,
                     double eps) {
    auto want = brute::join(queries, data, eps).pairs;
    want.normalize();
    auto got = backend().join(queries, data, eps).pairs;
    got.normalize();
    EXPECT_TRUE(ResultSet::equal_normalized(got, want))
        << GetParam() << " on |Q|=" << queries.size()
        << " |D|=" << data.size() << " eps=" << eps << " (got "
        << got.size() << " pairs, want " << want.size() << ")";
  }
};

TEST_P(JoinParity, EmptySidesProduceEmptyResults) {
  const auto d = datagen::uniform(60, 2, 0.0, 10.0, 301);
  EXPECT_TRUE(backend().join(Dataset(2), d, 1.0).pairs.empty());
  EXPECT_TRUE(backend().join(d, Dataset(2), 1.0).pairs.empty());
  EXPECT_TRUE(backend().join(Dataset(2), Dataset(2), 1.0).pairs.empty());
}

TEST_P(JoinParity, SinglePointSidesAndConvention) {
  Dataset q(2, {0.0, 0.0});
  Dataset d(2, {0.1, 0.0, 50.0, 50.0});
  expect_parity(q, d, 1.0);
  auto got = backend().join(q, d, 1.0).pairs;
  got.normalize();
  // Asymmetric convention: the lone pair is (query 0, data 0) — no
  // mirrored (data, query) entry, no self pairs.
  ASSERT_EQ(got.size(), 1u) << GetParam();
  EXPECT_EQ(got.pairs()[0], (Pair{0, 0})) << GetParam();
}

TEST_P(JoinParity, EpsZeroKeepsCoLocatedPointsOnly) {
  Dataset q(2, {1.0, 1.0, 2.0, 2.0, 3.0, 3.0});
  Dataset d(2, {1.0, 1.0, 2.0, 2.0, 9.0, 9.0, 1.0, 1.0});
  expect_parity(q, d, 0.0);
  auto got = backend().join(q, d, 0.0).pairs;
  // q0 matches d0 and d3, q1 matches d1, q2 matches nothing.
  EXPECT_EQ(got.size(), 3u) << GetParam();
}

TEST_P(JoinParity, AllDuplicatePoints) {
  for (int dim : {2, 4}) {
    const auto q = all_duplicates(dim, 15, 7.0);
    const auto d = all_duplicates(dim, 25, 7.0);
    expect_parity(q, d, 0.5);
    EXPECT_EQ(backend().join(q, d, 0.5).pairs.size(), 15u * 25u)
        << GetParam() << " dim=" << dim;
  }
}

TEST_P(JoinParity, QueriesSubsetOfData) {
  const auto d = datagen::uniform(400, 2, 0.0, 30.0, 303);
  Dataset q(2);
  for (std::size_t i = 0; i < d.size(); i += 5) q.push_back(d.pt(i));
  expect_parity(q, d, 1.0);
  // Every query coincides with its source data point, so each has at
  // least one zero-distance match.
  auto got = backend().join(q, d, 1.0).pairs;
  got.normalize();
  const auto& pairs = got.pairs();
  for (std::uint32_t i = 0; i < q.size(); ++i) {
    EXPECT_TRUE(std::binary_search(pairs.begin(), pairs.end(),
                                   Pair{i, i * 5}))
        << GetParam() << ": query " << i
        << " missing its coincident data point";
  }
}

TEST_P(JoinParity, DisjointQuerySetFindsNothing) {
  const auto d = datagen::uniform(300, 3, 0.0, 10.0, 305);
  const auto q = datagen::uniform(200, 3, 50.0, 60.0, 306);
  expect_parity(q, d, 1.0);
  EXPECT_TRUE(backend().join(q, d, 1.0).pairs.empty()) << GetParam();
}

TEST_P(JoinParity, QueriesOutsideDataBounds) {
  // Queries straddle the data's bounding box (grid-based engines must
  // clamp external points into the grid without losing matches near the
  // boundary).
  const auto d = datagen::uniform(500, 2, 0.0, 10.0, 307);
  const auto q = datagen::uniform(300, 2, -5.0, 15.0, 308);
  for (double eps : {0.5, 2.0}) {
    expect_parity(q, d, eps);
  }
}

TEST_P(JoinParity, UniformSweep) {
  for (int dim : {1, 2, 3}) {
    const auto q = datagen::uniform(250, dim, 0.0, 20.0, 310 + dim);
    const auto d = datagen::gaussian_mixture(350, dim, 4, 3.0, 0.0, 20.0,
                                             320 + dim);
    for (double eps : {0.5, 2.0, 40.0}) {
      expect_parity(q, d, eps);
    }
  }
}

TEST_P(JoinParity, SkewedIpppQueriesOverUniformData) {
  // The workload the per-group weighted batching exists for: most of the
  // result volume concentrated in a few query home cells.
  const auto d = datagen::uniform(600, 2, 0.0, 32.0, 331);
  const auto q = datagen::ippp(500, 2, 32.0, 332);
  for (double eps : {0.5, 2.0}) {
    expect_parity(q, d, eps);
  }
}

INSTANTIATE_TEST_SUITE_P(
    JoinBackends, JoinParity,
    ::testing::ValuesIn(api::BackendRegistry::instance().names_supporting(
        api::Operation::kJoin)),
    [](const auto& info) { return info.param; });

// ----------------------------------------------------------- kNN parity

class KnnParity : public ::testing::TestWithParam<std::string> {
 protected:
  const api::Backend& backend() const {
    return api::BackendRegistry::instance().at(GetParam(),
                                               api::Operation::kKnn);
  }

  /// Count + distance parity per query against the oracle lists, plus id
  /// consistency: tie-breaking may legitimately differ between engines,
  /// so ids are checked by re-evaluating their actual distances rather
  /// than by exact match.
  void expect_lists_match(const Dataset& queries, const Dataset& data,
                          const NeighborLists& got,
                          const NeighborLists& want) {
    ASSERT_EQ(got.num_queries(), want.num_queries()) << GetParam();
    for (std::size_t q = 0; q < got.num_queries(); ++q) {
      ASSERT_EQ(got.count(q), want.count(q))
          << GetParam() << " query " << q;
      for (int j = 0; j < got.count(q); ++j) {
        EXPECT_DOUBLE_EQ(got.distance(q, j), want.distance(q, j))
            << GetParam() << " query " << q << " rank " << j;
        const std::uint32_t id = got.neighbor(q, j);
        ASSERT_LT(id, data.size()) << GetParam();
        EXPECT_DOUBLE_EQ(
            std::sqrt(sq_dist(queries.pt(q), data.pt(id), data.dim())),
            got.distance(q, j))
            << GetParam() << " query " << q << " rank " << j
            << ": reported id does not lie at the reported distance";
      }
    }
  }

  void expect_self_parity(const Dataset& d, int k) {
    const auto want = brute::self_knn(d, k);
    const auto got = backend().self_knn(d, k);
    expect_lists_match(d, d, got.neighbors, want.neighbors);
  }

  void expect_two_set_parity(const Dataset& queries, const Dataset& data,
                             int k) {
    const auto want = brute::knn(queries, data, k);
    const auto got = backend().knn(queries, data, k);
    expect_lists_match(queries, data, got.neighbors, want.neighbors);
  }
};

TEST_P(KnnParity, SelfKnnMatchesOracle) {
  for (int dim : {2, 3}) {
    const auto d = datagen::uniform(500, dim, 0.0, 50.0, 340 + dim);
    for (int k : {1, 4, 16}) {
      expect_self_parity(d, k);
    }
  }
}

TEST_P(KnnParity, SelfKnnExcludesSelf) {
  const auto d = datagen::uniform(200, 2, 0.0, 50.0, 350);
  const auto got = backend().self_knn(d, 3);
  for (std::size_t q = 0; q < d.size(); ++q) {
    for (int j = 0; j < got.neighbors.count(q); ++j) {
      EXPECT_NE(got.neighbors.neighbor(q, j), q)
          << GetParam() << ": query " << q << " returned itself";
    }
  }
}

TEST_P(KnnParity, IncludeSelfKnobPutsQueryFirst) {
  const auto d = datagen::uniform(150, 2, 0.0, 50.0, 351);
  api::RunConfig config;
  config.extra["include_self"] = "1";
  const auto got = backend().self_knn(d, 4, config);
  for (std::size_t q = 0; q < d.size(); q += 10) {
    EXPECT_DOUBLE_EQ(got.neighbors.distance(q, 0), 0.0) << GetParam();
  }
}

TEST_P(KnnParity, KGreaterThanDatasetReturnsEverything) {
  const auto d = datagen::uniform(9, 2, 0.0, 10.0, 352);
  expect_self_parity(d, 50);
  const auto got = backend().self_knn(d, 50);
  for (std::size_t q = 0; q < d.size(); ++q) {
    EXPECT_EQ(got.neighbors.count(q), 8) << GetParam();  // all but self
  }
  const auto q2 = datagen::uniform(5, 2, 0.0, 10.0, 353);
  expect_two_set_parity(q2, d, 50);
  const auto two = backend().knn(q2, d, 50);
  for (std::size_t q = 0; q < q2.size(); ++q) {
    EXPECT_EQ(two.neighbors.count(q), 9) << GetParam();  // whole data set
  }
}

TEST_P(KnnParity, DuplicatePointsAreValidNeighbors) {
  const auto d = all_duplicates(2, 20, 5.0);
  expect_self_parity(d, 4);
  const auto got = backend().self_knn(d, 4);
  for (int j = 0; j < got.neighbors.count(0); ++j) {
    EXPECT_DOUBLE_EQ(got.neighbors.distance(0, j), 0.0) << GetParam();
  }
}

TEST_P(KnnParity, QueriesSubsetOfData) {
  const auto d = datagen::uniform(300, 2, 0.0, 30.0, 354);
  Dataset q(2);
  for (std::size_t i = 0; i < d.size(); i += 7) q.push_back(d.pt(i));
  expect_two_set_parity(q, d, 5);
  // Two-set mode never excludes coincident points: rank 0 is the query's
  // own source point at distance zero.
  const auto got = backend().knn(q, d, 5);
  for (std::size_t i = 0; i < q.size(); ++i) {
    ASSERT_GE(got.neighbors.count(i), 1) << GetParam();
    EXPECT_DOUBLE_EQ(got.neighbors.distance(i, 0), 0.0) << GetParam();
  }
}

TEST_P(KnnParity, DisjointQuerySetStillFindsNeighbors) {
  // kNN has no range cutoff: far-away queries still get k neighbours.
  const auto d = datagen::uniform(400, 2, 0.0, 10.0, 355);
  const auto q = datagen::uniform(60, 2, 80.0, 90.0, 356);
  expect_two_set_parity(q, d, 3);
}

TEST_P(KnnParity, SkewedIpppData) {
  const auto d = datagen::ippp(700, 2, 32.0, 357);
  expect_self_parity(d, 8);
}

TEST_P(KnnParity, EmptySides) {
  const auto d = datagen::uniform(50, 2, 0.0, 10.0, 358);
  const auto no_data = backend().knn(d, Dataset(2), 3);
  ASSERT_EQ(no_data.neighbors.num_queries(), d.size()) << GetParam();
  for (std::size_t q = 0; q < d.size(); ++q) {
    EXPECT_EQ(no_data.neighbors.count(q), 0) << GetParam();
  }
  EXPECT_EQ(backend().knn(Dataset(2), d, 3).neighbors.num_queries(), 0u);
  EXPECT_EQ(backend().self_knn(Dataset(2), 3).neighbors.num_queries(), 0u);
}

TEST_P(KnnParity, RejectsBadK) {
  EXPECT_THROW(backend().self_knn(Dataset(2), 0), std::invalid_argument);
  EXPECT_THROW(backend().knn(Dataset(2), Dataset(2), -3),
               std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(
    KnnBackends, KnnParity,
    ::testing::ValuesIn(api::BackendRegistry::instance().names_supporting(
        api::Operation::kKnn)),
    [](const auto& info) { return info.param; });

// ------------------------------------------------ sharded parity sweep
// gpu_shard already rides the JoinParity sweep above (it advertises the
// join capability); this battery additionally pins BYTE-IDENTICAL
// normalized pair sets against the single-device gpu backend across
// shard counts, for both operations.

class ShardCountParity : public ::testing::TestWithParam<int> {
 protected:
  api::RunConfig shard_config() const {
    api::RunConfig config;
    config.extra["shards"] = std::to_string(GetParam());
    return config;
  }
};

TEST_P(ShardCountParity, SelfJoinIsByteIdenticalToGpu) {
  const auto& registry = api::BackendRegistry::instance();
  const auto d = datagen::uniform(700, 2, 0.0, 25.0, 601);
  auto want = registry.at("gpu").run(d, 1.2).pairs;
  want.normalize();
  auto got = registry.at("gpu_shard").run(d, 1.2, shard_config()).pairs;
  got.normalize();
  ASSERT_EQ(got.size(), want.size()) << "shards=" << GetParam();
  EXPECT_TRUE(got.pairs() == want.pairs()) << "shards=" << GetParam();
}

TEST_P(ShardCountParity, JoinIsByteIdenticalToGpu) {
  const auto& registry = api::BackendRegistry::instance();
  const auto q = datagen::uniform(300, 2, -2.0, 12.0, 607);  // overhangs d
  const auto d = datagen::uniform(500, 2, 0.0, 10.0, 613);
  auto want = registry.at("gpu").join(q, d, 0.8).pairs;
  want.normalize();
  auto got =
      registry.at("gpu_shard").join(q, d, 0.8, shard_config()).pairs;
  got.normalize();
  ASSERT_EQ(got.size(), want.size()) << "shards=" << GetParam();
  EXPECT_TRUE(got.pairs() == want.pairs()) << "shards=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ShardCountParity,
                         ::testing::Values(1, 2, 3, 7));

// --------------------------------------------------- result-mode parity
// Every backend honors pairs/count/histogram; sink is additionally gated
// (gpu_shard's shard pipelines run concurrently and cannot stream batches
// in the global deterministic order). This battery pins the cross-mode
// invariants on EVERY registered backend: total_pairs is the exact pair
// count in every mode, the histogram equals counts_per_key of the
// pairs-mode result, and the sink-batch concatenation is byte-identical
// to the pairs-mode output.

class ResultModeParity : public ::testing::TestWithParam<std::string> {
 protected:
  const api::Backend& backend() const {
    return api::BackendRegistry::instance().at(GetParam());
  }

  // The one backend that cannot stream; asserted (not assumed) by
  // SinkGating below so the design decision stays pinned.
  bool expect_sink_support() const { return GetParam() != "gpu_shard"; }

  static Dataset test_data() {
    return datagen::gaussian_mixture(900, 2, 5, 2.0, 0.0, 25.0, 701);
  }
  static constexpr double kEps = 1.1;

  static api::RunConfig mode_config(ResultMode mode) {
    api::RunConfig config;
    config.mode = mode;
    return config;
  }
};

TEST_P(ResultModeParity, CountOnlyMatchesPairsTotal) {
  const auto d = test_data();
  const auto full = backend().run(d, kEps);
  ASSERT_GT(full.pairs.size(), d.size()) << GetParam();
  EXPECT_EQ(full.total_pairs, full.pairs.size()) << GetParam();

  const auto counted =
      backend().run(d, kEps, mode_config(ResultMode::kCountOnly));
  EXPECT_EQ(counted.total_pairs, full.pairs.size()) << GetParam();
  // Non-pairs modes leave the untouched buffers empty.
  EXPECT_TRUE(counted.pairs.empty()) << GetParam();
  EXPECT_TRUE(counted.histogram.empty()) << GetParam();
}

TEST_P(ResultModeParity, HistogramMatchesCountsPerKey) {
  const auto d = test_data();
  auto full = backend().run(d, kEps);
  full.pairs.normalize();
  const auto want = full.pairs.counts_per_key(d.size());

  const auto got =
      backend().run(d, kEps, mode_config(ResultMode::kHistogram));
  ASSERT_EQ(got.histogram.size(), d.size()) << GetParam();
  EXPECT_TRUE(got.pairs.empty()) << GetParam();
  EXPECT_EQ(got.total_pairs, full.pairs.size()) << GetParam();
  EXPECT_EQ(got.histogram, want) << GetParam();
  // Degrees include the self pair, so every counter is >= 1 and the
  // histogram sums back to the exact pair count.
  const auto sum = std::accumulate(got.histogram.begin(), got.histogram.end(),
                                   std::uint64_t{0});
  EXPECT_EQ(sum, got.total_pairs) << GetParam();
  for (std::uint32_t c : got.histogram) ASSERT_GE(c, 1u) << GetParam();
}

TEST_P(ResultModeParity, SinkConcatenationIsByteIdenticalToPairs) {
  if (!expect_sink_support()) GTEST_SKIP() << "no sink on " << GetParam();
  const auto d = test_data();
  const auto full = backend().run(d, kEps);

  std::vector<Pair> streamed;
  api::RunConfig config = mode_config(ResultMode::kSink);
  config.sink = [&](const Pair* pairs, std::size_t count) {
    streamed.insert(streamed.end(), pairs, pairs + count);
  };
  const auto sunk = backend().run(d, kEps, config);
  EXPECT_TRUE(sunk.pairs.empty()) << GetParam();
  EXPECT_EQ(sunk.total_pairs, full.pairs.size()) << GetParam();
  // Not just the same set: the same bytes in the same order.
  EXPECT_TRUE(streamed == full.pairs.pairs()) << GetParam();
}

TEST_P(ResultModeParity, SinkGating) {
  api::RunConfig config = mode_config(ResultMode::kSink);
  config.sink = [](const Pair*, std::size_t) {};
  const auto d = datagen::uniform(80, 2, 0.0, 10.0, 702);
  if (expect_sink_support()) {
    EXPECT_NO_THROW(backend().run(d, 1.0, config)) << GetParam();
  } else {
    try {
      backend().run(d, 1.0, config);
      FAIL() << GetParam() << ": expected sink rejection";
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find(GetParam()), std::string::npos) << msg;
      EXPECT_NE(msg.find("sink"), std::string::npos) << msg;
      EXPECT_EQ(msg.find('\n'), std::string::npos) << "not one line: " << msg;
    }
  }
  // Sink mode without a callback is rejected everywhere.
  config.sink = nullptr;
  EXPECT_THROW(backend().run(d, 1.0, config), std::invalid_argument)
      << GetParam();
}

TEST_P(ResultModeParity, EmptyDatasetAllModes) {
  const Dataset empty(2);
  for (ResultMode mode : {ResultMode::kPairs, ResultMode::kCountOnly,
                          ResultMode::kHistogram}) {
    const auto out = backend().run(empty, 1.0, mode_config(mode));
    EXPECT_EQ(out.total_pairs, 0u)
        << GetParam() << " mode=" << result_mode_name(mode);
    EXPECT_TRUE(out.pairs.empty()) << GetParam();
    EXPECT_TRUE(out.histogram.empty()) << GetParam();
  }
}

TEST_P(ResultModeParity, JoinModesUseQueryKeys) {
  if (!backend().capabilities().supports_join) {
    GTEST_SKIP() << GetParam() << " has no join facet";
  }
  const auto q = datagen::uniform(250, 2, 0.0, 12.0, 703);
  const auto d = datagen::uniform(400, 2, 0.0, 12.0, 704);
  auto full = backend().join(q, d, 0.9);
  ASSERT_GT(full.pairs.size(), 0u) << GetParam();

  const auto counted =
      backend().join(q, d, 0.9, mode_config(ResultMode::kCountOnly));
  EXPECT_EQ(counted.total_pairs, full.pairs.size()) << GetParam();

  // Histogram keys are QUERY indices: one counter per query point.
  const auto hist =
      backend().join(q, d, 0.9, mode_config(ResultMode::kHistogram));
  ASSERT_EQ(hist.histogram.size(), q.size()) << GetParam();
  full.pairs.normalize();
  EXPECT_EQ(hist.histogram, full.pairs.counts_per_key(q.size()))
      << GetParam();
  EXPECT_EQ(hist.total_pairs, full.pairs.size()) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, ResultModeParity,
    ::testing::ValuesIn(api::BackendRegistry::instance().names()),
    [](const auto& info) { return info.param; });

// Overflow stress: a 4096-pair device buffer (far below the result size,
// but still above any single cell's output, which cannot be split) forces
// the pipeline through many overflow splits — exactly where the sink
// watermark logic (deferred flushing until every earlier batch landed)
// earns its keep. Two sink runs must produce identical byte streams, both
// equal to the pairs-mode output under the same starved buffer.
TEST(ResultModeOverflow, SinkStaysDeterministicUnderBufferStarvation) {
  const auto d = datagen::gaussian_mixture(600, 2, 4, 1.5, 0.0, 20.0, 711);
  for (const std::string name : {"gpu", "gpu_unicomp"}) {
    const auto& backend = api::BackendRegistry::instance().at(name);
    api::RunConfig config;
    config.extra["max_buffer_pairs"] = "4096";
    const auto full = backend.run(d, 1.2, config);
    ASSERT_GT(full.pairs.size(), 8000u) << name;

    std::size_t batches = 0;
    std::vector<Pair> first, second;
    config.mode = ResultMode::kSink;
    std::vector<Pair>* dest = &first;
    config.sink = [&](const Pair* pairs, std::size_t count) {
      ++batches;
      dest->insert(dest->end(), pairs, pairs + count);
    };
    const auto s1 = backend.run(d, 1.2, config);
    EXPECT_GT(batches, 1u) << name << ": starved buffer did not split";
    dest = &second;
    const auto s2 = backend.run(d, 1.2, config);

    EXPECT_EQ(s1.total_pairs, full.pairs.size()) << name;
    EXPECT_EQ(s2.total_pairs, full.pairs.size()) << name;
    EXPECT_TRUE(first == full.pairs.pairs()) << name;
    EXPECT_TRUE(first == second) << name << ": sink stream not reproducible";

    // The starved buffer must not change the count-only path either.
    config.mode = ResultMode::kCountOnly;
    config.sink = nullptr;
    EXPECT_EQ(backend.run(d, 1.2, config).total_pairs, full.pairs.size())
        << name;
  }
}

// ---------------------------------------------------- capability gating

TEST(OperationGating, AtLeastTwoBackendsPerFacet) {
  const auto& registry = api::BackendRegistry::instance();
  EXPECT_GE(registry.names_supporting(api::Operation::kJoin).size(), 2u);
  EXPECT_GE(registry.names_supporting(api::Operation::kKnn).size(), 2u);
  // Self-join is mandatory: everything qualifies.
  EXPECT_EQ(registry.names_supporting(api::Operation::kSelfJoin),
            registry.names());
}

TEST(OperationGating, UnsupportedJoinThrowsOneLinerListingCapable) {
  const auto& ego = api::BackendRegistry::instance().at("ego");
  ASSERT_FALSE(ego.capabilities().supports_join);
  try {
    ego.join(Dataset(2), Dataset(2), 1.0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("'ego' does not support join"), std::string::npos)
        << msg;
    for (const auto& name :
         api::BackendRegistry::instance().names_supporting(
             api::Operation::kJoin)) {
      EXPECT_NE(msg.find(name), std::string::npos) << msg;
    }
    EXPECT_EQ(msg.find('\n'), std::string::npos) << "not one line: " << msg;
  }
}

TEST(OperationGating, UnsupportedKnnThrowsForEveryFacetEntryPoint) {
  const auto& rtree = api::BackendRegistry::instance().at("rtree");
  ASSERT_FALSE(rtree.capabilities().supports_knn);
  EXPECT_THROW(rtree.self_knn(Dataset(2), 3), std::invalid_argument);
  EXPECT_THROW(rtree.knn(Dataset(2), Dataset(2), 3), std::invalid_argument);
}

TEST(OperationGating, RegistryOperationLookup) {
  const auto& registry = api::BackendRegistry::instance();
  EXPECT_EQ(registry.at("gpu", api::Operation::kJoin).name(), "gpu");
  EXPECT_EQ(registry.at("superego", api::Operation::kSelfJoin).name(),
            "ego");
  EXPECT_THROW(registry.at("ego", api::Operation::kJoin),
               std::invalid_argument);
  EXPECT_THROW(registry.at("gpu_bf", api::Operation::kKnn),
               std::invalid_argument);
  EXPECT_THROW(registry.at("nosuch", api::Operation::kJoin),
               std::invalid_argument);
}

TEST(OperationGating, UnknownNameErrorListsCapabilities) {
  try {
    api::BackendRegistry::instance().at("nosuch");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown backend 'nosuch'"), std::string::npos);
    EXPECT_NE(msg.find("gpu [self-join, join, knn, gpu]"),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find("ego [self-join]"), std::string::npos) << msg;
    EXPECT_NE(msg.find("rtree [self-join, join]"), std::string::npos) << msg;
  }
}

TEST(OperationGating, CapabilitySummaryShapes) {
  EXPECT_EQ(api::capability_summary({}), "self-join");
  EXPECT_EQ(api::capability_summary({.supports_join = true}),
            "self-join, join");
  EXPECT_EQ(api::capability_summary(
                {.supports_join = true, .supports_knn = true, .gpu = true}),
            "self-join, join, knn, gpu");
}

}  // namespace
}  // namespace sj
