// Backend parity on edge cases: one parameterized sweep over EVERY
// registered backend asserting bit-identical sorted pair sets against the
// brute-force reference, on the inputs that historically break spatial
// join implementations — empty input, a single point, eps = 0, and
// all-duplicate points — and run-twice byte determinism per backend.
//
// This suite is also where the repo-wide pair convention is asserted
// ONCE, instead of per-engine comments: results are ordered pairs
// (a, b) AND (b, a), self pairs (a, a) included for every point.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "bruteforce/brute_force.hpp"
#include "common/datagen.hpp"

namespace sj {
namespace {

Dataset all_duplicates(int dim, std::size_t n) {
  Dataset d(dim);
  for (std::size_t i = 0; i < n; ++i) {
    double p[kMaxDims] = {7.0, -3.0, 2.5, 0.0, 1.0, -9.0};
    d.push_back(p);
  }
  return d;
}

class BackendParity : public ::testing::TestWithParam<std::string> {
 protected:
  const api::Backend& backend() const {
    return api::BackendRegistry::instance().at(GetParam());
  }

  /// Runs the backend, checks exact pair-set equality against the brute
  /// reference, and asserts the repo-wide pair convention.
  void expect_parity(const Dataset& d, double eps) {
    auto want = brute::self_join(d, eps).pairs;
    want.normalize();
    auto got = backend().run(d, eps).pairs;
    got.normalize();
    EXPECT_TRUE(ResultSet::equal_normalized(got, want))
        << GetParam() << " on n=" << d.size() << " eps=" << eps
        << " (got " << got.size() << " pairs, want " << want.size() << ")";

    // Convention: ordered pairs — symmetric set, self pair per point.
    EXPECT_TRUE(got.is_symmetric()) << GetParam();
    ASSERT_GE(got.size(), d.size()) << GetParam();
    const auto& pairs = got.pairs();
    for (std::uint32_t i = 0; i < d.size(); ++i) {
      EXPECT_TRUE(std::binary_search(pairs.begin(), pairs.end(),
                                     Pair{i, i}))
          << GetParam() << ": missing self pair for point " << i;
    }
  }
};

TEST_P(BackendParity, EmptyDataset) {
  const auto got = backend().run(Dataset(2), 1.0);
  EXPECT_TRUE(got.pairs.empty());
}

TEST_P(BackendParity, SinglePoint) {
  Dataset d(3, {1.0, 2.0, 3.0});
  expect_parity(d, 0.5);
  // The lone pair is the self pair.
  auto got = backend().run(d, 0.5).pairs;
  got.normalize();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got.pairs()[0], (Pair{0, 0}));
}

TEST_P(BackendParity, EpsZero) {
  // eps = 0 keeps only co-located points (dist <= 0), including each
  // point's self pair.
  Dataset d(2, {1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0});
  expect_parity(d, 0.0);
}

TEST_P(BackendParity, EpsZeroSinglePoint) {
  Dataset d(2, {4.0, -4.0});
  expect_parity(d, 0.0);
}

TEST_P(BackendParity, AllDuplicatePoints) {
  for (int dim : {2, 4}) {
    const auto d = all_duplicates(dim, 40);
    expect_parity(d, 0.5);
    auto got = backend().run(d, 0.5).pairs;
    EXPECT_EQ(got.size(), 40u * 40u) << "dim=" << dim;
  }
}

TEST_P(BackendParity, DuplicatesMixedWithRegularPoints) {
  auto d = datagen::uniform(120, 2, 0.0, 30.0, 17);
  for (int i = 0; i < 15; ++i) {
    double p[2] = {5.0, 5.0};
    d.push_back(p);
  }
  expect_parity(d, 1.0);
}

TEST_P(BackendParity, SkewedClusteredData) {
  // Strongly inhomogeneous density (IPPP-style bumps over a sparse
  // background): the stress case for batch load balance and for any
  // engine whose pruning assumes near-uniform cells.
  const auto d = datagen::ippp(600, 2, 32.0, 29);
  for (double eps : {0.5, 2.0}) {
    expect_parity(d, eps);
  }
}

TEST_P(BackendParity, SmallUniformSweep) {
  const auto d = datagen::uniform(250, 3, 0.0, 20.0, 19);
  for (double eps : {0.5, 2.0, 50.0}) {
    expect_parity(d, eps);
  }
}

TEST_P(BackendParity, RunTwiceIsByteIdentical) {
  // Raw outputs, not normalized: the same call must return the same bytes.
  // The host-threaded engines also run on 4 threads, and brute's threaded
  // output must equal its serial reference.
  const auto d = datagen::ippp(2000, 2, 32.0, 31);
  const auto q = datagen::uniform(500, 2, 0.0, 100.0, 37);
  const double eps = 1.0;
  const bool joins = backend().capabilities().supports(api::Operation::kJoin);
  std::vector<int> thread_counts{0};
  if (GetParam() == "brute" || GetParam() == "ego") thread_counts.push_back(4);
  for (int threads : thread_counts) {
    api::RunConfig config;
    config.threads = threads;
    const auto first = backend().run(d, eps, config).pairs;
    EXPECT_EQ(first.pairs(), backend().run(d, eps, config).pairs.pairs())
        << GetParam() << " self-join, threads=" << threads;
    if (!joins) continue;
    const auto join = backend().join(q, d, eps, config).pairs;
    EXPECT_EQ(join.pairs(), backend().join(q, d, eps, config).pairs.pairs())
        << GetParam() << " join, threads=" << threads;
    if (GetParam() == "brute" && threads > 0) {
      EXPECT_EQ(first.pairs(), backend().run(d, eps).pairs.pairs())
          << "brute self-join: 4 threads vs 1";
      EXPECT_EQ(join.pairs(), backend().join(q, d, eps).pairs.pairs())
          << "brute join: 4 threads vs 1";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, BackendParity,
    ::testing::ValuesIn(api::BackendRegistry::instance().names()),
    [](const auto& info) { return info.param; });

// --- Data-layout parity: the cell-major layout must return byte-
// identical ordered pair sets to the legacy point-centric layout, across
// every GPU engine and both unicomp modes, edge cases included.

struct LayoutCase {
  std::string algo;
  std::map<std::string, std::string> extra;  // on top of layout=
  std::string label;
};

// Without a printer gtest names each case by a byte dump of the struct,
// which holds heap pointers and so changes from one process to the next.
void PrintTo(const LayoutCase& c, std::ostream* os) {
  *os << c.algo;
  for (const auto& [key, value] : c.extra) *os << ' ' << key << '=' << value;
}

class LayoutParity : public ::testing::TestWithParam<LayoutCase> {
 protected:
  void expect_layout_parity(const Dataset& d, double eps) {
    const auto& backend =
        api::BackendRegistry::instance().at(GetParam().algo);
    api::RunConfig legacy_cfg, cell_cfg;
    legacy_cfg.extra = GetParam().extra;
    cell_cfg.extra = GetParam().extra;
    legacy_cfg.extra["layout"] = "legacy";
    cell_cfg.extra["layout"] = "cell";
    auto legacy = backend.run(d, eps, legacy_cfg).pairs;
    auto cell = backend.run(d, eps, cell_cfg).pairs;
    legacy.normalize();
    cell.normalize();
    // Byte-identical ordered pair sets, not just equal counts.
    EXPECT_EQ(legacy.pairs(), cell.pairs())
        << GetParam().label << " on n=" << d.size() << " eps=" << eps;
  }
};

TEST_P(LayoutParity, EdgeCases) {
  expect_layout_parity(Dataset(2), 1.0);
  expect_layout_parity(Dataset(3, {1.0, 2.0, 3.0}), 0.5);
  // eps = 0 and co-located points.
  expect_layout_parity(Dataset(2, {1.0, 1.0, 1.0, 1.0, 2.0, 2.0}), 0.0);
  expect_layout_parity(all_duplicates(4, 40), 0.5);
}

TEST_P(LayoutParity, UniformAndSkewedSweeps) {
  const auto uni = datagen::uniform(400, 3, 0.0, 20.0, 47);
  for (double eps : {0.5, 2.0, 50.0}) {
    expect_layout_parity(uni, eps);
  }
  const auto skew = datagen::ippp(800, 2, 32.0, 49);
  for (double eps : {0.5, 2.0}) {
    expect_layout_parity(skew, eps);
  }
}

INSTANTIATE_TEST_SUITE_P(
    GpuEngines, LayoutParity,
    ::testing::Values(
        LayoutCase{"gpu", {}, "gpu"},
        LayoutCase{"gpu_unicomp", {}, "gpu_unicomp"}),
    [](const auto& info) { return info.param.label; });

}  // namespace
}  // namespace sj
