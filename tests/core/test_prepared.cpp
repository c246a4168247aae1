// PreparedJoin (core/prepared.hpp): the staged-once data image must
// answer joins and self-joins byte-identically to the one-shot engines,
// across repeated and concurrent calls, and must honor the deadline /
// cancellation checkpoints.
#include "core/prepared.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "bruteforce/brute_force.hpp"
#include "common/datagen.hpp"
#include "core/join.hpp"
#include "core/self_join.hpp"
#include "core/snapshot.hpp"

namespace sj {
namespace {

TEST(PreparedJoin, JoinMatchesOneShotGpuJoinExactly) {
  const auto data = datagen::gaussian_mixture(900, 2, 5, 5.0, 0.0, 80.0, 7);
  const auto queries = datagen::uniform(400, 2, 0.0, 80.0, 8);
  const double eps = 1.8;

  auto oneshot = gpu_join(queries, data, eps);
  PreparedJoin prepared(data, eps);
  auto warm = prepared.run(queries, {});

  oneshot.pairs.normalize();
  warm.pairs.normalize();
  EXPECT_EQ(oneshot.pairs.pairs(), warm.pairs.pairs());
  EXPECT_EQ(oneshot.total_pairs, warm.total_pairs);
  // The build cost is paid at construction, not per run.
  EXPECT_EQ(warm.stats.index_build_seconds, 0.0);
  EXPECT_GT(prepared.index_build_seconds(), 0.0);
}

TEST(PreparedJoin, SelfJoinMatchesOneShotAcrossRepeatedCalls) {
  const auto data = datagen::uniform(1000, 2, 0.0, 40.0, 17);
  const double eps = 1.1;
  GpuSelfJoinOptions opt;
  opt.unicomp = true;
  auto oneshot = GpuSelfJoin(opt).run(data, eps);
  oneshot.pairs.normalize();

  PreparedJoin prepared(data, eps);
  // Repeated calls exercise the cached adjacency path; every call must
  // match the one-shot engine exactly, work counters included (the
  // cached adjacency's index-search work is reported on every call).
  for (int rep = 0; rep < 3; ++rep) {
    auto r = prepared.self_join(opt);
    r.pairs.normalize();
    EXPECT_EQ(oneshot.pairs.pairs(), r.pairs.pairs()) << "rep " << rep;
    EXPECT_EQ(oneshot.total_pairs, r.total_pairs) << "rep " << rep;
    EXPECT_EQ(oneshot.stats.metrics.cells_examined,
              r.stats.metrics.cells_examined)
        << "rep " << rep;
    EXPECT_EQ(oneshot.stats.metrics.cells_nonempty,
              r.stats.metrics.cells_nonempty)
        << "rep " << rep;
  }
  EXPECT_GT(oneshot.stats.metrics.cells_examined, 0u);
  EXPECT_GT(oneshot.stats.metrics.cells_nonempty, 0u);
  // Both unicomp settings share the image but cache separately.
  GpuSelfJoinOptions plain;
  plain.unicomp = false;
  auto plain_oneshot = GpuSelfJoin(plain).run(data, eps);
  plain_oneshot.pairs.normalize();
  for (int rep = 0; rep < 2; ++rep) {
    auto plain_warm = prepared.self_join(plain);
    plain_warm.pairs.normalize();
    EXPECT_EQ(plain_oneshot.pairs.pairs(), plain_warm.pairs.pairs());
    EXPECT_EQ(plain_oneshot.stats.metrics.cells_examined,
              plain_warm.stats.metrics.cells_examined)
        << "rep " << rep;
    EXPECT_EQ(plain_oneshot.stats.metrics.cells_nonempty,
              plain_warm.stats.metrics.cells_nonempty)
        << "rep " << rep;
  }
  EXPECT_GT(plain_oneshot.stats.metrics.cells_examined, 0u);
}

TEST(PreparedJoin, AdjacencyTimeCountsOnlyTheCallThatBuildsIt) {
  const auto data = datagen::uniform(1000, 2, 0.0, 40.0, 19);
  const auto queries = datagen::uniform(300, 2, 0.0, 40.0, 20);
  PreparedJoin prepared(data, 1.1);
  EXPECT_GT(prepared.self_join({}).stats.adjacency_seconds, 0.0);
  // The cached adjacency is reused: no build, no build time.
  EXPECT_EQ(prepared.self_join({}).stats.adjacency_seconds, 0.0);
  // A join groups its own queries on every call.
  for (int rep = 0; rep < 2; ++rep) {
    EXPECT_GT(prepared.run(queries, {}).stats.adjacency_seconds, 0.0);
  }
}

TEST(PreparedJoin, FarAndNanQueriesMatchBruteForce) {
  const auto data = datagen::uniform(800, 2, 0.0, 30.0, 23);
  Dataset queries = datagen::uniform(200, 2, -2.0, 32.0, 24);
  const double nan = std::nan("");
  for (const auto& q : std::vector<std::vector<double>>{
           {1e300, 15.0}, {-1e300, -1e300}, {15.0, 1e300}, {nan, 10.0},
           {10.0, nan}, {nan, nan}, {1e300, nan}, {-1e300, 0.5}}) {
    queries.push_back(q.data());
  }
  const double eps = 1.3;
  const auto want = brute::join(queries, data, eps);
  for (GridLayout layout : {GridLayout::kCellMajor, GridLayout::kLegacy}) {
    PreparedJoin prepared(data, eps, gpu::DeviceSpec::titan_x_pascal(),
                          layout);
    const GpuJoinResult got = prepared.run(queries, {});
    EXPECT_GT(got.total_pairs, 0u);
    EXPECT_TRUE(ResultSet::equal_normalized(got.pairs, want.pairs));
  }
}

TEST(PreparedJoin, ConcurrentRunsFromManyThreadsAgree) {
  const auto data = datagen::uniform(800, 2, 0.0, 30.0, 27);
  const auto queries = datagen::uniform(300, 2, 0.0, 30.0, 28);
  const double eps = 1.0;
  PreparedJoin prepared(data, eps);
  auto expected = gpu_join(queries, data, eps);
  expected.pairs.normalize();

  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  std::vector<GpuJoinResult> results(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] { results[static_cast<std::size_t>(t)] =
                                      prepared.run(queries, {}); });
  }
  for (auto& th : threads) th.join();
  for (auto& r : results) {
    r.pairs.normalize();
    EXPECT_EQ(expected.pairs.pairs(), r.pairs.pairs());
  }
}

TEST(PreparedJoin, RestoreConstructorMatchesColdBuild) {
  const auto data = datagen::uniform(600, 2, 0.0, 20.0, 37);
  const double eps = 0.9;
  GridIndex index(data, eps);
  PreparedJoin cold(data, eps);
  PreparedJoin warm(data, std::move(index));
  const auto queries = datagen::uniform(200, 2, 0.0, 20.0, 38);
  auto a = cold.run(queries, {});
  auto b = warm.run(queries, {});
  a.pairs.normalize();
  b.pairs.normalize();
  EXPECT_EQ(a.pairs.pairs(), b.pairs.pairs());
  EXPECT_EQ(warm.index_build_seconds(), 0.0);
}

TEST(PreparedJoin, RestoreConstructorRejectsMismatchedIndex) {
  const auto data = datagen::uniform(300, 2, 0.0, 20.0, 47);
  const auto other = datagen::uniform(200, 2, 0.0, 20.0, 48);
  GridIndex index(other, 1.0);
  EXPECT_THROW(PreparedJoin(data, std::move(index)), std::invalid_argument);
}

TEST(PreparedJoin, ExpiredDeadlineAbortsTypedAndImageStaysServable) {
  const auto data = datagen::uniform(700, 2, 0.0, 25.0, 57);
  const auto queries = datagen::uniform(250, 2, 0.0, 25.0, 58);
  PreparedJoin prepared(data, 1.0);

  exec::ExecControl ctl;
  ctl.deadline = exec::Deadline::after_ms(0.0);
  GpuJoinOptions opt;
  opt.control = &ctl;
  EXPECT_THROW((void)prepared.run(queries, opt), exec::DeadlineExceeded);

  GpuSelfJoinOptions sopt;
  sopt.control = &ctl;
  EXPECT_THROW((void)prepared.self_join(sopt), exec::DeadlineExceeded);

  // The aborted queries must not have poisoned the shared image.
  auto expected = gpu_join(queries, data, 1.0);
  auto after = prepared.run(queries, {});
  expected.pairs.normalize();
  after.pairs.normalize();
  EXPECT_EQ(expected.pairs.pairs(), after.pairs.pairs());
}

TEST(PreparedJoin, CancelledTokenAbortsTyped) {
  const auto data = datagen::uniform(500, 2, 0.0, 25.0, 67);
  PreparedJoin prepared(data, 1.0);
  exec::CancelToken token;
  token.cancel();
  exec::ExecControl ctl;
  ctl.cancel = &token;
  GpuSelfJoinOptions opt;
  opt.control = &ctl;
  EXPECT_THROW((void)prepared.self_join(opt), exec::Cancelled);
}

TEST(PreparedJoin, MidRunCancellationFromSinkAbortsBetweenBatches) {
  // Trip the token from inside the result sink: the current batch
  // completes (cooperative checkpoints, nothing torn mid-kernel) and the
  // next checkpoint aborts with the typed error.
  const auto data = datagen::gaussian_mixture(2500, 2, 4, 3.0, 0.0, 50.0, 77);
  PreparedJoin prepared(data, 2.0);
  exec::CancelToken token;
  exec::ExecControl ctl;
  ctl.cancel = &token;
  GpuSelfJoinOptions opt;
  opt.mode = ResultMode::kSink;
  opt.sink = [&token](const Pair*, std::size_t) { token.cancel(); };
  opt.control = &ctl;
  opt.min_batches = 4;  // guarantee work remains after the first batch
  EXPECT_THROW((void)prepared.self_join(opt), exec::Cancelled);

  // Untouched queries on the same image still answer correctly.
  GpuSelfJoinOptions plain;
  auto r = prepared.self_join(plain);
  EXPECT_GT(r.total_pairs, 0u);
}

}  // namespace
}  // namespace sj
