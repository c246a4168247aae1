// The sharded multi-device engine (gpu_shard).
//
// Exactness rests on two invariants proved here at the unit level and
// end-to-end:
//   * the slice invariant — every candidate range of an owned cell
//     remaps into local slots that hold exactly the same global data
//     (owned span first, merged halo intervals after), and
//   * the ownership rule — each cell (query group) is owned by exactly
//     one shard, so shard outputs are disjoint and concatenate with no
//     dedup pass.
// End-to-end, gpu_shard must produce BYTE-IDENTICAL raw output to the
// single-device engine with the same unicomp setting (gpu or
// gpu_unicomp) for every shard count, including shard-boundary-straddling
// eps, small-buffer runs (run-twice determinism), a single giant cell,
// and the empty/eps=0/duplicate battery. Suites are named Shard* so the
// ThreadSanitizer CI job's filter picks them up (the concurrent schedule
// exercises K overlapped pipelines).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "common/cancel.hpp"
#include "common/datagen.hpp"
#include "common/timer.hpp"
#include "core/self_join.hpp"
#include "core/shard_engine.hpp"
#include "core/shard_plan.hpp"

namespace sj {
namespace {

// ------------------------------------------------------------- planning

TEST(ShardPlan, BoundariesBalanceWeights) {
  const std::vector<std::uint64_t> weights{1, 1, 1, 1, 100, 1, 1, 1};
  const auto bounds = plan_shard_boundaries(weights, 4);
  ASSERT_EQ(bounds.size(), 5u);
  EXPECT_EQ(bounds.front(), 0u);
  EXPECT_EQ(bounds.back(), weights.size());
  // The heavy cell must not share a shard with the whole tail: its shard
  // ends right after it.
  bool heavy_isolated = false;
  for (std::size_t s = 0; s + 1 < bounds.size(); ++s) {
    if (bounds[s] <= 4 && 4 < bounds[s + 1]) {
      heavy_isolated = bounds[s + 1] == 5;
    }
  }
  EXPECT_TRUE(heavy_isolated);
}

TEST(ShardPlan, ShardCountClampsToUnits) {
  const std::vector<std::uint64_t> weights{3, 3};
  const auto bounds = plan_shard_boundaries(weights, 7);
  EXPECT_EQ(bounds.size(), 3u);  // 2 effective shards
  EXPECT_EQ(plan_shard_boundaries({}, 4), (std::vector<std::uint32_t>{0, 0}));
  EXPECT_EQ(plan_shard_boundaries({5}, 1),
            (std::vector<std::uint32_t>{0, 1}));
}

TEST(ShardPlan, SliceRemapsOwnedAndHaloRanges) {
  // Three cells with slots [0,2) [2,5) [5,9); cell 1 is owned. Its ranges
  // reference itself plus both neighbours (one range straddles the owned
  // boundary on each side).
  const std::vector<CandidateRange> ranges{{0, 5, 0}, {2, 9, 1}};
  const std::vector<std::uint64_t> offsets{0, 2};
  const std::vector<std::uint64_t> weights{42};
  const ShardSlice s =
      make_shard_slice(ranges, offsets, weights, 0, 1, /*owned=*/2, 5);

  EXPECT_EQ(s.owned_points(), 3u);
  ASSERT_EQ(s.halo.size(), 2u);  // [0,2) and [5,9)
  EXPECT_EQ(s.halo[0].begin, 0u);
  EXPECT_EQ(s.halo[0].end, 2u);
  EXPECT_EQ(s.halo[0].local_begin, 3u);
  EXPECT_EQ(s.halo[1].begin, 5u);
  EXPECT_EQ(s.halo[1].end, 9u);
  EXPECT_EQ(s.halo[1].local_begin, 5u);
  EXPECT_EQ(s.local_points(), 9u);
  EXPECT_EQ(s.weight, 42u);

  // Range {0,5} splits into the halo piece [0,2) -> local [3,5) and the
  // owned piece [2,5) -> local [0,3). Range {2,9} into owned [0,3) and
  // halo [5,9) -> local [5,9), keeping its both flag.
  ASSERT_EQ(s.offsets, (std::vector<std::uint64_t>{0, 4}));
  ASSERT_EQ(s.ranges.size(), 4u);
  EXPECT_EQ(s.ranges[0].begin, 3u);
  EXPECT_EQ(s.ranges[0].end, 5u);
  EXPECT_EQ(s.ranges[0].both, 0u);
  EXPECT_EQ(s.ranges[1].begin, 0u);
  EXPECT_EQ(s.ranges[1].end, 3u);
  EXPECT_EQ(s.ranges[2].begin, 0u);
  EXPECT_EQ(s.ranges[2].end, 3u);
  EXPECT_EQ(s.ranges[2].both, 1u);
  EXPECT_EQ(s.ranges[3].begin, 5u);
  EXPECT_EQ(s.ranges[3].end, 9u);
  EXPECT_EQ(s.ranges[3].both, 1u);

  // to_local round-trips every referenced slot.
  EXPECT_EQ(s.to_local(2), 0u);
  EXPECT_EQ(s.to_local(4), 2u);
  EXPECT_EQ(s.to_local(0), 3u);
  EXPECT_EQ(s.to_local(8), 8u);
  EXPECT_THROW(s.to_local(9), std::out_of_range);
}

TEST(ShardPlan, SliceWithEmptyOwnedSpanIsAllHalo) {
  // The join mode: groups own no data slots.
  const std::vector<CandidateRange> ranges{{4, 7, 0}, {6, 10, 0}};
  const std::vector<std::uint64_t> offsets{0, 1, 2};
  const std::vector<std::uint64_t> weights{1, 2};
  const ShardSlice s = make_shard_slice(ranges, offsets, weights, 0, 2, 0, 0);
  EXPECT_EQ(s.owned_points(), 0u);
  ASSERT_EQ(s.halo.size(), 1u);  // [4,7) and [6,10) merge into [4,10)
  EXPECT_EQ(s.halo[0].begin, 4u);
  EXPECT_EQ(s.halo[0].end, 10u);
  EXPECT_EQ(s.local_points(), 6u);
  EXPECT_EQ(s.ranges[0].begin, 0u);
  EXPECT_EQ(s.ranges[0].end, 3u);
  EXPECT_EQ(s.ranges[1].begin, 2u);
  EXPECT_EQ(s.ranges[1].end, 6u);
  EXPECT_EQ(s.weight, 3u);
}

// --------------------------------------------------- end-to-end parity

/// Raw output of the single-device engine with the given unicomp
/// setting: gpu_shard's reference bytes.
ResultSet run_gpu(const Dataset& d, double eps, bool unicomp = false) {
  return api::BackendRegistry::instance()
      .at(unicomp ? "gpu_unicomp" : "gpu")
      .run(d, eps)
      .pairs;
}

ResultSet run_shard(const Dataset& d, double eps, int shards,
                    ShardSchedule schedule = ShardSchedule::kConcurrent,
                    bool unicomp = false,
                    std::uint64_t max_buffer_pairs = 1ULL << 24) {
  ShardedSelfJoinOptions opt;
  opt.shards = shards;
  opt.schedule = schedule;
  opt.unicomp = unicomp;
  opt.max_buffer_pairs = max_buffer_pairs;
  return ShardedGpuSelfJoin(opt).run(d, eps).pairs;
}

/// Byte-identical raw outputs: the same pairs in the same order.
void expect_identical(const ResultSet& got, const ResultSet& want,
                      const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  EXPECT_TRUE(got.pairs() == want.pairs()) << label;
}

class ShardParity : public ::testing::TestWithParam<int> {};

TEST_P(ShardParity, MatchesGpuOnUniformData) {
  const auto d = datagen::uniform(600, 2, 0.0, 20.0, 901);
  const auto want = run_gpu(d, 1.1);
  expect_identical(run_shard(d, 1.1, GetParam()), want,
                   "uniform shards=" + std::to_string(GetParam()));
}

TEST_P(ShardParity, MatchesGpuOnClusteredSkew) {
  const auto d = datagen::ippp(1500, 2, 16.0, 907);
  const auto want = run_gpu(d, 0.4);
  expect_identical(run_shard(d, 0.4, GetParam()), want,
                   "ippp shards=" + std::to_string(GetParam()));
}

TEST_P(ShardParity, MatchesGpuUnicompAndHigherDims) {
  const auto d = datagen::uniform(400, 3, 0.0, 8.0, 913);
  const auto want = run_gpu(d, 0.9, /*unicomp=*/true);
  expect_identical(run_shard(d, 0.9, GetParam(), ShardSchedule::kConcurrent,
                             /*unicomp=*/true),
                   want, "unicomp shards=" + std::to_string(GetParam()));
}

TEST_P(ShardParity, BoundaryStraddlingEpsKeepsCrossShardPairs) {
  // Points laid out on a line, one per grid cell, eps exactly reaching
  // the neighbours: EVERY pair crosses a cell boundary, so any shard
  // boundary splits neighbour pairs across devices — the halo must carry
  // them all.
  Dataset d(1);
  for (int i = 0; i < 64; ++i) {
    const double x = static_cast<double>(i);
    d.push_back(&x);
  }
  const auto want = run_gpu(d, 1.0);
  ASSERT_GE(want.size(), 64u + 2u * 63u);  // self pairs + both orders
  expect_identical(run_shard(d, 1.0, GetParam()), want,
                   "line shards=" + std::to_string(GetParam()));
}

TEST_P(ShardParity, JoinMatchesGpuBackend) {
  const auto q = datagen::ippp(500, 2, 8.0, 919);
  const auto data = datagen::uniform(800, 2, 0.0, 8.0, 921);
  const auto& registry = api::BackendRegistry::instance();
  const auto want = registry.at("gpu").join(q, data, 0.35).pairs;

  api::RunConfig config;
  config.extra["shards"] = std::to_string(GetParam());
  const auto got = registry.at("gpu_shard").join(q, data, 0.35, config).pairs;
  expect_identical(got, want, "join shards=" + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Counts, ShardParity, ::testing::Values(1, 2, 3, 7));

// ------------------------------------------------------- special shapes

TEST(ShardEngine, SingleGiantCellSplitsInsideOneShard) {
  // Every point in ONE grid cell: only one shard can own it; the others
  // stay idle and the owning shard's pipeline splits the oversized cell
  // by point subranges.
  const auto d = datagen::uniform(300, 2, 0.0, 0.5, 931);
  const auto want = run_gpu(d, 1.0);
  ShardedSelfJoinOptions opt;
  opt.shards = 4;
  const auto r = ShardedGpuSelfJoin(opt).run(d, 1.0);
  EXPECT_EQ(r.shard.shards, 1u);  // clamped to the non-empty cell count
  expect_identical(r.pairs, want, "giant cell");
}

TEST(ShardEngine, EmptyAndTinyInputs) {
  ShardedSelfJoinOptions opt;
  opt.shards = 4;
  const ShardedGpuSelfJoin join(opt);
  EXPECT_TRUE(join.run(Dataset(2), 1.0).pairs.empty());

  Dataset one(2, {1.0, 2.0});
  auto r = join.run(one, 0.5);
  ASSERT_EQ(r.pairs.size(), 1u);
  EXPECT_EQ(r.pairs.pairs()[0], (Pair{0, 0}));
}

TEST(ShardEngine, EpsZeroAndAllDuplicates) {
  Dataset d(2);
  for (int i = 0; i < 40; ++i) {
    const double p[2] = {3.0, -1.0};
    d.push_back(p);
  }
  const auto want = run_gpu(d, 0.0);
  ASSERT_EQ(want.size(), 40u * 40u);
  expect_identical(run_shard(d, 0.0, 3), want, "duplicates eps=0");
}

TEST(ShardEngine, OverflowStressIsDeterministicRunTwice) {
  // A buffer far below the result volume forces overflow splits in every
  // shard pipeline; the output must be byte-identical across runs and
  // match the unsharded engine.
  const auto d = datagen::ippp(900, 2, 8.0, 937);
  const auto want = run_gpu(d, 0.6);
  const auto a = run_shard(d, 0.6, 3, ShardSchedule::kConcurrent, false,
                           /*max_buffer_pairs=*/256);
  const auto b = run_shard(d, 0.6, 3, ShardSchedule::kConcurrent, false,
                           /*max_buffer_pairs=*/256);
  expect_identical(a, want, "overflow stress vs gpu");
  EXPECT_TRUE(a.pairs() == b.pairs()) << "run-twice determinism";
}

TEST(ShardEngine, SerialAndConcurrentSchedulesAgreeByteExactly) {
  const auto d = datagen::ippp(1200, 2, 12.0, 941);
  ShardedSelfJoinOptions opt;
  opt.shards = 4;
  opt.schedule = ShardSchedule::kSteal;
  const auto serial = ShardedGpuSelfJoin(opt).run(d, 0.5);
  opt.schedule = ShardSchedule::kConcurrent;
  const auto conc = ShardedGpuSelfJoin(opt).run(d, 0.5);
  // RAW outputs (no normalization): the shard-order merge must be
  // schedule-independent.
  EXPECT_TRUE(serial.pairs.pairs() == conc.pairs.pairs());
}

TEST(ShardEngine, BalanceAndHaloStatsAreReported) {
  const auto d = datagen::ippp(2000, 2, 16.0, 947);
  ShardedSelfJoinOptions opt;
  opt.shards = 4;
  // One chunklet per device: nothing to steal, so each device runs
  // exactly the weighted partition's share (stealing would make the
  // per-device weights follow chunklet timings).
  opt.chunklets = opt.shards;
  opt.schedule = ShardSchedule::kSteal;
  const auto r = ShardedGpuSelfJoin(opt).run(d, 0.4);
  ASSERT_EQ(r.shard.shards, 4u);
  ASSERT_EQ(r.shard.per_shard.size(), 4u);
  std::uint64_t points = 0;
  std::uint64_t pairs = 0;
  std::uint64_t weight_total = 0;
  std::uint64_t weight_max = 0;
  for (const ShardStats& s : r.shard.per_shard) {
    EXPECT_GT(s.units, 0u);
    EXPECT_GT(s.owned_points, 0u);
    points += s.owned_points;
    pairs += s.pairs;
    weight_total += s.weight;
    weight_max = std::max(weight_max, s.weight);
  }
  EXPECT_EQ(points, d.size());          // owned spans partition the slots
  EXPECT_EQ(pairs, r.pairs.size());     // disjoint shard outputs
  // The weighted partition keeps the heaviest device under a 2x share of
  // the average even on strongly clustered data.
  EXPECT_LT(static_cast<double>(weight_max),
            2.0 * static_cast<double>(weight_total) / 4.0);
  EXPECT_GE(r.shard.makespan_seconds, r.shard.common_seconds);
}

TEST(ShardEngine, AdjacencyTimeIsReportedForBothFacets) {
  const auto d = datagen::uniform(1500, 2, 0.0, 40.0, 951);
  ShardedSelfJoinOptions opt;
  opt.shards = 2;
  opt.chunklets = 6;
  // Every chunklet resolves its own cells' adjacency; the run reports the
  // sum.
  EXPECT_GT(ShardedGpuSelfJoin(opt).run(d, 1.0).stats.adjacency_seconds, 0.0);
  EXPECT_GT(sharded_join(d, d, 1.0, opt).stats.adjacency_seconds, 0.0);
}

TEST(ShardEngine, MetricsReplayIsTimedApart) {
  const auto d = datagen::uniform(1500, 2, 0.0, 40.0, 953);
  ShardedSelfJoinOptions opt;
  opt.shards = 2;
  opt.collect_metrics = true;
  const Timer wall;
  const ShardedSelfJoinResult r = ShardedGpuSelfJoin(opt).run(d, 1.0);
  const double wall_seconds = wall.seconds();
  EXPECT_GT(r.stats.metrics_seconds, 0.0);
  EXPECT_GE(wall_seconds, r.stats.total_seconds + r.stats.metrics_seconds);
  opt.collect_metrics = false;
  EXPECT_EQ(ShardedGpuSelfJoin(opt).run(d, 1.0).stats.metrics_seconds, 0.0);
}

TEST(ShardEngine, ControlStopsBothFacetsTyped) {
  const auto d = datagen::uniform(500, 2, 0.0, 20.0, 957);
  exec::CancelToken token;
  token.cancel();
  exec::ExecControl cancelled;
  cancelled.cancel = &token;
  exec::ExecControl expired;
  expired.deadline = exec::Deadline::after_ms(-1.0);
  ShardedSelfJoinOptions opt;
  opt.shards = 2;
  opt.control = &cancelled;
  EXPECT_THROW(ShardedGpuSelfJoin(opt).run(d, 1.0), exec::Cancelled);
  EXPECT_THROW(sharded_join(d, d, 1.0, opt), exec::Cancelled);
  opt.control = &expired;
  EXPECT_THROW(ShardedGpuSelfJoin(opt).run(d, 1.0), exec::DeadlineExceeded);
  EXPECT_THROW(sharded_join(d, d, 1.0, opt), exec::DeadlineExceeded);

  // A deadline that passes during the run stops it at a chunklet
  // pipeline's checkpoint: the index build alone outlasts 1 ms.
  const auto big = datagen::uniform(100000, 2, 0.0, 100.0, 959);
  exec::ExecControl soon;
  soon.deadline = exec::Deadline::after_ms(1.0);
  opt.control = &soon;
  EXPECT_THROW(ShardedGpuSelfJoin(opt).run(big, 0.8), exec::DeadlineExceeded);
}

// ------------------------------------------------------------- options

TEST(ShardOptions, InvalidKnobsAreRejected) {
  ShardedSelfJoinOptions opt;
  opt.shards = 0;
  EXPECT_THROW(ShardedGpuSelfJoin{opt}, std::invalid_argument);
  opt = {};
  opt.layout = GridLayout::kLegacy;
  EXPECT_THROW(ShardedGpuSelfJoin{opt}, std::invalid_argument);
  opt = {};
  EXPECT_THROW(ShardedGpuSelfJoin(opt).run(Dataset(2), -1.0),
               std::invalid_argument);
}

TEST(ShardOptions, BackendKnobValidation) {
  const auto& backend = api::BackendRegistry::instance().at("gpu_shard");
  const auto d = datagen::uniform(50, 2, 0.0, 5.0, 953);

  api::RunConfig config;
  config.extra["shards"] = "0";
  EXPECT_THROW(backend.run(d, 1.0, config), std::invalid_argument);
  config.extra.clear();
  config.extra["layout"] = "legacy";
  EXPECT_THROW(backend.run(d, 1.0, config), std::invalid_argument);
  config.extra.clear();
  config.extra["schedule"] = "sometimes";
  EXPECT_THROW(backend.run(d, 1.0, config), std::invalid_argument);
  config.extra.clear();
  config.extra["no_such_knob"] = "1";
  EXPECT_THROW(backend.run(d, 1.0, config), std::invalid_argument);
  config.extra.clear();
  config.threads = 2;
  EXPECT_THROW(backend.run(d, 1.0, config), std::invalid_argument);

  // kNN stays capability-gated off.
  EXPECT_THROW(
      api::BackendRegistry::instance().at("gpu_shard", api::Operation::kKnn),
      std::invalid_argument);
}

TEST(ShardOptions, ShardKnobsSelectScheduleAndCount) {
  const auto& backend = api::BackendRegistry::instance().at("gpu_shard");
  const auto d = datagen::uniform(400, 2, 0.0, 20.0, 959);
  api::RunConfig config;
  config.extra["shards"] = "3";
  config.extra["schedule"] = "steal";
  config.extra["num_streams"] = "2";
  const auto r = backend.run(d, 1.0, config);
  EXPECT_EQ(r.stats.native_value("shards"), 3.0);
  EXPECT_EQ(r.stats.native_value("schedule_concurrent"), 0.0);
  EXPECT_GT(r.stats.native_value("makespan_seconds"), 0.0);
  EXPECT_GT(r.stats.native_value("shard2_pairs"), 0.0);

  // One spelling per knob: the retired "serial" and "static" schedules
  // and the "streams" key are rejected.
  for (const char* retired : {"serial", "static"}) {
    api::RunConfig schedule;
    schedule.extra["schedule"] = retired;
    EXPECT_THROW(backend.run(d, 1.0, schedule), std::invalid_argument)
        << retired;
  }
  api::RunConfig streams;
  streams.extra["streams"] = "2";
  EXPECT_THROW(backend.run(d, 1.0, streams), std::invalid_argument);
}

}  // namespace
}  // namespace sj
