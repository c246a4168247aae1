// The over-decomposed chunklet plan and the work-stealing shard
// scheduler (gpu_shard, PR 9).
//
// Unit level: plan_chunklets must cover the unit range with disjoint
// contiguous chunklets, nest the device boundaries inside the chunklet
// boundaries, clamp M into [devices, units], and carry exact per-chunklet
// weight sums; plan_shard_boundaries must never emit a zero-weight part
// when any unit has weight (the giant-cell degenerate plan fix).
//
// End-to-end: the stealing scheduler must stay byte-identical to the
// single-device gpu backend for every schedule x shard-count x result
// mode, deterministic run-to-run (under injected faults too) even when
// stealing and small result buffers interleave, and actually steal on
// skewed data. Suites are named Shard* so the ThreadSanitizer CI job's
// filter picks them up (the concurrent schedule races K device threads
// over the shared deques).
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "common/datagen.hpp"
#include "core/shard_engine.hpp"
#include "core/shard_plan.hpp"

namespace sj {
namespace {

// ------------------------------------------------------ chunklet planner

void expect_plan_invariants(const ChunkletPlan& plan,
                            const std::vector<std::uint64_t>& weights,
                            const std::string& label) {
  ASSERT_GE(plan.bounds.size(), 2u) << label;
  EXPECT_EQ(plan.bounds.front(), 0u) << label;
  EXPECT_EQ(plan.bounds.back(), weights.size()) << label;
  ASSERT_EQ(plan.weights.size(), plan.bounds.size() - 1) << label;
  for (std::size_t c = 0; c < plan.chunklets(); ++c) {
    EXPECT_LT(plan.bounds[c], plan.bounds[c + 1]) << label;  // disjoint cover
    std::uint64_t w = 0;
    for (std::uint32_t u = plan.bounds[c]; u < plan.bounds[c + 1]; ++u) {
      w += weights[u];
    }
    EXPECT_EQ(plan.weights[c], w) << label << " chunklet " << c;
  }
  ASSERT_GE(plan.device_bounds.size(), 2u) << label;
  EXPECT_EQ(plan.device_bounds.front(), 0u) << label;
  EXPECT_EQ(plan.device_bounds.back(), plan.chunklets()) << label;
  for (std::size_t d = 0; d + 1 < plan.device_bounds.size(); ++d) {
    EXPECT_LT(plan.device_bounds[d], plan.device_bounds[d + 1]) << label;
  }
}

TEST(ShardChunkletPlan, CoversDisjointlyAndNestsDeviceBounds) {
  std::vector<std::uint64_t> weights(53);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    weights[i] = 1 + (i * 7) % 13;  // varied, all positive
  }
  const ChunkletPlan plan = plan_chunklets(weights, 4);
  expect_plan_invariants(plan, weights, "default M");
  EXPECT_EQ(plan.devices(), 4u);
  // Default over-decomposition: 12 chunklets per device (clamped to the
  // unit count).
  EXPECT_EQ(plan.chunklets(), std::min<std::size_t>(
                                  kChunkletsPerDevice * 4, weights.size()));
}

TEST(ShardChunkletPlan, ChunkletCountClampsToDevicesAndUnits) {
  const std::vector<std::uint64_t> five(5, 2);
  // Fewer units than devices: both clamp to the unit count.
  const ChunkletPlan tiny = plan_chunklets(five, 8);
  expect_plan_invariants(tiny, five, "units < devices");
  EXPECT_EQ(tiny.devices(), 5u);
  EXPECT_EQ(tiny.chunklets(), 5u);

  // Explicit M below the device count clamps up to it; above the unit
  // count clamps down.
  const std::vector<std::uint64_t> ten(10, 3);
  EXPECT_EQ(plan_chunklets(ten, 4, 2).chunklets(), 4u);
  EXPECT_EQ(plan_chunklets(ten, 4, 100).chunklets(), 10u);
  const ChunkletPlan m7 = plan_chunklets(ten, 2, 7);
  expect_plan_invariants(m7, ten, "M=7");
  EXPECT_EQ(m7.chunklets(), 7u);
  EXPECT_EQ(m7.devices(), 2u);

  // No units at all: the degenerate empty plan.
  const ChunkletPlan empty = plan_chunklets({}, 4);
  EXPECT_EQ(empty.chunklets(), 0u);
  EXPECT_EQ(empty.devices(), 0u);
}

TEST(ShardChunkletPlan, ZeroWeightNeighboursCoalesceIntoNonEmptyParts) {
  // The giant-cell degenerate plan: one unit carries all the weight, so a
  // K-way forced partition used to emit K-1 adjacent zero-weight parts.
  // The planner must coalesce them away.
  for (const auto& weights :
       {std::vector<std::uint64_t>{100, 0, 0, 0},
        std::vector<std::uint64_t>{0, 0, 100, 0},
        std::vector<std::uint64_t>{0, 50, 0, 50, 0}}) {
    const auto bounds = plan_shard_boundaries(weights, 4);
    ASSERT_GE(bounds.size(), 2u);
    EXPECT_EQ(bounds.front(), 0u);
    EXPECT_EQ(bounds.back(), weights.size());
    for (std::size_t p = 0; p + 1 < bounds.size(); ++p) {
      std::uint64_t w = 0;
      for (std::uint32_t u = bounds[p]; u < bounds[p + 1]; ++u) {
        w += weights[u];
      }
      EXPECT_GT(w, 0u) << "zero-weight part " << p;
    }
  }
  // All-zero weights degrade to a single covering part, not an error.
  EXPECT_EQ(plan_shard_boundaries({0, 0, 0}, 4),
            (std::vector<std::uint32_t>{0, 3}));
}

// --------------------------------------------------- end-to-end parity

ResultSet run_gpu(const Dataset& d, double eps) {
  auto pairs = api::BackendRegistry::instance().at("gpu").run(d, eps).pairs;
  pairs.normalize();
  return pairs;
}

ShardedJoinResult run_chunked(const Dataset& d, double eps, int shards,
                              ShardSchedule schedule, int chunklets = 0,
                              std::uint64_t max_buffer_pairs = 1ULL << 24) {
  ShardedSelfJoinOptions opt;
  opt.shards = shards;
  opt.schedule = schedule;
  opt.chunklets = chunklets;
  opt.max_buffer_pairs = max_buffer_pairs;
  return ShardedGpuSelfJoin(opt).run(d, eps);
}

class ShardStealParity : public ::testing::TestWithParam<int> {};

TEST_P(ShardStealParity, AllSchedulesMatchGpuByteExactly) {
  const auto d = datagen::ippp(1500, 2, 16.0, 967);
  const auto want = run_gpu(d, 0.4);
  for (const ShardSchedule schedule :
       {ShardSchedule::kSteal, ShardSchedule::kConcurrent}) {
    auto r = run_chunked(d, 0.4, GetParam(), schedule);
    r.pairs.normalize();
    ASSERT_EQ(r.pairs.size(), want.size())
        << "shards=" << GetParam() << " schedule="
        << static_cast<int>(schedule);
    EXPECT_TRUE(r.pairs.pairs() == want.pairs())
        << "shards=" << GetParam() << " schedule="
        << static_cast<int>(schedule);
  }
}

TEST_P(ShardStealParity, StaticAndStealAgreeRawInEveryMode) {
  const auto d = datagen::uniform(900, 2, 0.0, 12.0, 971);
  // RAW outputs (no normalization): the chunklet-order merge must be
  // schedule- and assignment-independent.
  const auto a = run_chunked(d, 0.8, GetParam(), ShardSchedule::kSteal);
  const auto c = run_chunked(d, 0.8, GetParam(), ShardSchedule::kConcurrent);
  EXPECT_TRUE(a.pairs.pairs() == c.pairs.pairs());

  // Count and histogram modes: same totals, element-identical histogram.
  ShardedSelfJoinOptions opt;
  opt.shards = GetParam();
  opt.chunklets = 4 * GetParam();
  opt.mode = ResultMode::kCountOnly;
  opt.schedule = ShardSchedule::kSteal;
  const auto count = ShardedGpuSelfJoin(opt).run(d, 0.8);
  EXPECT_EQ(count.total_pairs, a.pairs.size());
  opt.mode = ResultMode::kHistogram;
  const auto hist_steal = ShardedGpuSelfJoin(opt).run(d, 0.8);
  opt.schedule = ShardSchedule::kConcurrent;
  const auto hist_concurrent = ShardedGpuSelfJoin(opt).run(d, 0.8);
  EXPECT_EQ(hist_steal.total_pairs, a.pairs.size());
  EXPECT_TRUE(hist_steal.histogram == hist_concurrent.histogram);
  const std::uint64_t hist_sum =
      std::accumulate(hist_steal.histogram.begin(),
                      hist_steal.histogram.end(), std::uint64_t{0});
  EXPECT_EQ(hist_sum, a.pairs.size());
}

TEST_P(ShardStealParity, JoinFacetHonoursChunkletKnob) {
  const auto q = datagen::ippp(500, 2, 8.0, 977);
  const auto data = datagen::uniform(800, 2, 0.0, 8.0, 983);
  const auto& registry = api::BackendRegistry::instance();
  auto want = registry.at("gpu").join(q, data, 0.35).pairs;
  want.normalize();

  api::RunConfig config;
  config.extra["shards"] = std::to_string(GetParam());
  config.extra["schedule"] = "steal";
  config.extra["chunklets"] = std::to_string(6 * GetParam());
  auto got = registry.at("gpu_shard").join(q, data, 0.35, config).pairs;
  got.normalize();
  ASSERT_EQ(got.size(), want.size());
  EXPECT_TRUE(got.pairs() == want.pairs());
}

INSTANTIATE_TEST_SUITE_P(Counts, ShardStealParity,
                         ::testing::Values(1, 2, 3, 7));

// ---------------------------------------------------- stealing pressure

// Adversarial skew for the stealing scheduler: the population proxy
// prices a cell by its +-1 LINEARIZED neighbours, but true 2D work spans
// the 3x3 SPATIAL window. A 1D-like string of cells (linear neighbours
// == spatial neighbours, proxy accurate) next to a compact 2D block
// (proxy underprices ~3x) gives the device group seeded with the block
// ~3x the true work of its proxy share — a STRUCTURAL imbalance that
// survives any uniform slowdown (sanitizers, loaded machines), unlike
// timing jitter on near-balanced clocks.
Dataset proxy_blind_skew() {
  std::vector<double> pts;
  const double w = 0.6;  // one grid cell at eps = 0.6
  // 40 points per blob, compact (all within one cell): dense enough that
  // a chunklet's kernel work outweighs its fixed re-arm overhead, so the
  // imbalance shows through even when instrumentation (TSan) inflates
  // that overhead.
  auto blob = [&](double cx, double cy) {
    for (int i = 0; i < 40; ++i) {
      // Deterministic in-cell scatter, no two points coincident.
      pts.push_back(cx + 0.01 * (i % 5));
      pts.push_back(cy + 0.01 * (i / 5));
    }
  };
  // String: 60 cells along y = 0.
  for (int i = 0; i < 60; ++i) blob(i * w + 0.1, 0.1);
  // Block: 8 x 8 cells, far from the string. Same per-cell population as
  // the string — the proxy prices both identically — but each block cell
  // has 8 populated spatial neighbours to the string's 2, i.e. ~3x the
  // true candidate work per proxy unit.
  for (int bx = 0; bx < 8; ++bx) {
    for (int by = 0; by < 8; ++by) {
      blob(bx * w + 0.1, 50.0 + by * w + 0.1);
    }
  }
  return Dataset(2, std::move(pts), "proxy-blind-skew");
}

TEST(ShardSteal, SkewedDataForcesStealsAndStaysDeterministic) {
  // Proxy-blind skew with many tiny chunklets: the statically seeded
  // deques are structurally imbalanced, so the early finishers must
  // steal. A tiny result buffer keeps overflow splits interleaving with
  // the steals.
  const auto d = proxy_blind_skew();
  const auto want = run_gpu(d, 0.6);
  auto a = run_chunked(d, 0.6, 4, ShardSchedule::kSteal,
                       /*chunklets=*/48, /*max_buffer_pairs=*/4096);
  auto b = run_chunked(d, 0.6, 4, ShardSchedule::kSteal,
                       /*chunklets=*/48, /*max_buffer_pairs=*/4096);
  auto norm = a.pairs;
  norm.normalize();
  ASSERT_EQ(norm.size(), want.size());
  EXPECT_TRUE(norm.pairs() == want.pairs());
  // Determinism is a property of the OUTPUT, not the schedule: the two
  // runs may steal differently, but the merged bytes must match.
  EXPECT_TRUE(a.pairs.pairs() == b.pairs.pairs());

  EXPECT_EQ(a.shard.chunklets_total, 48u);
  std::uint64_t run_total = 0;
  std::uint64_t stolen_total = 0;
  for (const ShardStats& s : a.shard.per_shard) {
    run_total += s.chunklets;
    stolen_total += s.stolen;
    EXPECT_GE(s.seconds, s.steal_seconds);
  }
  EXPECT_EQ(run_total, a.shard.chunklets_total);
  EXPECT_EQ(stolen_total, a.shard.chunklets_stolen);

  // Stealing itself is a timing phenomenon: a device steals only when
  // its deque drains while another still holds work. On a heavily loaded
  // machine scheduler jitter can flatten the equal-weight chunklets into
  // a lockstep drain, so a single run may legitimately finish steal-free
  // — but across several runs on this skew the early finishers must
  // steal at least once, or the scheduler has stopped stealing.
  std::uint64_t stolen = a.shard.chunklets_stolen + b.shard.chunklets_stolen;
  for (int attempt = 0; attempt < 4 && stolen == 0; ++attempt) {
    stolen += run_chunked(d, 0.6, 4, ShardSchedule::kSteal,
                          /*chunklets=*/48, /*max_buffer_pairs=*/4096)
                  .shard.chunklets_stolen;
  }
  EXPECT_GT(stolen, 0u) << "no chunklet was ever stolen across 6 runs";
}

TEST(ShardSteal, BalanceStatsExposeChunkletCounters) {
  const auto d = datagen::uniform(600, 2, 0.0, 20.0, 997);
  const auto& backend = api::BackendRegistry::instance().at("gpu_shard");
  api::RunConfig config;
  config.extra["shards"] = "3";
  config.extra["schedule"] = "steal";
  config.extra["chunklets"] = "12";
  const auto r = backend.run(d, 1.0, config);
  EXPECT_EQ(r.stats.native_value("shards"), 3.0);
  EXPECT_EQ(r.stats.native_value("schedule_concurrent"), 0.0);
  EXPECT_EQ(r.stats.native_value("chunklets"), 12.0);
  double chunklets = 0.0;
  for (int s = 0; s < 3; ++s) {
    const std::string p = "shard" + std::to_string(s) + "_";
    chunklets += r.stats.native_value(p + "chunklets");
    EXPECT_GE(r.stats.native_value(p + "chunklets"),
              r.stats.native_value(p + "stolen"));
    EXPECT_GE(r.stats.native_value(p + "steal_seconds"), 0.0);
  }
  EXPECT_EQ(chunklets, 12.0);
}

// --------------------------------------------------------------- knobs

TEST(ShardSteal, KnobValidation) {
  const auto& backend = api::BackendRegistry::instance().at("gpu_shard");
  const auto d = datagen::uniform(50, 2, 0.0, 5.0, 1019);

  api::RunConfig config;
  config.extra["chunklets"] = "-1";
  EXPECT_THROW(backend.run(d, 1.0, config), std::invalid_argument);
  config.extra.clear();
  config.extra["chunklets"] = "0";  // 0 = auto is valid
  EXPECT_EQ(backend.run(d, 1.0, config).pairs.size(),
            run_gpu(d, 1.0).size());
}

}  // namespace
}  // namespace sj
