// Chaos parity: under seeded fault injection the engines must produce
// BYTE-IDENTICAL results to their fault-free runs — recovery (transient
// retries, OOM splits, shard failover) is never allowed to show in the
// output, only in the stats. Runs through the backend registry so the
// knob plumbing (--opt faults=/retries=/backoff_ms=) is covered too.
//
// The whole file skips in a default build (the hooks compile out); the
// chaos CI job builds -DSJ_FAULTS=ON and runs it, alongside an SJ_FAULTS
// environment sweep over the ordinary parity suites.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "common/datagen.hpp"
#include "common/fault.hpp"

namespace sj {
namespace {

struct FaultGuard {
  FaultGuard() { fault::disable(); }
  ~FaultGuard() { fault::disable(); }
};

#define SJ_REQUIRE_CHAOS_BUILD()                                      \
  do {                                                                \
    if (!fault::kFaultsCompiledIn)                                    \
      GTEST_SKIP() << "fault hooks compiled out (-DSJ_FAULTS=OFF)";   \
  } while (0)

/// Chaos knobs shared by every run here: generous retry budget, no
/// backoff (wall-clock does not matter, convergence does).
api::RunConfig chaos_config(const std::string& spec) {
  api::RunConfig config;
  config.extra["faults"] = spec;
  config.extra["retries"] = "20";
  config.extra["backoff_ms"] = "0";
  return config;
}

ResultSet run_pairs(const std::string& backend, const Dataset& d, double eps,
                    api::RunConfig config = {}) {
  auto pairs =
      api::BackendRegistry::instance().at(backend).run(d, eps, config).pairs;
  pairs.normalize();
  return pairs;
}

class ChaosParity : public ::testing::TestWithParam<const char*> {};

TEST_P(ChaosParity, PairsSurviveInjectedFaults) {
  SJ_REQUIRE_CHAOS_BUILD();
  FaultGuard guard;
  const std::string backend = GetParam();
  const auto d = datagen::ippp(900, 2, 10.0, 601);
  fault::disable();
  const auto want = run_pairs(backend, d, 0.5);

  const std::vector<std::string> specs = {
      "stream:0.3,sync:0.1,seed:5",
      "alloc:0.3,sync:0.1,seed:9",
      "alloc:0.1,stream:0.2,sync:0.1,seed:23",
  };
  for (const auto& spec : specs) {
    const auto got = run_pairs(backend, d, 0.5, chaos_config(spec));
    ASSERT_EQ(got.size(), want.size()) << backend << " under " << spec;
    EXPECT_TRUE(got.pairs() == want.pairs()) << backend << " under " << spec;
  }
}

TEST_P(ChaosParity, CountAndHistogramModesSurviveToo) {
  SJ_REQUIRE_CHAOS_BUILD();
  FaultGuard guard;
  const std::string backend = GetParam();
  const auto& registry = api::BackendRegistry::instance();
  const auto d = datagen::ippp(700, 2, 8.0, 607);
  fault::disable();
  api::RunConfig plain;
  plain.mode = ResultMode::kCountOnly;
  const auto want_count = registry.at(backend).run(d, 0.5, plain).total_pairs;
  plain.mode = ResultMode::kHistogram;
  const auto want_hist = registry.at(backend).run(d, 0.5, plain).histogram;

  auto config = chaos_config("stream:0.3,sync:0.1,seed:31");
  config.mode = ResultMode::kCountOnly;
  EXPECT_EQ(registry.at(backend).run(d, 0.5, config).total_pairs, want_count)
      << backend;
  config.mode = ResultMode::kHistogram;
  EXPECT_EQ(registry.at(backend).run(d, 0.5, config).histogram, want_hist)
      << backend;
}

INSTANTIATE_TEST_SUITE_P(Backends, ChaosParity,
                         ::testing::Values("gpu", "gpu_unicomp", "gpu_shard"));

// ------------------------------------------------------------ failover

TEST(ChaosParityFailover, DeadDeviceShardFailsOverByteIdentical) {
  SJ_REQUIRE_CHAOS_BUILD();
  FaultGuard guard;
  const auto& registry = api::BackendRegistry::instance();
  const auto d = datagen::ippp(1200, 2, 12.0, 613);
  fault::disable();
  api::RunConfig plain;
  plain.extra["shards"] = "4";
  auto want = registry.at("gpu_shard").run(d, 0.5, plain).pairs;
  want.normalize();

  // Device 2 dies at its 2nd batch, on top of ambient transient/alloc
  // noise; its shard must re-plan onto a surviving device and the merged
  // output must not change.
  auto config =
      chaos_config("alloc:0.1,stream:0.2,device:shard2@batch2,seed:13");
  config.extra["shards"] = "4";
  config.extra["min_batches"] = "8";
  auto outcome = registry.at("gpu_shard").run(d, 0.5, config);
  outcome.pairs.normalize();
  ASSERT_EQ(outcome.pairs.size(), want.size());
  EXPECT_TRUE(outcome.pairs.pairs() == want.pairs());
  EXPECT_GE(outcome.stats.native_value("shards_failed_over"), 1.0);
  EXPECT_GT(outcome.stats.native_value("recovery_seconds"), 0.0);
  // The balance table records which device ran shard 2 after failover.
  EXPECT_EQ(outcome.stats.native_value("shard2_failed_over"), 1.0);
  EXPECT_NE(outcome.stats.native_value("shard2_device"), 2.0);
}

TEST(ChaosParityFailover, JoinFacetFailsOverByteIdentical) {
  SJ_REQUIRE_CHAOS_BUILD();
  FaultGuard guard;
  const auto& registry = api::BackendRegistry::instance();
  const auto q = datagen::ippp(500, 2, 8.0, 617);
  const auto data = datagen::uniform(800, 2, 0.0, 8.0, 619);
  fault::disable();
  api::RunConfig plain;
  plain.extra["shards"] = "4";
  auto want = registry.at("gpu_shard").join(q, data, 0.35, plain).pairs;
  want.normalize();

  auto config = chaos_config("stream:0.2,device:shard1@batch1,seed:29");
  config.extra["shards"] = "4";
  auto outcome = registry.at("gpu_shard").join(q, data, 0.35, config);
  outcome.pairs.normalize();
  EXPECT_TRUE(outcome.pairs.pairs() == want.pairs());
  EXPECT_GE(outcome.stats.native_value("shards_failed_over"), 1.0);
}

TEST(ChaosParityFailover, DeviceLossDuringStealingFailsOverByteIdentical) {
  SJ_REQUIRE_CHAOS_BUILD();
  FaultGuard guard;
  const auto& registry = api::BackendRegistry::instance();
  const auto d = datagen::ippp(1500, 2, 10.0, 631);
  fault::disable();
  api::RunConfig plain;
  plain.extra["shards"] = "4";
  auto want = registry.at("gpu_shard").run(d, 0.5, plain).pairs;
  want.normalize();

  // Many tiny chunklets under the stealing drive, and device 1 dies at
  // its 4th batch — mid-queue, so both its IN-FLIGHT chunklet and the
  // chunklets still queued (or already stolen) behind it must land on
  // surviving devices without changing the merged bytes.
  auto config = chaos_config("stream:0.2,device:shard1@batch4,seed:37");
  config.extra["shards"] = "4";
  config.extra["schedule"] = "steal";
  config.extra["chunklets"] = "32";
  config.extra["min_batches"] = "4";
  auto outcome = registry.at("gpu_shard").run(d, 0.5, config);
  outcome.pairs.normalize();
  ASSERT_EQ(outcome.pairs.size(), want.size());
  EXPECT_TRUE(outcome.pairs.pairs() == want.pairs());
  EXPECT_GE(outcome.stats.native_value("shards_failed_over"), 1.0);
  EXPECT_EQ(outcome.stats.native_value("shard1_failed_over"), 1.0);
  EXPECT_NE(outcome.stats.native_value("shard1_device"), 1.0);
  // Every chunklet still ran exactly once, somewhere.
  double chunklets_run = 0.0;
  for (int s = 0; s < 4; ++s) {
    chunklets_run += outcome.stats.native_value(
        "shard" + std::to_string(s) + "_chunklets");
  }
  EXPECT_EQ(chunklets_run, outcome.stats.native_value("chunklets"));
}

TEST(ChaosParityFailover, NoSurvivingDeviceFailsTyped) {
  SJ_REQUIRE_CHAOS_BUILD();
  FaultGuard guard;
  const auto d = datagen::uniform(300, 2, 0.0, 10.0, 623);
  auto config = chaos_config("device:shard0@batch1,seed:1");
  config.extra["shards"] = "1";
  try {
    api::BackendRegistry::instance().at("gpu_shard").run(d, 0.5, config);
    FAIL() << "expected DeviceLost";
  } catch (const fault::DeviceLost& e) {
    EXPECT_NE(std::string(e.what()).find("no surviving device"),
              std::string::npos)
        << e.what();
  }
}

TEST(ChaosParityExhaustion, RetryBudgetZeroFailsTypedThroughRegistry) {
  SJ_REQUIRE_CHAOS_BUILD();
  FaultGuard guard;
  const auto d = datagen::uniform(300, 2, 0.0, 10.0, 627);
  api::RunConfig config;
  config.extra["faults"] = "stream:1,seed:1";
  config.extra["retries"] = "0";
  config.extra["backoff_ms"] = "0";
  config.mode = ResultMode::kCountOnly;
  EXPECT_THROW(
      api::BackendRegistry::instance().at("gpu").run(d, 0.5, config),
      fault::TransientDeviceError);
}

}  // namespace
}  // namespace sj
