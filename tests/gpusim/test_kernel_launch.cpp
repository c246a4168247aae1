#include "gpusim/kernel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/omp_compat.hpp"
#include "gpusim/atomic.hpp"

namespace sj::gpu {
namespace {

TEST(LaunchConfig, CoverRoundsUp) {
  auto cfg = LaunchConfig::cover(1000, 256);
  EXPECT_EQ(cfg.grid_dim, 4u);
  EXPECT_EQ(cfg.block_dim, 256);
  cfg = LaunchConfig::cover(1024, 256);
  EXPECT_EQ(cfg.grid_dim, 4u);
  cfg = LaunchConfig::cover(1025, 256);
  EXPECT_EQ(cfg.grid_dim, 5u);
  cfg = LaunchConfig::cover(0, 256);
  EXPECT_EQ(cfg.grid_dim, 0u);
}

TEST(ThreadCtx, GlobalIdMatchesCuda) {
  ThreadCtx ctx{3, 17, 256, 10};
  EXPECT_EQ(ctx.global_id(), 3u * 256 + 17);
}

TEST(Launch, EveryLogicalThreadRunsExactlyOnce) {
  const std::uint64_t n = 10000;
  std::vector<std::atomic<int>> hits(n);
  auto cfg = LaunchConfig::cover(n, 128);
  const auto stats = launch(cfg, [&](const ThreadCtx& ctx) {
    const auto gid = ctx.global_id();
    if (gid < n) hits[gid].fetch_add(1);
  });
  for (std::uint64_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
  EXPECT_EQ(stats.threads_run, cfg.grid_dim * 128);
  EXPECT_GE(stats.threads_run, n);
}

TEST(Launch, SerialModeMatchesParallel) {
  const std::uint64_t n = 5000;
  DeviceCounter parallel_sum, serial_sum;
  auto body = [&](DeviceCounter& c) {
    return [&c, n](const ThreadCtx& ctx) {
      if (ctx.global_id() < n) c.fetch_add(ctx.global_id());
    };
  };
  launch(LaunchConfig::cover(n, 64), body(parallel_sum));
  launch(LaunchConfig::cover(n, 64), body(serial_sum), ExecMode::kSerial);
  EXPECT_EQ(parallel_sum.load(), serial_sum.load());
  EXPECT_EQ(serial_sum.load(), n * (n - 1) / 2);
}

TEST(Launch, SerialModeIsDeterministicOrder) {
  std::vector<std::uint64_t> order;
  launch(LaunchConfig::cover(100, 32),
         [&](const ThreadCtx& ctx) { order.push_back(ctx.global_id()); },
         ExecMode::kSerial);
  ASSERT_EQ(order.size(), 128u);  // 4 blocks * 32
  for (std::size_t i = 1; i < order.size(); ++i) {
    EXPECT_EQ(order[i], order[i - 1] + 1);
  }
}

TEST(Launch, SmallGridSpreadsOverTheTeam) {
  // Blocks go to the team one at a time, as a GPU's block scheduler hands
  // them out: a launch of a few blocks must not run them all on one
  // worker. Each body waits (at most 2 s in all) for a second body to be
  // running at the same time.
  if (omp_get_max_threads() < 2) {
    GTEST_SKIP() << "needs an OpenMP team of at least two threads";
  }
  std::atomic<int> running{0};
  std::atomic<bool> overlapped{false};
  std::atomic<bool> gave_up{false};
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  launch(LaunchConfig{8, 1}, [&](const ThreadCtx&) {
    running.fetch_add(1);
    while (!overlapped.load() && !gave_up.load()) {
      if (running.load() >= 2) {
        overlapped.store(true);
      } else if (std::chrono::steady_clock::now() >= deadline) {
        gave_up.store(true);
      } else {
        std::this_thread::yield();
      }
    }
    running.fetch_sub(1);
  });
  EXPECT_TRUE(overlapped.load());
}

TEST(DeviceCounter, FetchAddReturnsOldValue) {
  DeviceCounter c;
  EXPECT_EQ(c.fetch_add(5), 0u);
  EXPECT_EQ(c.fetch_add(3), 5u);
  EXPECT_EQ(c.load(), 8u);
  c.store(100);
  EXPECT_EQ(c.load(), 100u);
}

TEST(DeviceCounter, ConcurrentAddsAreExact) {
  DeviceCounter c;
  launch(LaunchConfig::cover(100000, 256), [&](const ThreadCtx& ctx) {
    if (ctx.global_id() < 100000) c.fetch_add(1);
  });
  EXPECT_EQ(c.load(), 100000u);
}

}  // namespace
}  // namespace sj::gpu
