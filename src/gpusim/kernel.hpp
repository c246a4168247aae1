// Kernel launch engine: the CUDA grid/block/thread execution model on CPU
// threads.
//
// A kernel is any callable taking a ThreadCtx. launch() executes it for
// every logical thread of the grid. Blocks are handed to OpenMP worker
// threads one at a time (a dynamic schedule with chunks of one block,
// mirroring how a GPU's block scheduler gives each thread block to the
// next free SM, in arbitrary order), so even a launch of a few blocks
// spreads over the team; threads within a block run sequentially. The
// paper's kernels (Algorithms 1 and 2) use no intra-block
// synchronisation or shared memory ("Threads do not utilize shared
// memory in this kernel", Section IV-E), so this execution order is
// semantically indistinguishable from the CUDA one.
#pragma once

#include <cstdint>
#include <functional>

#include "common/contracts.hpp"
#include "common/fault.hpp"
#include "common/timer.hpp"
#include "gpusim/device.hpp"

namespace sj::gpu {

struct LaunchConfig {
  std::uint64_t grid_dim = 0;  // number of blocks
  int block_dim = 256;         // threads per block (paper default: 256)

  /// Blocks needed to cover `n` logical threads.
  static LaunchConfig cover(std::uint64_t n, int block_dim = 256) {
    SJ_EXPECT(block_dim >= 1, "LaunchConfig::cover: block_dim must be >= 1");
    LaunchConfig cfg;
    cfg.block_dim = block_dim;
    cfg.grid_dim = (n + static_cast<std::uint64_t>(block_dim) - 1) /
                   static_cast<std::uint64_t>(block_dim);
    SJ_ENSURE(cfg.grid_dim * static_cast<std::uint64_t>(block_dim) >= n,
              "LaunchConfig::cover: grid must cover every logical thread");
    return cfg;
  }
};

/// Per-thread coordinates, the analogue of (blockIdx, threadIdx).
struct ThreadCtx {
  std::uint64_t block_idx;
  int thread_idx;
  int block_dim;
  std::uint64_t grid_dim;

  /// blockIdx.x * blockDim.x + threadIdx.x (Algorithm 1, line 2).
  std::uint64_t global_id() const {
    return block_idx * static_cast<std::uint64_t>(block_dim) +
           static_cast<std::uint64_t>(thread_idx);
  }
};

struct KernelStats {
  double seconds = 0.0;          // wall-clock execution time
  std::uint64_t threads_run = 0;  // logical threads executed
};

enum class ExecMode {
  kParallel,  // blocks across OpenMP workers (default)
  kSerial,    // deterministic single-threaded order (metrics/cache-sim runs)
};

/// Execute `body(ctx)` for every logical thread of the grid.
template <typename F>
KernelStats launch(const LaunchConfig& cfg, F&& body,
                   ExecMode mode = ExecMode::kParallel) {
  SJ_EXPECT(cfg.block_dim >= 1, "launch: block_dim must be >= 1");
  // Launch-entry fault: thrown before any kernel-thread body runs, so no
  // partial side effects (counters, result writes) reach device memory.
  SJ_FAULT_POINT(kStream);
  Timer t;
  const std::int64_t grid = static_cast<std::int64_t>(cfg.grid_dim);
  if (mode == ExecMode::kParallel) {
#pragma omp parallel for schedule(dynamic, 1)
    for (std::int64_t b = 0; b < grid; ++b) {
      ThreadCtx ctx{static_cast<std::uint64_t>(b), 0, cfg.block_dim,
                    cfg.grid_dim};
      for (int tIdx = 0; tIdx < cfg.block_dim; ++tIdx) {
        ctx.thread_idx = tIdx;
        body(ctx);
      }
    }
  } else {
    for (std::int64_t b = 0; b < grid; ++b) {
      ThreadCtx ctx{static_cast<std::uint64_t>(b), 0, cfg.block_dim,
                    cfg.grid_dim};
      for (int tIdx = 0; tIdx < cfg.block_dim; ++tIdx) {
        ctx.thread_idx = tIdx;
        body(ctx);
      }
    }
  }
  KernelStats stats;
  stats.seconds = t.seconds();
  stats.threads_run = cfg.grid_dim * static_cast<std::uint64_t>(cfg.block_dim);
  return stats;
}

}  // namespace sj::gpu
