#include "core/brute_force_gpu.hpp"

#include <cstring>
#include <numeric>
#include <stdexcept>

#include "core/kernels.hpp"
#include "gpusim/arena.hpp"
#include "gpusim/kernel.hpp"

namespace sj {

GpuBruteForceResult gpu_brute_force(const Dataset& d, double eps,
                                    bool materialize, int block_size,
                                    const gpu::DeviceSpec& spec) {
  if (eps < 0.0) {
    throw std::invalid_argument("gpu_brute_force: eps must be >= 0");
  }
  GpuBruteForceResult r;
  if (d.empty()) return r;

  gpu::GlobalMemoryArena arena(spec);
  gpu::DeviceBuffer<double> points(arena, d.raw().size());
  std::memcpy(points.data(), d.raw().data(), d.raw().size() * sizeof(double));

  AtomicWork work;
  BruteForceKernelParams p;
  p.points = points.data();
  p.n = d.size();
  p.dim = d.dim();
  p.eps = eps;
  p.work = &work;

  // Exact two-pass output: count each point's pairs, prefix-sum the counts
  // into offsets, then fill every point's slice in place.
  gpu::DeviceBuffer<std::uint64_t> offsets;
  gpu::DeviceBuffer<Pair> out;
  if (materialize) {
    offsets = gpu::DeviceBuffer<std::uint64_t>(arena, d.size() + 1);
    p.result.unit_counts = offsets.data();
    gpu::launch(gpu::LaunchConfig::cover(d.size(), block_size),
                [&p](const gpu::ThreadCtx& ctx) {
                  brute_force_thread(ctx, p);
                });
    offsets[d.size()] = 0;
    std::exclusive_scan(offsets.data(), offsets.data() + d.size() + 1,
                        offsets.data(), std::uint64_t{0});
    out = gpu::DeviceBuffer<Pair>(arena, offsets[d.size()]);
    p.result = ResultBufferView{};
    p.result.out = out.data();
    p.result.offsets = offsets.data();
  }

  const gpu::KernelStats ks = gpu::launch(
      gpu::LaunchConfig::cover(d.size(), block_size),
      [&p](const gpu::ThreadCtx& ctx) { brute_force_thread(ctx, p); });
  r.kernel_seconds = ks.seconds;

  gpu::KernelMetrics m;
  work.add_to(m);
  if (materialize) {
    // The counting pass doubled the work counters; report the single-pass
    // numbers and collect the materialised pairs.
    r.num_pairs = out.size();
    r.distance_calcs = m.distance_calcs / 2;
    r.pairs.pairs().assign(out.data(), out.data() + r.num_pairs);
  } else {
    r.num_pairs = m.results;
    r.distance_calcs = m.distance_calcs;
  }
  return r;
}

}  // namespace sj
