// The gpu_async engine: GPU-SJ with the serial metrics pass overlapped.
//
// AsyncGpuSelfJoin runs the same exact two-pass BatchPipeline as
// GpuSelfJoin (count launch, prefix sum, in-order fills whose copies
// overlap later fills), so its output is byte-identical to GpuSelfJoin's
// for the same options. What it adds is overlap on the host: in metrics
// mode the expensive serial Table II cache/occupancy pass — which only
// reads the grid — runs on its own thread alongside the adjacency build
// and the join instead of after them.
#pragma once

#include "core/self_join.hpp"

namespace sj {

/// gpu_async runs on gpu's options.
using AsyncSelfJoinOptions = GpuSelfJoinOptions;

class AsyncGpuSelfJoin {
 public:
  explicit AsyncGpuSelfJoin(AsyncSelfJoinOptions opt = {});

  /// Compute the full self-join of `d` with distance threshold eps >= 0.
  SelfJoinResult run(const Dataset& d, double eps) const;

  const AsyncSelfJoinOptions& options() const { return opt_; }

 private:
  AsyncSelfJoinOptions opt_;
};

}  // namespace sj
