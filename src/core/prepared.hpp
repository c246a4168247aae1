// The one orchestration path of the GPU self-join and join: a dataset's
// grid index and device image, staged ONCE and reused across many
// queries. The always-on service (api/session.hpp) keeps one for its
// lifetime; the one-shot engines (GpuSelfJoin::run, gpu_join) build a
// single-use one per call, so every sjtool one-shot run pays the index
// build + upload per invocation while a session pays it per lifetime.
//
// Thread safety: after construction, run()/self_join() may be called
// concurrently from many threads. The shared arena's allocation is
// mutex-protected (gpusim/arena.hpp), the staged grid buffers are
// read-only, and each call runs its own stream pool — the only shared
// mutable state is the lazily-built self-join adjacency, guarded here.
#pragma once

#include <memory>
#include <mutex>

#include "common/dataset.hpp"
#include "core/device_view.hpp"
#include "core/join.hpp"
#include "core/kernels.hpp"
#include "core/self_join.hpp"
#include "gpusim/arena.hpp"

namespace sj {

class PreparedJoin {
 public:
  /// Build the data-side image: host grid index (radix-sort binning) +
  /// device staging in `layout`. `data` is referenced, not copied, and
  /// must outlive the PreparedJoin. The cell-major layout feeds the
  /// grouped kernel, for joins and self-joins alike; kLegacy keeps the
  /// paper's point-centric kernel over the original point order.
  PreparedJoin(const Dataset& data, double eps,
               const gpu::DeviceSpec& device = gpu::DeviceSpec::titan_x_pascal(),
               GridLayout layout = GridLayout::kCellMajor);

  /// Restore path: adopt an already-validated index (snapshot restore,
  /// core/snapshot.hpp) instead of rebuilding it, staged cell-major. The
  /// index must have been built over `data`.
  PreparedJoin(const Dataset& data, GridIndex index,
               const gpu::DeviceSpec& device = gpu::DeviceSpec::titan_x_pascal());

  const Dataset& data() const { return *data_; }
  const GridIndex& index() const { return index_; }
  double eps() const { return index_.eps(); }
  /// Seconds spent building the host index (0 on the restore path).
  double index_build_seconds() const { return index_build_seconds_; }
  /// Seconds staging the device image.
  double upload_seconds() const { return upload_seconds_; }

  /// Join `queries` against the prepared data grid: the per-call work is
  /// query upload + the adjacency of the queries' groups (cell-major) +
  /// the batched pipeline; the index and data staging are amortised.
  /// opt.layout and opt.device are ignored (fixed at construction).
  GpuJoinResult run(const Dataset& queries, const GpuJoinOptions& opt) const;

  /// Self-join over the prepared grid at the index's eps. On the
  /// cell-major layout the adjacency of the grid's cells is resolved once
  /// per unicomp flag and cached across calls; its index-search counters
  /// are folded into every call's metrics, its build time only into the
  /// call that built it. opt.layout and opt.device are ignored.
  SelfJoinResult self_join(const GpuSelfJoinOptions& opt) const;

 private:
  void stage();

  const Dataset* data_;
  GridIndex index_;
  gpu::DeviceSpec device_;
  GridLayout layout_ = GridLayout::kCellMajor;
  mutable gpu::GlobalMemoryArena arena_;
  std::unique_ptr<DeviceGrid> dev_;
  double index_build_seconds_ = 0.0;
  double upload_seconds_ = 0.0;

  mutable std::mutex cache_mu_;
  /// The self-join adjacency, indexed by unicomp flag.
  mutable std::unique_ptr<GroupAdjacency> self_adjacency_[2];
};

}  // namespace sj
