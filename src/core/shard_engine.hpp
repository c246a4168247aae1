// gpu_shard: the paper's grid join scaled out across K simulated devices.
//
// The single-GPU engines are saturated by the cell-major layout; the next
// hardware axis is scale-out. ShardedGpuSelfJoin partitions the non-empty
// cells of the cell-major grid into K contiguous cell ranges (shard
// boundaries placed by per-cell work weights, so skewed IPPP-style data
// balances), gives each shard its OWN simulated device —
// a gpu::GlobalMemoryArena of the full DeviceSpec plus a BatchPipeline
// with its own stream pool — and uploads to each device only its owned
// slots plus the one-cell halo of neighbour data its kernels read
// (derived from the precomputed adjacency, see shard_plan.hpp).
//
// Ownership rule: the grouped kernel emits each pair from the scan of
// exactly one unit, and every group (for the self-join, a cell) is owned
// with all of its units by exactly one shard —
// so shard results are disjoint by construction, need no dedup pass, and
// concatenate in deterministic shard-key order (each shard's own output
// is already deterministic: the pipeline's exact two-pass output is in
// scan order over the shard's slots). The result is byte-identical to the
// single-device engines'.
//
// sharded_join() runs the query/data join through the same machinery:
// the sharded units are the sorted query GROUPS of build_group_adjacency
// (each group owned by one shard), and a shard's data slice is exactly
// the slots its groups' candidate ranges reference — the self-join's
// cells own their slots besides.
//
// Work distribution is OVER-DECOMPOSED: instead of one slice per device,
// plan_chunklets splits the cell range into M >> K contiguous chunklets
// (default ~12 per device, knob chunklets=), each carrying its own owned
// span, halo intervals and local remap exactly as a PR-5 shard did. A
// shared chunklet scheduler seeds per-device deques with contiguous
// chunklet groups by the static weighted plan, and a device that drains
// its own deque STEALS whole chunklets from the most-loaded victim — the
// ownership rule makes any cell-to-device assignment exact, so stealing
// needs no dedup and the merge stays deterministic by sorting on the
// chunklet index (ascending first-slot key), byte-identical to `gpu`
// regardless of which device ran what. Devices re-arm one arena and one
// BatchPipeline across their chunklets instead of rebuilding per slice.
//
// One host core serialises the simulated devices, so wall-clock alone
// cannot show scale-out. Each device therefore measures its own busy
// time, and the stats report the modelled multi-device MAKESPAN (common
// host phases + the busiest device) next to the true wall time — the
// same modelling stance as the PCIe transfer model. schedule=steal
// drives the devices in virtual time — each chunklet runs alone
// on the host core and its busy seconds advance its device's clock; the
// device with the earliest clock (i.e. the first to go idle) takes the
// next chunklet, stealing when its own deque is dry — giving clean
// deterministic makespans (what the ablation uses). schedule=concurrent
// (the default) overlaps the devices on real host threads with
// real-idleness stealing, which is also what the ThreadSanitizer job
// exercises.
#pragma once

#include <cstdint>
#include <vector>

#include "core/join.hpp"
#include "core/self_join.hpp"

namespace sj {

/// How the K device pipelines are driven on the host. Both steal.
enum class ShardSchedule {
  kConcurrent,  ///< one host thread per device, real-idleness stealing
  kSteal        ///< virtual-time serial drive (schedule=steal) — clean
                ///< makespans
};

struct ShardedSelfJoinOptions : GpuSelfJoinOptions {
  /// Simulated devices; clamped to the number of non-empty cells (query
  /// groups for the join facet).
  int shards = 4;
  ShardSchedule schedule = ShardSchedule::kConcurrent;
  /// Over-decomposition degree M (contiguous cell-range chunklets fed to
  /// the stealing scheduler); 0 = kChunkletsPerDevice * shards. Clamped
  /// into [devices, non-empty cells].
  int chunklets = 0;
};

/// Per-device execution record — the balance data sjtool --stats prints.
/// One row per device SLOT (the logical device; `device` names the
/// physical device that ended up serving it after any failover),
/// aggregated over every chunklet the device ran, stolen ones included.
struct ShardStats {
  std::uint32_t units = 0;          ///< cells (query groups) this device ran
  std::uint64_t weight = 0;         ///< summed planner weight it ran
  std::uint64_t owned_points = 0;   ///< slots owned by its chunklets
  std::uint64_t halo_points = 0;    ///< neighbour slots replicated to it
  std::uint64_t pairs = 0;          ///< pairs this device emitted
  std::uint64_t chunklets = 0;      ///< chunklets it executed in total
  std::uint64_t stolen = 0;         ///< of those, stolen from other deques
  double steal_seconds = 0.0;       ///< busy time spent on stolen chunklets
  double seconds = 0.0;             ///< device busy time (slice, upload,
                                    ///< plan, pipeline)
  int device = -1;                  ///< physical device that served the slot
                                    ///< (== the slot index unless failed
                                    ///< over)
  bool failed_over = false;         ///< re-homed onto a surviving device
  BatchRunStats batch;
};

struct ShardedRunStats {
  std::size_t shards = 0;  ///< effective device count after clamping
  std::size_t chunklets_total = 0;   ///< over-decomposition degree M
  std::size_t chunklets_stolen = 0;  ///< chunklets run off a foreign deque
  /// Unsharded host work: index build, cell-major staging and chunklet
  /// planning.
  double common_seconds = 0.0;
  /// Modelled K-device response time: common_seconds + the busiest
  /// device's clock. Meaningful under the virtual-time serial drive
  /// (schedule=steal), where chunklet busy times do not contend for the
  /// host core.
  double makespan_seconds = 0.0;
  double busy_sum_seconds = 0.0;  ///< total device busy time
  /// Device slots whose physical device died (fault::DeviceLost) and that
  /// were re-homed onto a surviving device — fresh arena, fresh pipeline;
  /// the in-flight chunklet re-runs and the slot's queued chunklets drain
  /// on the replacement, output byte-identical to the fault-free run
  /// (ownership rule: re-execution is exact and dedup-free).
  std::size_t shards_failed_over = 0;
  double recovery_seconds = 0.0;  ///< busy time spent on failover re-runs
  std::vector<ShardStats> per_shard;
};

struct ShardedSelfJoinResult {
  ResultSet pairs;
  /// Exact pair count in every result mode; per-point histogram (original
  /// ids — shards are disjoint, so the per-shard histograms sum) only in
  /// kHistogram. Mode kSink is NOT supported by the sharded engines: the
  /// shard pipelines run concurrently, so streaming batches in the global
  /// deterministic order would serialise the devices.
  std::uint64_t total_pairs = 0;
  std::vector<std::uint32_t> histogram;
  SelfJoinStats stats;  ///< aggregate, same shape as the other engines
  ShardedRunStats shard;
};

class ShardedGpuSelfJoin {
 public:
  explicit ShardedGpuSelfJoin(ShardedSelfJoinOptions opt = {});

  /// Compute the full self-join of `d` with distance threshold eps >= 0.
  ShardedSelfJoinResult run(const Dataset& d, double eps) const;

  const ShardedSelfJoinOptions& options() const { return opt_; }

 private:
  ShardedSelfJoinOptions opt_;
};

struct ShardedJoinResult {
  /// Pairs are (query index, data index), as in gpu_join.
  ResultSet pairs;
  /// As in ShardedSelfJoinResult; histogram keys are query indices.
  std::uint64_t total_pairs = 0;
  std::vector<std::uint32_t> histogram;
  GpuJoinStats stats;
  ShardedRunStats shard;
};

/// Epsilon join of `queries` against grid-indexed `data` across K
/// simulated devices (query groups sharded; each shard's data slice is
/// the slots its groups reference).
ShardedJoinResult sharded_join(const Dataset& queries, const Dataset& data,
                               double eps, const ShardedSelfJoinOptions& opt);

}  // namespace sj
