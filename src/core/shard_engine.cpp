#include "core/shard_engine.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <deque>
#include <exception>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "common/fault.hpp"
#include "common/parse.hpp"
#include "common/timer.hpp"
#include "core/batch_pipeline.hpp"
#include "core/grid_index.hpp"
#include "core/kernels.hpp"
#include "core/shard_plan.hpp"
#include "core/validate.hpp"
#include "gpusim/arena.hpp"

namespace sj {

namespace {

void validate_shard_options(const ShardedSelfJoinOptions& opt,
                            const char* who) {
  const std::string name(who);
  if (opt.shards <= 0) {
    throw std::invalid_argument(name + ": shards must be positive");
  }
  if (opt.chunklets < 0) {
    throw std::invalid_argument(name + ": chunklets must be >= 0 (0 = auto)");
  }
  if (opt.block_size <= 0) {
    throw std::invalid_argument(name + ": block_size must be positive");
  }
  if (opt.num_streams <= 0) {
    throw std::invalid_argument(name + ": num_streams must be positive");
  }
  if (opt.min_batches == 0) {
    throw std::invalid_argument(name + ": min_batches must be positive");
  }
  if (opt.layout != GridLayout::kCellMajor) {
    throw std::invalid_argument(
        name + ": sharding requires the cell-major layout (the shard "
               "partition is a contiguous cell range; layout=legacy has no "
               "such structure)");
  }
  if (opt.mode == ResultMode::kSink) {
    throw std::invalid_argument(
        name + ": result mode 'sink' is not supported across shards (the "
               "shard pipelines run concurrently; use pairs, count, or "
               "histogram)");
  }
}

/// The host stage: a cell-major DeviceGrid of the indexed dataset (its
/// coordinate planes and slot -> id map), staged into a host arena of
/// unbounded capacity, so no device is charged (and, staged outside any
/// DeviceScope, it arms no fault hook). Each device uploads only its
/// chunklets' spans of it into its own arena; the planner and the
/// adjacency builds read the GridIndex itself.
struct HostStage {
  gpu::GlobalMemoryArena arena{std::numeric_limits<std::size_t>::max()};
  DeviceGrid grid;

  HostStage(const Dataset& d, const GridIndex& index)
      : grid(arena, d, index, GridLayout::kCellMajor) {}
};

/// Copy a chunklet's owned slot span and halo intervals from the host
/// stage's planes and orig map into the chunklet's own (owned slots first,
/// halo intervals after, matching ShardSlice's local numbering). Plane j
/// of the chunklet starts at coords + j * slice.local_points().
void upload_slice(const GridDeviceView& hv, const ShardSlice& slice,
                  double* coords, std::uint32_t* orig) {
  const std::size_t nlocal = slice.local_points();
  auto copy_span = [&](std::uint32_t gbegin, std::uint32_t gend,
                       std::uint32_t lbegin) {
    const std::size_t count = gend - gbegin;
    for (int j = 0; j < hv.dim; ++j) {
      std::memcpy(coords + static_cast<std::size_t>(j) * nlocal + lbegin,
                  hv.coord[j] + gbegin, count * sizeof(double));
    }
    std::memcpy(orig + lbegin, hv.orig + gbegin,
                count * sizeof(std::uint32_t));
  };
  if (slice.owned_points() > 0) {
    copy_span(slice.owned_begin, slice.owned_end, 0);
  }
  for (const HaloInterval& h : slice.halo) {
    copy_span(h.begin, h.end, h.local_begin);
  }
}

/// Failover accounting surfaced into ShardedRunStats.
struct FailoverStats {
  std::size_t shards_failed_over = 0;
  double recovery_seconds = 0.0;
};

/// The shared chunklet scheduler. Per-device deques are seeded with the
/// static plan's contiguous chunklet groups; a device that drains its own
/// deque steals a whole chunklet from the BACK of the most-loaded
/// victim's deque (the piece the owner would reach last, so the steal
/// perturbs the owner's locality least). The ownership rule makes any
/// cell-to-device assignment exact, so no steal ever needs a dedup pass.
class ChunkletScheduler {
 public:
  explicit ChunkletScheduler(const ChunkletPlan& plan)
      : weights_(plan.weights) {
    const std::size_t k = plan.devices();
    queues_.resize(k);
    remaining_.assign(k, 0);
    for (std::size_t d = 0; d < k; ++d) {
      for (std::uint32_t c = plan.device_bounds[d];
           c < plan.device_bounds[d + 1]; ++c) {
        queues_[d].push_back(c);
        remaining_[d] += cost(c);
      }
    }
  }

  /// Next chunklet for device slot `d`: its own deque's front while any
  /// remains, else the most-loaded victim's back. Returns false when every
  /// deque is empty.
  bool pop(std::size_t d, std::uint32_t& chunklet, bool& stolen) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!queues_[d].empty()) {
      chunklet = queues_[d].front();
      queues_[d].pop_front();
      remaining_[d] -= cost(chunklet);
      stolen = false;
      return true;
    }
    std::size_t victim = queues_.size();
    for (std::size_t v = 0; v < queues_.size(); ++v) {
      if (v == d || queues_[v].empty()) continue;
      if (victim == queues_.size() || remaining_[v] > remaining_[victim]) {
        victim = v;
      }
    }
    if (victim == queues_.size()) return false;
    chunklet = queues_[victim].back();
    queues_[victim].pop_back();
    remaining_[victim] -= cost(chunklet);
    stolen = true;
    return true;
  }

 private:
  /// Queued-weight bookkeeping for victim selection; the floor keeps a
  /// deque of zero-weight chunklets visible as remaining work.
  std::uint64_t cost(std::uint32_t chunklet) const {
    return std::max<std::uint64_t>(weights_[chunklet], 1);
  }

  mutable std::mutex mu_;
  const std::vector<std::uint64_t>& weights_;
  std::vector<std::deque<std::uint32_t>> queues_;
  std::vector<std::uint64_t> remaining_;
};

/// Driver-side per-device-slot record: which physical device serves the
/// slot, its accumulated busy clock, and the steal counters.
struct SlotState {
  int device = -1;
  bool failed_over = false;
  double busy_seconds = 0.0;
  std::uint64_t chunklets = 0;
  std::uint64_t stolen = 0;
  double steal_seconds = 0.0;
};

/// Drive the chunklet scheduler over K device slots according to the
/// schedule, collecting the first exception (a failure must not leak
/// threads or strand queued chunklets).
///
/// Failover: a job that throws fault::DeviceLost has lost its physical
/// device mid-chunklet. The dead device is retired (host-side bitmask)
/// and the SLOT re-homes onto the lowest-numbered surviving device —
/// `job` rebuilds the slot's arena and pipeline on the id change, the
/// in-flight chunklet is wound back via `reset` and re-run, and the
/// slot's queued chunklets simply drain on the replacement (or get stolen
/// by the other devices). The ownership rule makes the re-execution
/// exact, so the merged output is byte-identical to a fault-free run.
/// Only when no device survives does the loss fail the run. Any other
/// exception fails immediately, annotated with the chunklet id.
void run_chunklets(
    std::size_t k, ShardSchedule schedule, ChunkletScheduler& sched,
    const std::function<void(std::size_t, int, std::uint32_t)>& job,
    const std::function<void(std::uint32_t)>& reset,
    std::vector<SlotState>& slots, FailoverStats& failover) {
  std::exception_ptr first_error;
  std::mutex mu;  // guards first_error, dead_devices and failover
  std::uint64_t dead_devices = 0;
  std::atomic<bool> abort{false};
  for (std::size_t s = 0; s < k; ++s) slots[s].device = static_cast<int>(s);

  // One chunklet on slot `s`, with failover. Returns the slot's busy
  // seconds — failed attempts and re-runs included: they are real device
  // time the makespan model must see.
  auto run_one = [&](std::size_t s, std::uint32_t chunklet,
                     bool stolen) -> double {
    double busy = 0.0;
    bool recovering = false;
    for (;;) {
      Timer attempt;
      try {
        job(s, slots[s].device, chunklet);
        const double secs = attempt.seconds();
        busy += secs;
        slots[s].chunklets += 1;
        if (stolen) {
          slots[s].stolen += 1;
          slots[s].steal_seconds += busy;
        }
        if (recovering) {
          std::lock_guard<std::mutex> lock(mu);
          failover.recovery_seconds += secs;
        }
        return busy;
      } catch (const fault::DeviceLost& lost) {
        busy += attempt.seconds();
        std::lock_guard<std::mutex> lock(mu);
        const int dead = lost.device >= 0 ? lost.device : slots[s].device;
        if (dead >= 0 && dead < 64) dead_devices |= 1ULL << dead;
        int replacement = -1;
        for (std::size_t d = 0; d < std::min<std::size_t>(k, 64); ++d) {
          if ((dead_devices & (1ULL << d)) == 0) {
            replacement = static_cast<int>(d);
            break;
          }
        }
        if (replacement < 0) {
          if (first_error == nullptr) {
            first_error = annotate_exception(
                std::current_exception(),
                "chunklet " + std::to_string(chunklet) + " on device " +
                    std::to_string(slots[s].device) +
                    " (no surviving device)");
          }
          abort.store(true, std::memory_order_relaxed);
          return busy;
        }
        ++failover.shards_failed_over;
        slots[s].device = replacement;
        slots[s].failed_over = true;
        reset(chunklet);
        recovering = true;
      } catch (...) {
        busy += attempt.seconds();
        std::lock_guard<std::mutex> lock(mu);
        if (first_error == nullptr) {
          first_error = annotate_exception(
              std::current_exception(),
              "chunklet " + std::to_string(chunklet));
        }
        abort.store(true, std::memory_order_relaxed);
        return busy;
      }
    }
  };

  if (schedule == ShardSchedule::kConcurrent && k > 1) {
    // Real-idleness stealing: a device thread that drains its own deque
    // is genuinely idle and steals immediately.
    std::vector<std::thread> threads;
    threads.reserve(k);
    for (std::size_t s = 0; s < k; ++s) {
      threads.emplace_back([&, s] {
        std::uint32_t c = 0;
        bool stolen = false;
        while (!abort.load(std::memory_order_relaxed) &&
               sched.pop(s, c, stolen)) {
          slots[s].busy_seconds += run_one(s, c, stolen);
        }
      });
    }
    for (auto& t : threads) t.join();
  } else {
    // Virtual-time drive: the device with the earliest clock is the one
    // that would go idle first in real time — it takes the next chunklet,
    // stealing when its own deque is dry. Chunklets run alone on the host
    // core, so their measured busy seconds are contention-free and the
    // accumulated clocks model true K-device execution.
    std::uint32_t c = 0;
    bool stolen = false;
    while (k > 0 && !abort.load(std::memory_order_relaxed)) {
      std::size_t s = 0;
      for (std::size_t d = 1; d < k; ++d) {
        if (slots[d].busy_seconds < slots[s].busy_seconds) s = d;
      }
      if (!sched.pop(s, c, stolen)) break;
      slots[s].busy_seconds += run_one(s, c, stolen);
    }
  }
  if (first_error != nullptr) std::rethrow_exception(first_error);
}

/// Per-device state reused across every chunklet the device runs: ONE
/// arena and ONE pipeline per slot, re-armed per chunklet (fresh
/// DeviceBuffers from the same arena, the pipeline's batch ordinal
/// persisting) instead of rebuilt per slice. Rebuilt fresh
/// only when failover re-homes the slot onto a different physical device.
struct DeviceCtx {
  int device_id = -1;
  std::unique_ptr<gpu::GlobalMemoryArena> arena;
  std::unique_ptr<BatchPipeline> pipeline;
  gpu::DeviceBuffer<double> qbuf;  ///< join facet: the broadcast query set
};

/// Tear down and rebuild a slot's device state for physical device
/// `device`. Order matters: buffers referencing the old arena must
/// release into it before the arena itself goes.
void rearm_device(DeviceCtx& ctx, int device,
                  const ShardedSelfJoinOptions& opt) {
  ctx.qbuf = gpu::DeviceBuffer<double>();
  ctx.pipeline.reset();
  ctx.arena = std::make_unique<gpu::GlobalMemoryArena>(opt.device);
  ctx.pipeline = std::make_unique<BatchPipeline>(*ctx.arena, opt.device,
                                                 pipeline_config(opt, device));
  ctx.device_id = device;
}

/// One chunklet's execution record. Outputs are indexed by CHUNKLET, not
/// by device: whichever device ran the chunklet (seeded, stolen, or
/// failed over), the merge walks chunklets in ascending index — ascending
/// first-slot key — so the result is byte-identical to `gpu` under any
/// assignment.
struct ChunkOutput {
  PipelineOutput out;
  BatchRunStats batch;
  std::uint32_t units = 0;
  std::uint64_t weight = 0;
  std::uint64_t owned_points = 0;
  std::uint64_t halo_points = 0;
  double adjacency_seconds = 0.0;  ///< the chunklet's own adjacency build
  int slot = -1;  ///< device slot that ran it (stats attribution)
};

/// Run groups [g0, g1) of `adj` as one chunklet on `ctx`'s device. The
/// slice of the host stage `hv` it needs is what the groups' candidate
/// ranges reference, plus — in identity order (the self-join), whose
/// positions are data slots — the slots the groups own; a sorted query
/// order (the join) owns no data, so every referenced slot is halo. The
/// slice is staged (owned slots first, halo after, in ShardSlice's local
/// numbering) with the local adjacency, positions rebased to 0, and run
/// through the grouped pipeline.
void run_chunklet(DeviceCtx& ctx, const GridDeviceView& hv,
                  const GroupAdjacencyHost& adj, std::uint32_t g0,
                  std::uint32_t g1, const ResultRequest& req,
                  ChunkOutput& out, AtomicWork& work) {
  const std::vector<std::uint32_t>& go = adj.group_offsets;
  const bool identity = adj.query_order.empty();
  ShardSlice slice =
      make_shard_slice(adj.ranges, adj.offsets, adj.weights, g0, g1,
                       identity ? go[g0] : 0, identity ? go[g1] : 0);
  if (contracts::active()) {
    validate::shard_slice(slice, hv.n,
                          identity ? "ShardedGpuSelfJoin(slice)"
                                   : "sharded_join(slice)");
  }
  out.units = g1 - g0;
  out.weight = slice.weight;
  out.owned_points = go[g1] - go[g0];  // slots or queries it emits for
  out.halo_points = slice.halo_points();
  const std::uint32_t nlocal = slice.local_points();
  if (nlocal == 0) return;  // no candidates anywhere in these groups

  gpu::GlobalMemoryArena& arena = *ctx.arena;
  if (!identity && ctx.qbuf.empty()) {
    // The query set is broadcast whole, ONCE per device arena (re-arming
    // drops it with the old one): the kernel reads queries by their
    // GLOBAL index (which is also the emitted pair key), so every
    // chunklet's query_order slice indexes into the same buffer.
    const std::size_t qvalues = static_cast<std::size_t>(hv.qn) * hv.dim;
    ctx.qbuf = gpu::DeviceBuffer<double>(arena, qvalues);
    std::memcpy(ctx.qbuf.data(), hv.qpoints, qvalues * sizeof(double));
  }
  gpu::DeviceBuffer<double> coords(arena,
                                   static_cast<std::size_t>(nlocal) * hv.dim);
  gpu::DeviceBuffer<std::uint32_t> orig(arena, nlocal);
  upload_slice(hv, slice, coords.data(), orig.data());

  GroupAdjacencyHost local;
  if (!identity) {
    local.query_order.assign(adj.query_order.begin() + go[g0],
                             adj.query_order.begin() + go[g1]);
  }
  local.group_offsets.reserve(static_cast<std::size_t>(g1 - g0) + 1);
  for (std::uint32_t g = g0; g <= g1; ++g) {
    local.group_offsets.push_back(go[g] - go[g0]);
  }
  local.ranges = std::move(slice.ranges);
  local.offsets = std::move(slice.offsets);
  const GroupAdjacency local_adj =
      upload_group_adjacency(arena, std::move(local));

  GridDeviceView grid;
  grid.n = nlocal;
  grid.dim = hv.dim;
  for (int j = 0; j < hv.dim; ++j) {
    grid.coord[j] = coords.data() + static_cast<std::size_t>(j) * nlocal;
  }
  grid.orig = orig.data();
  grid.cell_major = true;
  grid.width = hv.width;
  grid.eps = hv.eps;
  grid.qpoints = identity ? nullptr : ctx.qbuf.data();
  grid.qn = hv.qn;
  out.out = ctx.pipeline->run_groups(req, grid, local_adj, &work, &out.batch);
}

/// Accumulate one chunklet's pipeline stats into a per-device or
/// run-level total.
void add_batch_stats(BatchRunStats& into, const BatchRunStats& b) {
  into.batches_run += b.batches_run;
  into.retries += b.retries;
  into.batches_split_on_oom += b.batches_split_on_oom;
  into.count_seconds += b.count_seconds;
  into.kernel_seconds += b.kernel_seconds;
  into.assembly_seconds += b.assembly_seconds;
  into.bytes_to_host += b.bytes_to_host;
  into.modeled_transfer_seconds += b.modeled_transfer_seconds;
}

/// Merge the per-chunklet results in chunklet order (deterministic: each
/// chunklet's output is in scan order over its units, and chunklets are
/// disjoint ascending cell ranges) and fold the per-chunklet batch stats
/// into the aggregate. Pairs concatenate; counts sum; histograms sum
/// element-wise.
PipelineOutput merge_chunklets(std::vector<ChunkOutput>& outs,
                               std::vector<AtomicWork>& works,
                               gpu::KernelMetrics& metrics,
                               BatchRunStats& batch) {
  PipelineOutput merged;
  std::size_t total_pairs = 0;
  for (const ChunkOutput& o : outs) total_pairs += o.out.pairs.size();
  // One chunklet's output IS the result — steal it instead of copying.
  // For M > 1, release each chunklet's storage as it is appended so the
  // peak is total + one chunklet, not 2x total.
  if (outs.size() == 1) {
    merged.pairs = std::move(outs[0].out.pairs);
  } else {
    merged.pairs.pairs().reserve(total_pairs);
  }
  for (std::size_t c = 0; c < outs.size(); ++c) {
    if (outs.size() > 1) {
      merged.pairs.append(outs[c].out.pairs);
      outs[c].out.pairs = ResultSet{};
    }
    merged.total_pairs += outs[c].out.total_pairs;
    const std::vector<std::uint32_t>& h = outs[c].out.histogram;
    if (!h.empty()) {
      if (merged.histogram.empty()) merged.histogram.assign(h.size(), 0);
      for (std::size_t i = 0; i < h.size(); ++i) merged.histogram[i] += h[i];
    }
    works[c].add_to(metrics);
    add_batch_stats(batch, outs[c].batch);
  }
  return merged;
}

/// Fold the driver's slot records plus the chunklet outputs into the
/// per-device balance rows and the run-level aggregates (makespan =
/// common + busiest device clock).
void fold_device_rows(const std::vector<SlotState>& slots,
                      const std::vector<ChunkOutput>& outs,
                      ShardedRunStats& shard) {
  shard.per_shard.assign(slots.size(), ShardStats{});
  double max_busy = 0.0;
  for (std::size_t s = 0; s < slots.size(); ++s) {
    ShardStats& row = shard.per_shard[s];
    row.device = slots[s].device;
    row.failed_over = slots[s].failed_over;
    row.seconds = slots[s].busy_seconds;
    row.chunklets = slots[s].chunklets;
    row.stolen = slots[s].stolen;
    row.steal_seconds = slots[s].steal_seconds;
    shard.busy_sum_seconds += slots[s].busy_seconds;
    shard.chunklets_stolen += slots[s].stolen;
    max_busy = std::max(max_busy, slots[s].busy_seconds);
  }
  for (const ChunkOutput& o : outs) {
    if (o.slot < 0) continue;  // never ran (failed run unwinding)
    ShardStats& row = shard.per_shard[static_cast<std::size_t>(o.slot)];
    row.units += o.units;
    row.weight += o.weight;
    row.owned_points += o.owned_points;
    row.halo_points += o.halo_points;
    row.pairs += o.out.total_pairs;
    add_batch_stats(row.batch, o.batch);
  }
  shard.makespan_seconds = shard.common_seconds + max_busy;
}

/// The chunklet plan over per-unit `weights` (cells or query groups).
ChunkletPlan plan_units(const std::vector<std::uint64_t>& weights,
                        const ShardedSelfJoinOptions& opt, const char* who) {
  ChunkletPlan cplan =
      plan_chunklets(weights, static_cast<std::size_t>(opt.shards),
                     static_cast<std::size_t>(opt.chunklets));
  if (contracts::active()) {
    validate::chunklet_plan(cplan, weights,
                            static_cast<std::size_t>(opt.shards), who);
  }
  return cplan;
}

/// The chunklet execution both sharded facets share: every chunklet of
/// `cplan` goes through the shared scheduler under opt.schedule, on a
/// device slot whose arena and pipeline are (re-)armed on first use and
/// whenever failover re-homes the slot. `job(ctx, chunklet, req, out,
/// work)` stages one chunklet on the slot's device and runs its pipeline.
/// The chunklet outputs merge in chunklet order into `result` (pairs,
/// counts, histograms over `keys` entries, metrics and batch stats) and
/// the per-device rows into result.shard, whose common_seconds the caller
/// has set.
template <typename Result, typename Job>
void drive_chunklets(const ChunkletPlan& cplan,
                     const ShardedSelfJoinOptions& opt, std::uint64_t keys,
                     Result& result, const Job& job) {
  const std::size_t k = cplan.devices();
  const std::size_t m = cplan.chunklets();
  result.shard.shards = k;
  result.shard.chunklets_total = m;

  // Histogram keys are ORIGINAL point ids (self-join) or query indices
  // (join), so every chunklet carries a full-length histogram and the
  // disjoint chunklet results sum element-wise in the merge.
  ResultRequest req;
  req.mode = opt.mode;
  req.histogram_keys = keys;
  req.control = opt.control;

  std::vector<ChunkOutput> outs(m);
  std::vector<AtomicWork> works(m);
  std::vector<DeviceCtx> devices(k);
  std::vector<SlotState> slots(k);
  // Each run observes at most one injected loss per plan entry; devices
  // killed by a previous run stay dead otherwise.
  fault::reset_devices();
  FailoverStats failover;
  ChunkletScheduler sched(cplan);
  run_chunklets(k, opt.schedule, sched,
  [&](std::size_t s, int device, std::uint32_t c) {
    DeviceCtx& ctx = devices[s];
    if (ctx.pipeline == nullptr || ctx.device_id != device) {
      rearm_device(ctx, device, opt);
    }
    outs[c].slot = static_cast<int>(s);
    job(ctx, c, req, outs[c], works[c]);
  },
  // Failover reset: wind the chunklet's record back so the surviving
  // device's re-run neither double-counts nor duplicates.
  [&](std::uint32_t c) {
    works[c].reset();
    outs[c] = ChunkOutput{};
  },
  slots, failover);
  result.shard.shards_failed_over = failover.shards_failed_over;
  result.shard.recovery_seconds = failover.recovery_seconds;

  for (const ChunkOutput& o : outs) {
    result.stats.adjacency_seconds += o.adjacency_seconds;
  }
  PipelineOutput merged =
      merge_chunklets(outs, works, result.stats.metrics, result.stats.batch);
  fold_device_rows(slots, outs, result.shard);
  result.pairs = std::move(merged.pairs);
  result.total_pairs = merged.total_pairs;
  result.histogram = std::move(merged.histogram);
  if (opt.mode == ResultMode::kHistogram && result.histogram.empty()) {
    result.histogram.assign(keys, 0);
  }
  result.stats.metrics.kernel_seconds = result.stats.batch.kernel_seconds;
}

}  // namespace

ShardedGpuSelfJoin::ShardedGpuSelfJoin(ShardedSelfJoinOptions opt)
    : opt_(std::move(opt)) {
  validate_shard_options(opt_, "ShardedGpuSelfJoin");
}

ShardedSelfJoinResult ShardedGpuSelfJoin::run(const Dataset& d,
                                              double eps) const {
  if (eps < 0.0) {
    throw std::invalid_argument("ShardedGpuSelfJoin: eps must be >= 0");
  }
  // Entry checkpoint: a query that arrives already expired or cancelled
  // must not pay for the index build.
  if (opt_.control != nullptr) opt_.control->check("sharded self-join entry");
  ShardedSelfJoinResult result;
  SelfJoinStats& st = result.stats;
  Timer total;

  // --- Common host phases (done once, unsharded): grid index, cell-major
  // staging, chunklet plan.
  Timer phase;
  GridIndex index(d, eps);
  st.index_build_seconds = phase.seconds();
  st.grid_nonempty_cells = index.num_nonempty_cells();
  st.grid_total_cells = index.total_cells();
  if (d.empty()) {
    st.total_seconds = total.seconds();
    return result;
  }

  phase.reset();
  const HostStage stage(d, index);
  st.upload_seconds = phase.seconds();
  const GridDeviceView& hv = stage.grid.view();
  // Chunklet weights: the cheap population-window proxy (the exact
  // adjacency weights would cost a global enumeration — the very pass each
  // device resolves for ITS OWN cells below, in parallel).
  const ChunkletPlan cplan = plan_units(proxy_cell_weights(index), opt_,
                                        "ShardedGpuSelfJoin(plan)");
  result.shard.common_seconds = total.seconds();

  // --- Per-device execution: each chunklet resolves its own cells'
  // adjacency, stages its owned span + halo, and runs the grouped pipeline.
  phase.reset();
  drive_chunklets(cplan, opt_, d.size(), result,
  [&](DeviceCtx& ctx, std::uint32_t c, const ResultRequest& req,
      ChunkOutput& out, AtomicWork& work) {
    const GroupAdjacencyHost adj = build_group_adjacency(
        index, cell_groups(index, cplan.bounds[c], cplan.bounds[c + 1]),
        opt_.unicomp);
    // The adjacency build carries the chunklet's index-search work
    // (resolved once per owned cell).
    LocalWork planning;
    planning.cells_examined = adj.cells_examined;
    planning.cells_nonempty = adj.cells_nonempty;
    work.flush(planning);
    out.adjacency_seconds = adj.build_seconds;
    run_chunklet(ctx, hv, adj, 0, static_cast<std::uint32_t>(adj.num_groups()),
                 req, out, work);
  });
  st.join_seconds = phase.seconds();
  st.total_seconds = total.seconds();
  collect_gpu_stats(index, hv, opt_, st);
  return result;
}

ShardedJoinResult sharded_join(const Dataset& queries, const Dataset& data,
                               double eps,
                               const ShardedSelfJoinOptions& opt) {
  validate_shard_options(opt, "sharded_join");
  parse::non_negative("argument 'eps' of sharded_join", eps);
  parse::matching_dims("argument 'queries' of sharded_join", queries.dim(),
                       "argument 'data'", data.dim());
  if (opt.control != nullptr) opt.control->check("sharded join entry");
  ShardedJoinResult result;
  GpuJoinStats& st = result.stats;
  Timer total;

  Timer phase;
  GridIndex index(data, eps);
  st.index_build_seconds = phase.seconds();
  if (queries.empty() || data.empty()) {
    if (opt.mode == ResultMode::kHistogram) {
      result.histogram.assign(queries.size(), 0);
    }
    st.total_seconds = total.seconds();
    return result;
  }

  const HostStage stage(data, index);
  GridDeviceView hv = stage.grid.view();
  hv.qpoints = queries.raw().data();
  hv.qn = queries.size();
  const GroupAdjacencyHost adj = build_group_adjacency(
      index, sorted_query_groups(index, queries), /*unicomp=*/false);
  st.query_groups = adj.num_groups();
  st.adjacency_seconds = adj.build_seconds;

  // The sharded units are the query GROUPS, planned by their exact
  // adjacency weights.
  const ChunkletPlan cplan =
      plan_units(adj.weights, opt, "sharded_join(plan)");
  result.shard.common_seconds = total.seconds();

  drive_chunklets(cplan, opt, queries.size(), result,
  [&](DeviceCtx& ctx, std::uint32_t c, const ResultRequest& req,
      ChunkOutput& out, AtomicWork& work) {
    run_chunklet(ctx, hv, adj, cplan.bounds[c], cplan.bounds[c + 1], req,
                 out, work);
  });
  st.metrics.cells_examined += adj.cells_examined;
  st.metrics.cells_nonempty += adj.cells_nonempty;
  st.total_seconds = total.seconds();
  return result;
}

}  // namespace sj
