#include "core/batch_pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <exception>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.hpp"
#include "common/fault.hpp"
#include "common/timer.hpp"
#include "core/kernels.hpp"
#include "gpusim/atomic.hpp"
#include "gpusim/kernel.hpp"
#include "gpusim/stream.hpp"

namespace sj {

namespace {

/// Point-centric execution policy: a unit is one query id, a launch covers
/// the contiguous id range [u0, u1).
class PointMode {
 public:
  PointMode(const GridDeviceView& grid, bool unicomp, int block_size)
      : grid_(grid), unicomp_(unicomp), block_size_(block_size) {}

  std::uint32_t units() const {
    return grid_.n == 0 ? 0
                        : static_cast<std::uint32_t>(grid_.num_queries());
  }
  const char* unit_name() const { return "queries"; }

  /// No match masks: the point-centric kernel enumerates a query's
  /// candidates as it scans them.
  std::uint64_t num_mask_words() const { return 0; }

  gpu::KernelStats launch(gpu::GlobalMemoryArena& /*arena*/,
                          std::uint32_t u0, std::uint32_t u1,
                          const ResultBufferView& result,
                          AtomicWork* work) const {
    SelfJoinKernelParams p;
    p.grid = grid_;
    p.first_query = u0;
    p.num_queries = u1 - u0;
    p.result = result;
    p.unicomp = unicomp_;
    p.work = work;
    return gpu::launch(
        gpu::LaunchConfig::cover(u1 - u0, block_size_),
        [&p](const gpu::ThreadCtx& ctx) { self_join_thread(ctx, p); });
  }

 private:
  const GridDeviceView& grid_;
  bool unicomp_;
  int block_size_;
};

/// Grouped execution policy: a unit is one group position (a point slot
/// in a self-join, a sorted query position in a join), a launch covers
/// the groups overlapping positions [u0, u1), each clipped to the range
/// (one work item — one sequential kernel thread — per group piece).
class GroupedMode {
 public:
  GroupedMode(const GridDeviceView& grid, const GroupAdjacency& adjacency,
              int block_size)
      : grid_(grid), adjacency_(adjacency), block_size_(block_size) {}

  /// The groups' positions — on a gpu_shard chunklet only its own: a
  /// self-join slice's halo slots follow the owned ones and emit nothing,
  /// and a join chunklet holds its slice of the query order.
  std::uint32_t units() const {
    const std::vector<std::uint32_t>& go = adjacency_.group_offsets;
    return grid_.n == 0 || go.empty() ? 0 : go.back();
  }
  const char* unit_name() const {
    return adjacency_.query_order.empty() ? "slots" : "query positions";
  }

  /// The match-mask words of the adjacency's layout (its MaskSpans).
  std::uint64_t num_mask_words() const { return adjacency_.num_mask_words; }

  gpu::KernelStats launch(gpu::GlobalMemoryArena& arena, std::uint32_t u0,
                          std::uint32_t u1, const ResultBufferView& result,
                          AtomicWork* work) const {
    const std::vector<std::uint32_t>& go = adjacency_.group_offsets;
    std::vector<GroupWorkItem> items;
    for (auto g = static_cast<std::uint32_t>(
             std::upper_bound(go.begin(), go.end(), u0) - go.begin() - 1);
         g + 1 < go.size() && go[g] < u1; ++g) {
      items.push_back(
          GroupWorkItem{g, std::max(go[g], u0), std::min(go[g + 1], u1)});
    }
    // The per-batch upload — and the allocation injected `alloc` faults
    // hit.
    gpu::DeviceBuffer<GroupWorkItem> dev(arena, items.size());
    std::memcpy(dev.data(), items.data(),
                items.size() * sizeof(GroupWorkItem));
    GroupedScanParams p;
    p.grid = grid_;
    p.query_order = adjacency_.query_order.empty()
                        ? nullptr
                        : adjacency_.query_order.data();
    p.items = dev.data();
    p.num_items = items.size();
    p.ranges = adjacency_.ranges.data();
    p.range_offsets = adjacency_.offsets.data();
    p.result = result;
    // The kernel reads the layout only where the run placed masks.
    p.result.mask_spans = adjacency_.mask_spans.data();
    p.work = work;
    // A grouped "thread" covers a whole group, so launches hold far fewer
    // work items than point launches hold points; smaller blocks keep
    // enough blocks in flight for the block-level scheduler.
    return gpu::launch(
        gpu::LaunchConfig::cover(items.size(), std::min(block_size_, 32)),
        [&p](const gpu::ThreadCtx& ctx) { grouped_scan_thread(ctx, p); });
  }

 private:
  const GridDeviceView& grid_;
  const GroupAdjacency& adjacency_;
  int block_size_;
};

/// Write one byte per 4 KiB page of [p, p + bytes), spread over the OpenMP
/// team: fresh host memory is mapped on first write, and left to a
/// landing copy that page-fault stream would run on one thread and
/// dominate the transfer tail.
void first_touch(void* p, std::size_t bytes) {
  char* const base = static_cast<char*>(p);
  const auto pages = static_cast<std::int64_t>((bytes + 4095) / 4096);
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < pages; ++i) base[i * 4096] = 0;
}

}  // namespace

std::exception_ptr annotate_exception(std::exception_ptr e,
                                      const std::string& context) {
  try {
    std::rethrow_exception(e);
  } catch (const gpu::DeviceOutOfMemory& oom) {
    return std::make_exception_ptr(gpu::DeviceOutOfMemory(
        oom.requested, oom.free_bytes, context + ": " + oom.what()));
  } catch (const fault::ResourceExhausted& ex) {
    return std::make_exception_ptr(
        fault::ResourceExhausted(context + ": " + ex.what()));
  } catch (const fault::TransientDeviceError& ex) {
    return std::make_exception_ptr(
        fault::TransientDeviceError(context + ": " + ex.what()));
  } catch (const fault::DeviceLost& ex) {
    return std::make_exception_ptr(
        fault::DeviceLost(ex.device, context + ": " + ex.what()));
  } catch (const exec::DeadlineExceeded& ex) {
    return std::make_exception_ptr(
        exec::DeadlineExceeded(context + ": " + ex.what()));
  } catch (const exec::Cancelled& ex) {
    return std::make_exception_ptr(
        exec::Cancelled(context + ": " + ex.what()));
  } catch (const exec::Overloaded& ex) {
    return std::make_exception_ptr(
        exec::Overloaded(context + ": " + ex.what()));
  } catch (const fault::FaultError& ex) {
    return std::make_exception_ptr(
        fault::FaultError(context + ": " + ex.what()));
  } catch (const std::invalid_argument& ex) {
    return std::make_exception_ptr(
        std::invalid_argument(context + ": " + ex.what()));
  } catch (const std::exception& ex) {
    return std::make_exception_ptr(
        std::runtime_error(context + ": " + ex.what()));
  } catch (...) {
    return std::make_exception_ptr(
        std::runtime_error(context + ": unknown error"));
  }
}

BatchPipeline::BatchPipeline(gpu::GlobalMemoryArena& arena,
                             const gpu::DeviceSpec& spec,
                             const PipelineConfig& config, int device_id)
    : arena_(arena), spec_(spec), config_(config), device_id_(device_id) {
  check_pipeline_config(config_, "BatchPipeline");
}

PipelineOutput BatchPipeline::run(const ResultRequest& req,
                                  const GridDeviceView& grid, bool unicomp,
                                  AtomicWork* work, BatchRunStats* stats) {
  if (grid.cell_major) {
    throw std::invalid_argument(
        "BatchPipeline::run: grid must use the legacy layout (a cell-major "
        "grid runs through run_groups)");
  }
  return run_impl(PointMode(grid, unicomp, config_.block_size), req, work,
                  stats);
}

PipelineOutput BatchPipeline::run_groups(const ResultRequest& req,
                                         const GridDeviceView& grid,
                                         const GroupAdjacency& adjacency,
                                         AtomicWork* work,
                                         BatchRunStats* stats) {
  if (!grid.cell_major ||
      adjacency.query_order.empty() != (grid.qpoints == nullptr)) {
    throw std::invalid_argument(
        "BatchPipeline::run_groups: grid must use the cell-major layout, "
        "with an external query set exactly when the adjacency has a query "
        "order");
  }
  return run_impl(GroupedMode(grid, adjacency, config_.block_size), req,
                  work, stats);
}

// Run `body(u0, u1)` over each range of `bounds`, in ascending order, with
// the fault taxonomy's responses (common/fault.hpp): a transient fault
// re-runs the range after a bounded exponential backoff; resource
// exhaustion halves it, both halves running before the next range so the
// order holds (a single unit retries in place, attempts permitting);
// anything else — device loss, deadline, cancellation, a sink's own
// error — fails the run with the range named. Each attempt runs armed
// for fault injection, so every injected fault is attributable to a
// range; all hooks fire before their operation's side effects, and every
// unit's output slice is fixed up front, so a re-run is exact.
template <typename Body>
void BatchPipeline::for_each_range(const std::vector<std::uint32_t>& bounds,
                                   const std::string& what,
                                   const char* unit_name, BatchRunStats& acc,
                                   Body&& body) {
  struct Range {
    std::size_t index;
    std::uint32_t begin;
    std::uint32_t end;
    int attempts;
  };
  std::vector<Range> todo;  // next range at the back
  for (std::size_t b = bounds.size() - 1; b-- > 0;) {
    todo.push_back(Range{b, bounds[b], bounds[b + 1], 0});
  }
  auto describe = [&](const Range& r) {
    std::string d = what;
    if (bounds.size() > 2) d += " " + std::to_string(r.index);
    d += " (" + std::string(unit_name) + " [" + std::to_string(r.begin) +
         ".." + std::to_string(r.end) + "))";
    if (device_id_ >= 0) d += " on device " + std::to_string(device_id_);
    return d;
  };
  auto fail = [&](const Range& r, const char* note) {
    std::rethrow_exception(
        annotate_exception(std::current_exception(), describe(r) + note));
  };
  auto retry_in_place = [&](Range& r) {
    ++r.attempts;
    ++acc.retries;
    const double ms = config_.retry.backoff_ms *
                      static_cast<double>(1 << std::min(r.attempts - 1, 5));
    if (ms > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
    }
  };

  while (!todo.empty()) {
    Range& r = todo.back();
    try {
      fault::DeviceScope fault_scope(device_id_);
      SJ_FAULT_BATCH(device_id_, ++batch_ordinal_);
      body(r.begin, r.end);
      todo.pop_back();
    } catch (const fault::TransientDeviceError&) {
      if (r.attempts >= config_.retry.retries) {
        fail(r, " (transient-fault retries exhausted)");
      }
      retry_in_place(r);
    } catch (const fault::ResourceExhausted&) {
      if (r.end - r.begin > 1) {
        const Range whole = r;
        const std::uint32_t mid = whole.begin + (whole.end - whole.begin) / 2;
        todo.back() = Range{whole.index, mid, whole.end, 0};
        todo.push_back(Range{whole.index, whole.begin, mid, 0});
        ++acc.batches_split_on_oom;
      } else if (r.attempts < config_.retry.retries) {
        // Unsplittable, but the exhaustion may be spurious (injected):
        // retry in place.
        retry_in_place(r);
      } else {
        fail(r, " (unsplittable after resource exhaustion)");
      }
    } catch (...) {
      fail(r, "");
    }
  }
}

template <typename Mode>
PipelineOutput BatchPipeline::run_impl(const Mode& mode,
                                       const ResultRequest& req,
                                       AtomicWork* work,
                                       BatchRunStats* stats) {
  // Deadline/cancel checkpoint before any device allocation: a query
  // that spent its whole budget queued (admission, session backlog)
  // aborts here without touching the arena.
  const exec::ExecControl* ctl = req.control;
  if (ctl != nullptr) ctl->check("pipeline entry");

  PipelineOutput output;
  BatchRunStats acc;
  const std::uint32_t units = mode.units();
  if (req.mode == ResultMode::kHistogram) {
    output.histogram.assign(static_cast<std::size_t>(req.histogram_keys), 0);
  }
  if (units == 0) {
    if (stats != nullptr) *stats = acc;
    return output;
  }

  // --- Count-only and histogram: no offsets needed, so no count pass and
  // no pair buffers — one launch over every unit bumps a counter or the
  // O(n) count plane. Nothing is transferred, so the batch minimum has no
  // job here.
  if (req.mode == ResultMode::kCountOnly ||
      req.mode == ResultMode::kHistogram) {
    gpu::DeviceBuffer<std::uint32_t> counts;
    if (req.mode == ResultMode::kHistogram) {
      counts = gpu::DeviceBuffer<std::uint32_t>(arena_, req.histogram_keys);
      std::fill_n(counts.data(), counts.size(), 0u);
    }
    for_each_range(
        {0, units}, "batch", mode.unit_name(), acc,
        [&](std::uint32_t u0, std::uint32_t u1) {
          if (ctl != nullptr) ctl->check("pre-launch");
          gpu::DeviceCounter cursor;
          ResultBufferView result;
          if (counts.empty()) {
            result.cursor = &cursor;
          } else {
            result.counts = counts.data();
          }
          acc.kernel_seconds += mode.launch(arena_, u0, u1, result, work).seconds;
          output.total_pairs += cursor.load();
          ++acc.batches_run;
        });
    if (!counts.empty()) {
      output.histogram.assign(counts.data(), counts.data() + counts.size());
      output.total_pairs =
          std::accumulate(output.histogram.begin(), output.histogram.end(),
                          std::uint64_t{0});
    }
    if (stats != nullptr) *stats = acc;
    return output;
  }

  // --- Pass 1: one count launch records every unit's pair count; the
  // exclusive prefix sum turns them into output offsets in place.
  Timer count_timer;
  gpu::DeviceBuffer<std::uint64_t> offsets(arena_,
                                           std::size_t{units} + 1);
  // Room for the largest per-batch work-item upload.
  const std::uint64_t reserve =
      std::uint64_t{units} * sizeof(GroupWorkItem) + (16u << 10);

  // Match masks (grouped kernel): the count pass stores which candidates
  // matched, so the fills write their pairs without computing a distance
  // again. They are placed only where the arena still holds `num_streams`
  // buffers of max_buffer_pairs and the reserve beside them, so they never
  // change the batch plan; where they do not fit, the fills scan again.
  // Their layout came with the adjacency.
  const std::uint64_t words = mode.num_mask_words();
  gpu::DeviceBuffer<std::uint16_t> masks;
  const unsigned __int128 room =
      static_cast<unsigned __int128>(config_.num_streams) *
          config_.max_buffer_pairs * sizeof(Pair) +
      reserve + static_cast<unsigned __int128>(words) * sizeof(std::uint16_t);
  if (words > 0 && room <= arena_.free_bytes()) {
    masks = gpu::DeviceBuffer<std::uint16_t>(arena_, words);
  }

  AtomicWork count_work;
  for_each_range({0, units}, "count pass", mode.unit_name(), acc,
                 [&](std::uint32_t u0, std::uint32_t u1) {
                   if (ctl != nullptr) ctl->check("pre-launch");
                   ResultBufferView result;
                   result.unit_counts = offsets.data();
                   result.masks = masks.data();
                   acc.kernel_seconds +=
                       mode.launch(arena_, u0, u1, result, &count_work)
                           .seconds;
                 });
  if (work != nullptr) {
    // The count pass's distance work is real work; its finds are not
    // results — the fill emits those.
    LocalWork counted = count_work.snapshot();
    counted.results = 0;
    work->flush(counted);
  }
  offsets[units] = 0;
  std::exclusive_scan(offsets.data(), offsets.data() + units + 1,
                      offsets.data(), std::uint64_t{0});
  const std::uint64_t total = offsets[units];

  // Buffers: `num_streams` rotating result buffers within the free device
  // memory, after the reserve.
  const std::uint64_t free_bytes =
      arena_.free_bytes() > reserve ? arena_.free_bytes() - reserve : 0;
  const std::uint64_t buffer_cap = std::min<std::uint64_t>(
      config_.max_buffer_pairs,
      free_bytes /
          (sizeof(Pair) * static_cast<std::uint64_t>(config_.num_streams)));
  const std::vector<std::uint32_t> bounds =
      plan_batches(offsets.data(), units, config_.min_batches, buffer_cap);
  std::uint64_t largest = 0;
  for (std::size_t b = 0; b + 1 < bounds.size(); ++b) {
    largest = std::max(largest, offsets[bounds[b + 1]] - offsets[bounds[b]]);
  }
  acc.count_seconds = count_timer.seconds();

  const bool sinking = req.mode == ResultMode::kSink;
  struct Slot {
    gpu::DeviceBuffer<Pair> buffer;
    gpu::Event landed;  ///< the buffer's last copy has drained
  };
  std::vector<Slot> slots(std::min<std::size_t>(
      static_cast<std::size_t>(config_.num_streams), bounds.size() - 1));
  for (Slot& s : slots) s.buffer = gpu::DeviceBuffer<Pair>(arena_, largest);
  std::unique_ptr<Pair[]> staging;  // sink mode's host landing buffer
  if (sinking) {
    staging = std::make_unique_for_overwrite<Pair[]>(largest);
  } else {
    output.pairs.pairs().resize(total);
    const Timer touch;
    first_touch(output.pairs.pairs().data(), total * sizeof(Pair));
    acc.assembly_seconds += touch.seconds();
  }
  Pair* const out = output.pairs.pairs().data();

  // Declared after everything its copies touch, so its destructor drains
  // them first on every path.
  gpu::Stream transfer(spec_);
  std::size_t next_slot = 0;

  // --- Pass 2: fills in ascending batch order. A batch's slot waits for
  // its previous copy, the fill writes every unit at its offset, and one
  // copy lands the batch — at its final place, or in the staging buffer
  // that the sink receives before the next batch starts.
  for_each_range(
      bounds, "batch", mode.unit_name(), acc,
      [&](std::uint32_t u0, std::uint32_t u1) {
        Slot& slot = slots[next_slot];
        slot.landed.wait();
        if (ctl != nullptr) ctl->check("pre-launch");
        ResultBufferView result;
        result.out = slot.buffer.data();
        result.offsets = offsets.data();
        result.base = offsets[u0];
        result.masks = masks.data();
        acc.kernel_seconds += mode.launch(arena_, u0, u1, result, work).seconds;
        if (ctl != nullptr) ctl->check("pre-transfer");
        const std::uint64_t count = offsets[u1] - offsets[u0];
        if (count > 0) {
          transfer.memcpy_async(sinking ? staging.get() : out + offsets[u0],
                                slot.buffer.data(), count * sizeof(Pair));
        }
        slot.landed.record(transfer);
        next_slot = (next_slot + 1) % slots.size();
        ++acc.batches_run;
        if (sinking && count > 0) {
          transfer.synchronize();
          Timer sink_timer;
          req.sink(staging.get(), count);
          acc.assembly_seconds += sink_timer.seconds();
        }
      });
  transfer.synchronize();
  acc.bytes_to_host = transfer.bytes_copied();
  acc.modeled_transfer_seconds = transfer.modeled_copy_seconds();
  acc.assembly_seconds += transfer.copy_seconds();

  output.total_pairs = total;
  if (stats != nullptr) *stats = acc;
  return output;
}

}  // namespace sj
