// Always-on algorithmic work counters. Each logical thread accumulates
// into a local struct and flushes once with relaxed atomics, so the hot
// path stays cheap and the totals are exact under parallel execution.
#pragma once

#include <atomic>
#include <cstdint>

#include "gpusim/metrics.hpp"

namespace sj {

struct LocalWork {
  std::uint64_t cells_examined = 0;
  std::uint64_t cells_nonempty = 0;
  std::uint64_t distance_calcs = 0;
  std::uint64_t results = 0;
  std::uint64_t global_loads = 0;
  std::uint64_t global_load_bytes = 0;
};

class AtomicWork {
 public:
  void flush(const LocalWork& w) {
    cells_examined_.fetch_add(w.cells_examined, std::memory_order_relaxed);
    cells_nonempty_.fetch_add(w.cells_nonempty, std::memory_order_relaxed);
    distance_calcs_.fetch_add(w.distance_calcs, std::memory_order_relaxed);
    results_.fetch_add(w.results, std::memory_order_relaxed);
    global_loads_.fetch_add(w.global_loads, std::memory_order_relaxed);
    global_load_bytes_.fetch_add(w.global_load_bytes,
                                 std::memory_order_relaxed);
  }

  /// Zero every counter. Used by the shard engine's failover path: a
  /// shard re-executed on a surviving device must not double-count the
  /// work its first attempt flushed before the device died.
  void reset() {
    cells_examined_.store(0, std::memory_order_relaxed);
    cells_nonempty_.store(0, std::memory_order_relaxed);
    distance_calcs_.store(0, std::memory_order_relaxed);
    results_.store(0, std::memory_order_relaxed);
    global_loads_.store(0, std::memory_order_relaxed);
    global_load_bytes_.store(0, std::memory_order_relaxed);
  }

  /// The counters as one LocalWork (e.g. to re-flush them elsewhere).
  LocalWork snapshot() const {
    LocalWork w;
    w.cells_examined = cells_examined_.load(std::memory_order_relaxed);
    w.cells_nonempty = cells_nonempty_.load(std::memory_order_relaxed);
    w.distance_calcs = distance_calcs_.load(std::memory_order_relaxed);
    w.results = results_.load(std::memory_order_relaxed);
    w.global_loads = global_loads_.load(std::memory_order_relaxed);
    w.global_load_bytes = global_load_bytes_.load(std::memory_order_relaxed);
    return w;
  }

  void add_to(gpu::KernelMetrics& m) const {
    m.cells_examined += cells_examined_.load(std::memory_order_relaxed);
    m.cells_nonempty += cells_nonempty_.load(std::memory_order_relaxed);
    m.distance_calcs += distance_calcs_.load(std::memory_order_relaxed);
    m.results += results_.load(std::memory_order_relaxed);
    m.global_loads += global_loads_.load(std::memory_order_relaxed);
    m.global_load_bytes += global_load_bytes_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> cells_examined_{0};
  std::atomic<std::uint64_t> cells_nonempty_{0};
  std::atomic<std::uint64_t> distance_calcs_{0};
  std::atomic<std::uint64_t> results_{0};
  std::atomic<std::uint64_t> global_loads_{0};
  std::atomic<std::uint64_t> global_load_bytes_{0};
};

}  // namespace sj
