// Device atomics. The paper appends result pairs through an atomic cursor
// ("atomic: resultSet <- resultSet U result", Algorithm 1, line 17); the
// exact two-pass output writes pairs at precomputed offsets instead, and
// a counter is left for totals (count-only runs, kNN rings).
#pragma once

#include <atomic>
#include <cstdint>

namespace sj::gpu {

/// Analogue of CUDA atomicAdd on an unsigned 64-bit counter.
class DeviceCounter {
 public:
  DeviceCounter() : v_(0) {}

  /// Returns the value before the addition (CUDA atomicAdd semantics).
  std::uint64_t fetch_add(std::uint64_t n) {
    return v_.fetch_add(n, std::memory_order_relaxed);
  }

  std::uint64_t load() const { return v_.load(std::memory_order_relaxed); }
  void store(std::uint64_t n) { v_.store(n, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_;
};

}  // namespace sj::gpu
