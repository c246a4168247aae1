// CUDA-style streams: FIFO queues of work executed by a dedicated worker
// thread, enabling the batching scheme's overlap of kernel execution with
// bidirectional host-device transfers (paper Section V-A). Transfer times
// are additionally *modelled* against the device's PCIe bandwidth so the
// harness can report how much transfer the overlap hides.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

#include "gpusim/device.hpp"

namespace sj::gpu {

class Stream {
 public:
  explicit Stream(const DeviceSpec& spec);
  ~Stream();

  Stream(const Stream&) = delete;
  Stream& operator=(const Stream&) = delete;

  /// Enqueue arbitrary work (kernel launches, callbacks).
  void enqueue(std::function<void()> fn);

  /// Enqueue an asynchronous memcpy of `bytes` from src to dst; the
  /// modelled PCIe transfer time is accumulated in modeled_copy_seconds().
  void memcpy_async(void* dst, const void* src, std::size_t bytes);

  /// Block until every enqueued operation has completed.
  void synchronize();

  /// Total bytes copied through this stream.
  std::size_t bytes_copied() const { return bytes_copied_; }

  /// Modelled PCIe transfer time for those bytes (seconds).
  double modeled_copy_seconds() const { return modeled_copy_seconds_; }

  /// Host wall-clock the stream's worker spent performing those copies.
  double copy_seconds() const { return copy_seconds_; }

 private:
  void worker_loop();

  DeviceSpec spec_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  bool busy_ = false;
  std::size_t bytes_copied_ = 0;
  double modeled_copy_seconds_ = 0.0;
  double copy_seconds_ = 0.0;
  std::thread worker_;
};

/// CUDA-event analogue: marks a point in a stream's FIFO that other host
/// threads can wait on without draining the whole stream the way
/// synchronize() does. This is what lets a pipeline stage hand work to a
/// stream and move on, with a later stage blocking only on the specific
/// operations it depends on.
class Event {
 public:
  /// Capture the work enqueued on `s` so far; the event signals once that
  /// work has executed. Re-recording replaces the previous capture.
  void record(Stream& s);

  /// Block until the recorded point has been reached. A never-recorded
  /// event is immediately ready.
  void wait() const;

  /// Non-blocking completion check (cudaEventQuery).
  bool query() const;

 private:
  struct State {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
  };
  std::shared_ptr<State> state_;
};

}  // namespace sj::gpu
