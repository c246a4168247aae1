#include "gpusim/stream.hpp"

#include "common/fault.hpp"
#include "common/timer.hpp"

namespace sj::gpu {

Stream::Stream(const DeviceSpec& spec) : spec_(spec) {
  worker_ = std::thread([this] { worker_loop(); });
}

Stream::~Stream() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  worker_.join();
}

void Stream::enqueue(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(fn));
  }
  cv_.notify_one();
}

void Stream::memcpy_async(void* dst, const void* src, std::size_t bytes) {
  SJ_FAULT_POINT(kStream);  // before enqueue: a failed transfer copies nothing
  enqueue([this, dst, src, bytes] {
    const Timer copy;
    std::memcpy(dst, src, bytes);
    // Accounting happens on the worker thread; synchronize() establishes
    // the happens-before edge for readers.
    copy_seconds_ += copy.seconds();
    bytes_copied_ += bytes;
    modeled_copy_seconds_ +=
        static_cast<double>(bytes) / (spec_.pcie_bandwidth_gbs * 1e9);
  });
}

void Stream::synchronize() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && !busy_; });
}

void Stream::worker_loop() {
  for (;;) {
    std::function<void()> fn;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stop_) return;
        continue;
      }
      fn = std::move(queue_.front());
      queue_.pop_front();
      busy_ = true;
    }
    fn();
    {
      std::lock_guard<std::mutex> lock(mu_);
      busy_ = false;
    }
    idle_cv_.notify_all();
  }
}

void Event::record(Stream& s) {
  auto st = std::make_shared<State>();
  state_ = st;
  s.enqueue([st] {
    std::lock_guard<std::mutex> lock(st->mu);
    st->done = true;
    st->cv.notify_all();
  });
}

void Event::wait() const {
  SJ_FAULT_POINT(kSync);  // wait() is idempotent, so a retry re-waits safely
  if (state_ == nullptr) return;
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [this] { return state_->done; });
}

bool Event::query() const {
  if (state_ == nullptr) return true;
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->done;
}

}  // namespace sj::gpu
