// Deadlines, cooperative cancellation and admission-control errors for
// the service layer (api/session.hpp) and the batch pipeline.
//
// The three error types extend the fault taxonomy (common/fault.hpp) so
// they flow through the pipeline's existing failure path — first error
// recorded, queue closed, in-flight segments drained — but they are
// DELIBERATELY not subclasses of TransientDeviceError / DeviceLost /
// ResourceExhausted: an expired deadline must not be retried, failed
// over or split; it aborts the one query that carried it and leaves the
// session healthy.
//
//   FaultError
//   ├── ... (fault.hpp taxonomy: retry / failover / degrade)
//   ├── DeadlineExceeded   the query's end-to-end deadline passed
//   ├── Cancelled          the client revoked the query mid-flight
//   └── Overloaded         admission control shed the query (queue
//                          depth/age limit) — it never started
//
// ExecControl is the per-query handle threaded from the service boundary
// down through ResultRequest into the BatchPipeline's checkpoint seams
// (entry, pre-launch, pre-transfer). Checks are cooperative: a batch
// already launched completes, the next checkpoint aborts. CancelToken is
// a monotonic atomic flag safe to trip from any thread.
#pragma once

#include <atomic>
#include <chrono>
#include <limits>
#include <string>

#include "common/fault.hpp"

namespace sj::exec {

/// The query's end-to-end deadline passed before it finished. Not
/// retryable — retrying cannot make the clock run backwards.
class DeadlineExceeded : public fault::FaultError {
 public:
  explicit DeadlineExceeded(const std::string& what)
      : fault::FaultError(what) {}
};

/// The client cancelled the query; partial work is discarded.
class Cancelled : public fault::FaultError {
 public:
  explicit Cancelled(const std::string& what) : fault::FaultError(what) {}
};

/// Admission control rejected the query before it started (bounded queue
/// full, queued too long, or the session is shutting down). The caller
/// may retry against a less-loaded session.
class Overloaded : public fault::FaultError {
 public:
  explicit Overloaded(const std::string& what) : fault::FaultError(what) {}
};

/// Monotonic cancellation flag: once cancelled, always cancelled. Shared
/// by the client (who trips it) and the execution threads (who poll it at
/// checkpoints); trivially thread-safe.
class CancelToken {
 public:
  void cancel() noexcept { flag_.store(true, std::memory_order_relaxed); }
  bool cancelled() const noexcept {
    return flag_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> flag_{false};
};

/// A point on the steady clock by which the query must complete.
/// Default-constructed deadlines are infinite (never expire) so
/// unconfigured paths cost one branch per checkpoint.
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  Deadline() = default;  // infinite

  static Deadline after_ms(double ms) {
    Deadline d;
    d.finite_ = true;
    d.at_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double, std::milli>(ms));
    return d;
  }

  bool finite() const noexcept { return finite_; }
  bool expired() const noexcept { return finite_ && Clock::now() >= at_; }

  /// Milliseconds until expiry; negative once expired, +infinity when
  /// the deadline is infinite.
  double remaining_ms() const noexcept {
    if (!finite_) return std::numeric_limits<double>::infinity();
    return std::chrono::duration<double, std::milli>(at_ - Clock::now())
        .count();
  }

 private:
  Clock::time_point at_{};
  bool finite_ = false;
};

/// The per-query control block: checked at every checkpoint seam.
/// Copyable and cheap; `cancel` is non-owning (the token outlives the
/// run — the session holds it in the request record).
struct ExecControl {
  Deadline deadline;
  const CancelToken* cancel = nullptr;

  bool armed() const noexcept {
    return deadline.finite() || cancel != nullptr;
  }

  /// Throws Cancelled / DeadlineExceeded when tripped; `where` names the
  /// checkpoint in the error message (queue pop, pre-launch, ...).
  /// Cancellation wins over expiry when both hold — the client asked
  /// first.
  void check(const char* where) const {
    if (cancel != nullptr && cancel->cancelled()) {
      throw Cancelled(std::string("query cancelled at ") + where);
    }
    if (deadline.expired()) {
      throw DeadlineExceeded(std::string("deadline exceeded at ") + where +
                             " (" + format_overrun() + " past deadline)");
    }
  }

 private:
  std::string format_overrun() const;
};

}  // namespace sj::exec
