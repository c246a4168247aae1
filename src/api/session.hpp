// Always-on query service over a prepared self-join image.
//
// Every sjtool invocation so far has been one-shot: build the grid
// index, stage the device image, answer ONE query, tear it all down.
// A QuerySession inverts that lifecycle — the expensive data-side state
// (host GridIndex + cell-major device staging, held in a PreparedJoin)
// is built once, and many client threads then submit range / join /
// self-join / kNN queries against it concurrently. The session is the
// admission scheduler in front of the batched query-group machinery:
// single-point range queries are coalesced into one grouped-join launch
// and split back per query, so concurrent small queries ride the same
// amortisation path the paper's batching scheme gives large ones.
//
// Robustness contract:
//   - End-to-end deadlines + cooperative cancellation: each query may
//     carry a deadline (measured from admission, queue wait included)
//     and a CancelToken. Both are polled at the pipeline's checkpoint
//     seams; a tripped query fails with a typed exec::DeadlineExceeded /
//     exec::Cancelled through its future, partial segments are
//     discarded by the pipeline's drain path, and the session stays
//     healthy — neighbouring in-flight queries are unaffected.
//   - Admission control: the submit queue is bounded by depth and by
//     queued age. A query that does not fit (or that went stale before
//     a worker picked it up) is shed with a typed exec::Overloaded; it
//     never reaches the device.
//   - Fault composition: device faults injected under SJ_FAULTS keep
//     the pipeline's semantics inside the session — transient errors are
//     retried per the engines' default RetryPolicy, terminal ones fail
//     only the query that hit them.
//   - Crash-safe warm start: construct with SessionOptions::snapshot to
//     restore the index from a checksummed snapshot (core/snapshot.hpp)
//     in O(read) instead of rebuilding; a missing, truncated or corrupt
//     snapshot falls back to a cold build (with a stderr warning) and
//     atomically rewrites the snapshot for the next boot.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.hpp"
#include "common/dataset.hpp"
#include "core/join.hpp"
#include "core/knn.hpp"
#include "core/prepared.hpp"
#include "core/self_join.hpp"

namespace sj::api {

/// Per-query knobs at submission. The deadline clock starts at submit —
/// it bounds the END-TO-END latency (queue wait + execution), because a
/// client with a 50 ms budget does not care which side of the queue the
/// time went to.
struct QueryOptions {
  /// End-to-end deadline in milliseconds; <= 0 means none.
  double deadline_ms = 0.0;

  /// Optional cancellation token, non-owning. The token must outlive
  /// the query's future.
  const exec::CancelToken* cancel = nullptr;

  /// Range queries only: skip materialising neighbour ids and return
  /// just the count (served from the histogram path — no pair buffers).
  bool count_only = false;
};

/// Session-wide configuration: concurrency, admission control and the
/// warm-start snapshot. Every query runs its engine's default options
/// (core/join.hpp, core/self_join.hpp, core/knn.hpp).
struct SessionOptions {
  /// Worker threads draining the admission queue — the concurrency cap.
  /// Each in-flight query (or coalesced batch) occupies one worker.
  int workers = 2;

  /// Admission-queue depth bound; a submit against a full queue throws
  /// exec::Overloaded immediately.
  std::size_t max_queue_depth = 256;

  /// Shed queries that waited in the queue longer than this before a
  /// worker picked them up (exec::Overloaded through the future);
  /// <= 0 disables age shedding.
  double max_queue_age_ms = 0.0;

  /// Upper bound on how many single-point range queries one worker may
  /// coalesce into a single grouped-join launch.
  std::size_t coalesce_limit = 64;

  /// Snapshot path for warm starts; empty disables snapshotting. See the
  /// class comment for the restore-or-rebuild semantics.
  std::string snapshot;
};

/// One range query's answer: the data-point ids within eps of the query
/// point, ascending (deterministic across runs and coalescing layouts).
/// In count_only mode `neighbors` stays empty and only `count` is set.
struct RangeResult {
  std::vector<std::uint32_t> neighbors;
  std::uint64_t count = 0;
};

/// Monotonic service counters plus latency percentiles. Latency samples
/// cover completed queries only (end-to-end, admission to result).
struct SessionStats {
  std::uint64_t admitted = 0;   ///< accepted into the queue
  std::uint64_t shed = 0;       ///< rejected by depth/age admission control
  std::uint64_t expired = 0;    ///< failed with DeadlineExceeded
  std::uint64_t cancelled = 0;  ///< failed with Cancelled
  std::uint64_t completed = 0;  ///< finished with a result
  std::uint64_t failed = 0;     ///< failed with any other error
  std::uint64_t coalesced_batches = 0;  ///< multi-query launches
  std::uint64_t coalesced_queries = 0;  ///< range queries inside them
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::uint64_t latency_samples = 0;
  bool restored_from_snapshot = false;
  double startup_seconds = 0.0;  ///< index restore-or-build + staging
};

/// The always-on service. Construction stages the data image (cold
/// build or snapshot restore) and starts the worker pool; destruction
/// closes admission, fails queued work with exec::Overloaded, lets
/// in-flight queries finish, and joins the workers.
///
/// Thread safety: every public method may be called from any thread.
class QuerySession {
 public:
  /// The session owns a copy of `data` (the prepared image references
  /// it for its lifetime). Throws on invalid eps; snapshot problems
  /// never throw — they degrade to a cold build with a stderr warning.
  QuerySession(Dataset data, double eps, SessionOptions opt = {});
  ~QuerySession();

  QuerySession(const QuerySession&) = delete;
  QuerySession& operator=(const QuerySession&) = delete;

  /// Epsilon range query around one point (dim must match the data).
  /// Throws exec::Overloaded NOW if the queue is full; every later
  /// failure (deadline, cancel, device fault) arrives typed through the
  /// future.
  std::future<RangeResult> range(std::vector<double> point,
                                 QueryOptions q = {});

  /// Epsilon join of a whole query set against the prepared data, the
  /// session analogue of gpu_join (pairs are query-index, data-index).
  std::future<GpuJoinResult> join(Dataset queries, QueryOptions q = {});

  /// Full self-join of the prepared dataset at the session eps.
  std::future<SelfJoinResult> self_join(QueryOptions q = {});

  /// k nearest data neighbours for every query point. kNN builds its
  /// own width-adapted grid per call (the eps grid is usually too fine),
  /// so only admission and checkpointing are amortised, not the index.
  std::future<KnnResult> knn(Dataset queries, int k, QueryOptions q = {});

  /// Point-in-time counters + percentiles.
  SessionStats stats() const;

  /// Atomically (re)write the index snapshot; throws on I/O failure.
  void save_snapshot(const std::string& path) const;

  const Dataset& data() const { return data_; }
  double eps() const { return prepared_->eps(); }
  const PreparedJoin& prepared() const { return *prepared_; }
  bool restored_from_snapshot() const { return restored_; }

 private:
  struct Request;

  void submit(std::shared_ptr<Request> req);
  void worker_loop();
  void execute(std::vector<std::shared_ptr<Request>> batch);
  void run_range_batch(const std::vector<std::shared_ptr<Request>>& batch);
  void fail_one(Request& req, std::exception_ptr e);
  void record_latency(const Request& req);

  Dataset data_;
  SessionOptions opt_;
  std::unique_ptr<PreparedJoin> prepared_;
  bool restored_ = false;
  double startup_seconds_ = 0.0;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::shared_ptr<Request>> queue_;
  bool closed_ = false;
  std::vector<std::thread> workers_;

  // Counters are independent and monotonic; latency samples share mu_.
  std::atomic<std::uint64_t> admitted_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> expired_{0};
  std::atomic<std::uint64_t> cancelled_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> coalesced_batches_{0};
  std::atomic<std::uint64_t> coalesced_queries_{0};
  mutable std::mutex latency_mu_;
  std::vector<double> latency_ms_;  // bounded ring of recent samples
  std::size_t latency_next_ = 0;
};

}  // namespace sj::api
