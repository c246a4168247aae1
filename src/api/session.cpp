#include "api/session.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "common/parse.hpp"
#include "common/timer.hpp"
#include "core/snapshot.hpp"

namespace sj::api {

namespace {

constexpr std::size_t kLatencyWindow = 4096;

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

/// One admitted query. The three promises mirror the three result types
/// (a join and a self-join share one); exactly one, selected by `kind`, is
/// ever touched.
struct QuerySession::Request {
  enum class Kind { kRange, kJoin, kSelfJoin, kKnn };

  Kind kind = Kind::kRange;
  std::vector<double> point;  // kRange
  bool count_only = false;    // kRange
  Dataset queries;            // kJoin / kKnn
  int k = 0;                  // kKnn

  exec::Deadline deadline;
  const exec::CancelToken* cancel = nullptr;
  std::chrono::steady_clock::time_point enqueued{};

  std::promise<RangeResult> range_promise;
  std::promise<GpuJoinResult> join_promise;  // kJoin / kSelfJoin
  std::promise<KnnResult> knn_promise;

  exec::ExecControl control() const { return {deadline, cancel}; }

  void set_exception(std::exception_ptr e) {
    switch (kind) {
      case Kind::kRange: range_promise.set_exception(std::move(e)); return;
      case Kind::kJoin:
      case Kind::kSelfJoin: join_promise.set_exception(std::move(e)); return;
      case Kind::kKnn: knn_promise.set_exception(std::move(e)); return;
    }
  }
};

QuerySession::QuerySession(Dataset data, double eps, SessionOptions opt)
    : data_(std::move(data)), opt_(std::move(opt)) {
  Timer t;
  if (!opt_.snapshot.empty() && std::filesystem::exists(opt_.snapshot)) {
    std::string why;
    auto restored = snapshot::try_load(opt_.snapshot, &why);
    if (!restored) {
      // Never UB, never abort: a torn or corrupt snapshot degrades to a
      // cold build and the file is rewritten below.
      std::fprintf(stderr, "[session] %s; rebuilding the index cold\n",
                   why.c_str());
    } else if (restored->index.eps() != eps || restored->data.dim() != data_.dim() ||
               restored->data.raw() != data_.raw()) {
      std::fprintf(stderr,
                   "[session] snapshot '%s' was built for a different "
                   "dataset or eps; rebuilding the index cold\n",
                   opt_.snapshot.c_str());
    } else {
      prepared_ = std::make_unique<PreparedJoin>(data_,
                                                 std::move(restored->index));
      restored_ = true;
    }
  }
  if (prepared_ == nullptr) {
    prepared_ = std::make_unique<PreparedJoin>(data_, eps);
    if (!opt_.snapshot.empty()) {
      try {
        snapshot::save(opt_.snapshot, data_, prepared_->index());
      } catch (const std::exception& e) {
        std::fprintf(stderr, "[session] cannot write snapshot: %s\n",
                     e.what());
      }
    }
  }
  startup_seconds_ = t.seconds();

  const int n = std::max(1, opt_.workers);
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

QuerySession::~QuerySession() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    closed_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
  // Whatever the workers did not reach is shed, typed — a client blocked
  // on one of these futures unblocks with Overloaded instead of hanging.
  for (const std::shared_ptr<Request>& req : queue_) {
    shed_.fetch_add(1, std::memory_order_relaxed);
    req->set_exception(std::make_exception_ptr(
        exec::Overloaded("query shed: session is shutting down")));
  }
  queue_.clear();
}

void QuerySession::submit(std::shared_ptr<Request> req) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (closed_) {
      shed_.fetch_add(1, std::memory_order_relaxed);
      throw exec::Overloaded("query rejected: session is shutting down");
    }
    if (queue_.size() >= opt_.max_queue_depth) {
      shed_.fetch_add(1, std::memory_order_relaxed);
      throw exec::Overloaded(
          "query shed: admission queue full (depth " +
          std::to_string(opt_.max_queue_depth) + ")");
    }
    req->enqueued = std::chrono::steady_clock::now();
    admitted_.fetch_add(1, std::memory_order_relaxed);
    queue_.push_back(std::move(req));
  }
  cv_.notify_one();
}

std::future<RangeResult> QuerySession::range(std::vector<double> point,
                                             QueryOptions q) {
  if (static_cast<int>(point.size()) != data_.dim()) {
    throw std::invalid_argument(
        "QuerySession::range: query point has " +
        std::to_string(point.size()) + " coordinates, the data has " +
        std::to_string(data_.dim()));
  }
  auto req = std::make_shared<Request>();
  req->kind = Request::Kind::kRange;
  req->point = std::move(point);
  req->count_only = q.count_only;
  if (q.deadline_ms > 0.0) req->deadline = exec::Deadline::after_ms(q.deadline_ms);
  req->cancel = q.cancel;
  auto fut = req->range_promise.get_future();
  submit(std::move(req));
  return fut;
}

std::future<GpuJoinResult> QuerySession::join(Dataset queries,
                                              QueryOptions q) {
  parse::matching_dims("argument 'queries' of QuerySession::join",
                       queries.dim(), "the session dataset", data_.dim());
  auto req = std::make_shared<Request>();
  req->kind = Request::Kind::kJoin;
  req->queries = std::move(queries);
  if (q.deadline_ms > 0.0) req->deadline = exec::Deadline::after_ms(q.deadline_ms);
  req->cancel = q.cancel;
  auto fut = req->join_promise.get_future();
  submit(std::move(req));
  return fut;
}

std::future<GpuJoinResult> QuerySession::self_join(QueryOptions q) {
  auto req = std::make_shared<Request>();
  req->kind = Request::Kind::kSelfJoin;
  if (q.deadline_ms > 0.0) req->deadline = exec::Deadline::after_ms(q.deadline_ms);
  req->cancel = q.cancel;
  auto fut = req->join_promise.get_future();
  submit(std::move(req));
  return fut;
}

std::future<KnnResult> QuerySession::knn(Dataset queries, int k,
                                         QueryOptions q) {
  parse::positive("argument 'k' of QuerySession::knn", k);
  parse::matching_dims("argument 'queries' of QuerySession::knn",
                       queries.dim(), "the session dataset", data_.dim());
  auto req = std::make_shared<Request>();
  req->kind = Request::Kind::kKnn;
  req->queries = std::move(queries);
  req->k = k;
  if (q.deadline_ms > 0.0) req->deadline = exec::Deadline::after_ms(q.deadline_ms);
  req->cancel = q.cancel;
  auto fut = req->knn_promise.get_future();
  submit(std::move(req));
  return fut;
}

void QuerySession::worker_loop() {
  for (;;) {
    std::vector<std::shared_ptr<Request>> batch;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [this] { return closed_ || !queue_.empty(); });
      if (closed_) return;  // the destructor sheds what is left
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
      // Coalesce a run of compatible single-point range queries into one
      // grouped-join launch: the admission queue is the batching seam.
      if (batch.front()->kind == Request::Kind::kRange) {
        while (batch.size() < opt_.coalesce_limit && !queue_.empty() &&
               queue_.front()->kind == Request::Kind::kRange &&
               queue_.front()->count_only == batch.front()->count_only) {
          batch.push_back(std::move(queue_.front()));
          queue_.pop_front();
        }
      }
    }
    execute(std::move(batch));
  }
}

/// Resolve a query's own verdict: its cancel token, then its deadline,
/// then (for batch members) whatever stopped the shared launch.
static std::exception_ptr member_verdict(const exec::ExecControl& ctl,
                                         const char* where,
                                         std::exception_ptr batch_error) {
  try {
    ctl.check(where);
  } catch (...) {
    return std::current_exception();
  }
  return batch_error;
}

void QuerySession::fail_one(Request& req, std::exception_ptr e) {
  try {
    std::rethrow_exception(e);
  } catch (const exec::DeadlineExceeded&) {
    expired_.fetch_add(1, std::memory_order_relaxed);
  } catch (const exec::Cancelled&) {
    cancelled_.fetch_add(1, std::memory_order_relaxed);
  } catch (const exec::Overloaded&) {
    shed_.fetch_add(1, std::memory_order_relaxed);
  } catch (...) {
    failed_.fetch_add(1, std::memory_order_relaxed);
  }
  req.set_exception(std::move(e));
}

void QuerySession::record_latency(const Request& req) {
  completed_.fetch_add(1, std::memory_order_relaxed);
  const double ms = ms_since(req.enqueued);
  std::lock_guard<std::mutex> lk(latency_mu_);
  if (latency_ms_.size() < kLatencyWindow) {
    latency_ms_.push_back(ms);
  } else {
    latency_ms_[latency_next_ % kLatencyWindow] = ms;
  }
  ++latency_next_;
}

void QuerySession::execute(std::vector<std::shared_ptr<Request>> batch) {
  // Admission-control tail: shed what went stale in the queue, resolve
  // what was cancelled or expired before it ever reached the device.
  std::vector<std::shared_ptr<Request>> live;
  live.reserve(batch.size());
  for (std::shared_ptr<Request>& sp : batch) {
    Request& req = *sp;
    if (opt_.max_queue_age_ms > 0.0 &&
        ms_since(req.enqueued) > opt_.max_queue_age_ms) {
      fail_one(req, std::make_exception_ptr(exec::Overloaded(
                        "query shed: queued longer than the admission age "
                        "limit")));
      continue;
    }
    const exec::ExecControl ctl = req.control();
    std::exception_ptr e = member_verdict(ctl, "admission", nullptr);
    if (e != nullptr) {
      fail_one(req, std::move(e));
      continue;
    }
    live.push_back(std::move(sp));
  }
  if (live.empty()) return;

  if (live.front()->kind == Request::Kind::kRange) {
    run_range_batch(live);
    return;
  }

  // join / self-join / kNN run singly; their control (deadline AND
  // cancel token) rides straight into the engine's checkpoint seams.
  Request& req = *live.front();
  const exec::ExecControl ctl = req.control();
  try {
    switch (req.kind) {
      case Request::Kind::kJoin:
      case Request::Kind::kSelfJoin: {
        // The engines' default options; a join reads only the
        // GpuJoinOptions part.
        GpuSelfJoinOptions o;
        o.control = &ctl;
        GpuJoinResult r = req.kind == Request::Kind::kJoin
                              ? prepared_->run(req.queries, o)
                              : prepared_->self_join(o);
        record_latency(req);
        req.join_promise.set_value(std::move(r));
        return;
      }
      case Request::Kind::kKnn: {
        KnnOptions o;
        o.k = req.k;
        o.control = &ctl;
        KnnResult r = gpu_knn(req.queries, data_, o);
        record_latency(req);
        req.knn_promise.set_value(std::move(r));
        return;
      }
      case Request::Kind::kRange: break;  // handled above
    }
  } catch (...) {
    fail_one(req, std::current_exception());
  }
}

void QuerySession::run_range_batch(
    const std::vector<std::shared_ptr<Request>>& batch) {
  const bool count_only = batch.front()->count_only;
  if (batch.size() > 1) {
    coalesced_batches_.fetch_add(1, std::memory_order_relaxed);
    coalesced_queries_.fetch_add(batch.size(), std::memory_order_relaxed);
  }

  // The batch control: a singleton query keeps its own cancel token and
  // deadline; a coalesced launch runs under the LATEST member deadline
  // (members that expire mid-launch are resolved individually at split
  // time) and no shared cancel token, so one client's cancel cannot
  // tear down its neighbours' work.
  exec::ExecControl batch_ctl;
  if (batch.size() == 1) {
    batch_ctl = batch.front()->control();
  } else {
    exec::Deadline latest;
    bool all_finite = true;
    for (const auto& sp : batch) {
      if (!sp->deadline.finite()) {
        all_finite = false;
        break;
      }
      if (!latest.finite() ||
          sp->deadline.remaining_ms() > latest.remaining_ms()) {
        latest = sp->deadline;
      }
    }
    if (all_finite) batch_ctl.deadline = latest;
  }

  Dataset queries(data_.dim());
  queries.reserve(batch.size());
  for (const auto& sp : batch) queries.push_back(sp->point.data());

  GpuJoinOptions o;
  o.mode = count_only ? ResultMode::kHistogram : ResultMode::kPairs;
  o.control = &batch_ctl;

  GpuJoinResult result;
  std::exception_ptr batch_error;
  try {
    result = prepared_->run(queries, o);
  } catch (...) {
    batch_error = std::current_exception();
  }

  if (batch_error != nullptr) {
    // Each member gets ITS verdict: own cancel, own deadline, then the
    // shared failure. (Under the latest-deadline rule, a batch-level
    // DeadlineExceeded implies every member deadline has passed too.)
    for (const auto& sp : batch) {
      fail_one(*sp, member_verdict(sp->control(), "batched launch",
                                   batch_error));
    }
    return;
  }

  // Split the grouped result back per query. Pairs are (query index,
  // data index); sort each member's ids ascending so the answer is
  // byte-identical whether the query ran alone or coalesced.
  std::vector<RangeResult> per_query(batch.size());
  if (count_only) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      per_query[i].count = result.histogram[i];
    }
  } else {
    for (const Pair& p : result.pairs.pairs()) {
      per_query[p.key].neighbors.push_back(p.value);
    }
    for (RangeResult& r : per_query) {
      std::sort(r.neighbors.begin(), r.neighbors.end());
      r.count = r.neighbors.size();
    }
  }

  for (std::size_t i = 0; i < batch.size(); ++i) {
    Request& req = *batch[i];
    std::exception_ptr e =
        member_verdict(req.control(), "result split", nullptr);
    if (e != nullptr) {
      fail_one(req, std::move(e));  // partial answer discarded, typed
      continue;
    }
    record_latency(req);
    req.range_promise.set_value(std::move(per_query[i]));
  }
}

SessionStats QuerySession::stats() const {
  SessionStats s;
  s.admitted = admitted_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.expired = expired_.load(std::memory_order_relaxed);
  s.cancelled = cancelled_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.coalesced_batches = coalesced_batches_.load(std::memory_order_relaxed);
  s.coalesced_queries = coalesced_queries_.load(std::memory_order_relaxed);
  s.restored_from_snapshot = restored_;
  s.startup_seconds = startup_seconds_;

  std::vector<double> lat;
  {
    std::lock_guard<std::mutex> lk(latency_mu_);
    lat = latency_ms_;
  }
  s.latency_samples = lat.size();
  if (!lat.empty()) {
    const auto at = [&lat](double q) {
      const auto idx = static_cast<std::size_t>(
          q * static_cast<double>(lat.size() - 1));
      std::nth_element(lat.begin(),
                       lat.begin() + static_cast<std::ptrdiff_t>(idx),
                       lat.end());
      return lat[idx];
    };
    s.p50_ms = at(0.50);
    s.p99_ms = at(0.99);
  }
  return s;
}

void QuerySession::save_snapshot(const std::string& path) const {
  snapshot::save(path, data_, prepared_->index());
}

}  // namespace sj::api
