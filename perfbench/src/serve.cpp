// Serving workload: an always-on QuerySession, started from its index
// snapshot, answers epsilon-join requests for batches of query points from
// one client that sends the next request when the last is answered (a
// closed loop). Each request pays admission, one grouped-join launch over
// the prepared index, and the hand-back through its future.

#include <cstdint>
#include <filesystem>
#include <iostream>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "api/session.hpp"
#include "common/io.hpp"
#include "inputs.hpp"
#include "reference.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

sj::Dataset random_queries(Rng& rng, std::size_t count, int dim,
                           double extent) {
  std::vector<double> xs(count * static_cast<std::size_t>(dim));
  for (double& x : xs) x = rng.uniform() * extent;
  return sj::Dataset(dim, std::move(xs));
}

/// Whether `res` holds exactly the pairs (query index, data id) within
/// eps of `queries`.
bool matches(const sj::GpuJoinResult& res, const sj::Dataset& queries,
             const ReferenceGrid& ref) {
  PairDigest want;
  std::vector<std::uint32_t> ids;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    ref.neighbors(queries.pt(q), ids);
    for (const std::uint32_t id : ids) {
      want.add(static_cast<std::uint32_t>(q), id);
    }
  }
  PairDigest got;
  for (const sj::Pair& p : res.pairs.pairs()) got.add(p.key, p.value);
  return res.total_pairs == want.pairs && got == want;
}

}  // namespace

RunResult run_serve(const ServeWorkload& w, const Options& opt,
                    Tracer& tracer) {
  const double eps = w.input.eps;
  const int dim = w.input.dim;
  const double extent = w.input.extent;
  const std::string path = input_path(opt);
  const sj::Dataset input = make_input(w.input, opt.seed);
  sj::io::save_binary(input, path);
  const ReferenceGrid ref(input, eps);

  // Session defaults, plus an index snapshot to restart from.
  sj::api::SessionOptions so;
  so.snapshot = path + ".snapshot";
  std::filesystem::remove(so.snapshot);
  {
    // An untimed cold start builds the index and writes the snapshot.
    const sj::api::QuerySession cold(sj::io::load_binary(path), eps, so);
  }

  RunResult r;
  LayerSamples layers;
  std::vector<double> setup_s;
  Rng query_rng = stream_rng(opt.seed, 2);

  // Set-up, as a restart of the service: load the input file, start the
  // session (index restored from the snapshot, device staging, worker
  // pool) and answer the first request.
  std::unique_ptr<sj::api::QuerySession> session;
  for (int s = 0; s < kSetups; ++s) {
    session.reset();
    const sj::Dataset queries =
        random_queries(query_rng, w.query_points, dim, extent);
    const auto t0 = Clock::now();
    session = std::make_unique<sj::api::QuerySession>(
        sj::io::load_binary(path), eps, so);
    const sj::GpuJoinResult first = session->join(queries).get();
    const auto t1 = Clock::now();
    if (!matches(first, queries, ref)) r.correct = false;
    if (!session->restored_from_snapshot()) {
      r.correct = false;
      std::cerr << "the session rebuilt its index instead of restoring "
                   "the snapshot\n";
    }
    setup_s.push_back(seconds_between(t0, t1));
    tracer.span("setup", 0, t0, t1);
    const double staging_s = session->prepared().upload_seconds();
    layers.index_build_ms.push_back(
        1e3 * (session->stats().startup_seconds - staging_s));
    layers.staging_ms.push_back(1e3 * staging_s);
  }

  WindowedLatencies latency_ms(opt.seconds, kWindows);
  const Clock::time_point measure_from =
      Clock::now() + from_seconds(kWarmupSeconds);
  const Clock::time_point stop = measure_from + from_seconds(opt.seconds);
  while (Clock::now() < stop) {
    const sj::Dataset queries =
        random_queries(query_rng, w.query_points, dim, extent);
    ++r.attempted;
    const auto t0 = Clock::now();
    const bool timed = t0 >= measure_from;
    sj::GpuJoinResult res;
    try {
      res = session->join(queries).get();
    } catch (const std::exception& e) {
      ++r.failed;
      std::cerr << "join request failed: " << e.what() << "\n";
      if (timed) {
        latency_ms.add(seconds_between(measure_from, t0),
                       std::numeric_limits<double>::infinity());
      }
      continue;
    }
    const auto t1 = Clock::now();
    if (!matches(res, queries, ref)) r.correct = false;
    if (!timed) {
      tracer.span("warmup", 0, t0, t1);
      continue;
    }
    const double call_ms = ms_between(t0, t1);
    latency_ms.add(seconds_between(measure_from, t0), call_ms);

    const sj::GpuJoinStats& st = res.stats;
    layers.engine_ms.push_back(1e3 * st.total_seconds);
    layers.kernel_busy_ms.push_back(1e3 * st.batch.kernel_seconds);
    layers.sort_busy_ms.push_back(1e3 * st.batch.sort_seconds);
    layers.assembly_busy_ms.push_back(1e3 * st.batch.assembly_seconds);
    layers.api_overhead_ms.push_back(call_ms - 1e3 * st.total_seconds);
    layers.batches.push_back(static_cast<double>(st.batch.batches_run));
    layers.distance_calcs.push_back(
        static_cast<double>(st.metrics.distance_calcs));
    layers.distance_yield.push_back(
        yield(res.total_pairs, st.metrics.distance_calcs));
    layers.bytes_to_host.push_back(static_cast<double>(st.batch.bytes_to_host));
    tracer.span("join_request", 0, t0, t1,
                "\"engine_ms\": " + std::to_string(1e3 * st.total_seconds) +
                    ", \"pairs\": " + std::to_string(res.total_pairs));
  }
  std::filesystem::remove(so.snapshot);
  if (latency_ms.size() == 0) {
    throw std::runtime_error("no request in the measured interval");
  }

  std::cout << "session over " << input.size() << " points (" << dim
            << "-D, eps " << eps << "), " << so.workers
            << " workers, restarted from its snapshot; "
            << latency_ms.size() << " join requests of " << w.query_points
            << " query points in " << latency_ms.windows()
            << " windows: window-median p50 " << latency_ms.percentile(0.5)
            << " ms, p90 " << latency_ms.percentile(0.9) << " ms (pooled p99 "
            << latency_ms.pooled(0.99) << " ms); set-up median "
            << median(setup_s) << " s of " << kSetups << "\n";

  if (tracer.enabled()) {
    report_layers(layers, r);
  } else {
    r.metrics["latency_p50_ms"] = Metric{latency_ms.percentile(0.5), "ms"};
    r.metrics["latency_p90_ms"] = Metric{latency_ms.percentile(0.9), "ms"};
    r.metrics["setup_s"] = Metric{median(setup_s), "s"};
  }
  return r;
}

}  // namespace perfbench
