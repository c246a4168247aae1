// One-shot self-join workloads: each operation is a full self-join of the
// input through the backend registry (index build, staging, estimate,
// batched kernels, sorts, transfers, host assembly), issued back to back.

#include <iostream>
#include <limits>
#include <stdexcept>

#include "api/registry.hpp"
#include "common/io.hpp"
#include "reference.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

PairDigest digest_of(const sj::api::JoinOutcome& out) {
  PairDigest d;
  for (const sj::Pair& p : out.pairs.pairs()) d.add(p.key, p.value);
  return d;
}

}  // namespace

RunResult run_self_join(const SelfJoinWorkload& w, const Options& opt,
                        Tracer& tracer) {
  const double eps = w.input.eps;
  const std::string path = input_path(opt);
  PairDigest expected;
  {
    const sj::Dataset input = make_input(w.input, opt.seed);
    sj::io::save_binary(input, path);
    expected = ReferenceGrid(input, eps).self_join();
  }
  const sj::api::Backend& engine =
      sj::api::BackendRegistry::instance().at(w.engine);
  const sj::api::RunConfig config;  // pairs mode, engine defaults

  RunResult r;
  const auto verify = [&](const sj::api::JoinOutcome& out) {
    if (out.total_pairs != expected.pairs || !(digest_of(out) == expected)) {
      r.correct = false;
    }
  };

  // Set-up: load the input file and run one warm-up self-join, so the
  // measured calls see a warm process.
  std::vector<double> setup_s;
  sj::Dataset data;
  for (int s = 0; s < kSetups; ++s) {
    const auto t0 = Clock::now();
    data = sj::io::load_binary(path);
    const auto loaded = Clock::now();
    const sj::api::JoinOutcome out = engine.run(data, eps, config);
    const auto t1 = Clock::now();
    verify(out);
    setup_s.push_back(seconds_between(t0, t1));
    tracer.span("setup", 0, t0, t1);
    tracer.span("load_input", 0, t0, loaded);
  }

  WindowedLatencies latency_ms(opt.seconds, kWindows);
  LayerSamples layers;
  const Clock::time_point measure_from =
      Clock::now() + from_seconds(kWarmupSeconds);
  const Clock::time_point stop = measure_from + from_seconds(opt.seconds);
  for (int op = 0; Clock::now() < stop; ++op) {
    ++r.attempted;
    const auto t0 = Clock::now();
    const bool timed = t0 >= measure_from;
    sj::api::JoinOutcome out;
    try {
      out = engine.run(data, eps, config);
    } catch (const std::exception& e) {
      ++r.failed;
      std::cerr << "self-join failed: " << e.what() << "\n";
      if (timed) {
        latency_ms.add(seconds_between(measure_from, t0),
                       std::numeric_limits<double>::infinity());
      }
      continue;
    }
    const auto t1 = Clock::now();
    verify(out);
    if (!timed) {
      tracer.span("warmup", 0, t0, t1);
      continue;
    }
    const double call_ms = ms_between(t0, t1);
    latency_ms.add(seconds_between(measure_from, t0), call_ms);

    const sj::api::BackendStats& st = out.stats;
    const double index_ms = 1e3 * st.native_value("index_build_seconds");
    const double staging_ms = 1e3 * st.native_value("upload_seconds");
    const double engine_total_ms = 1e3 * st.total_seconds;
    layers.index_build_ms.push_back(index_ms);
    layers.staging_ms.push_back(staging_ms);
    layers.engine_ms.push_back(engine_total_ms - index_ms - staging_ms);
    layers.kernel_busy_ms.push_back(1e3 * st.native_value("kernel_seconds"));
    layers.sort_busy_ms.push_back(1e3 * st.native_value("sort_seconds"));
    layers.assembly_busy_ms.push_back(1e3 *
                                      st.native_value("assembly_seconds"));
    layers.api_overhead_ms.push_back(call_ms - engine_total_ms);
    layers.batches.push_back(st.native_value("batches_run"));
    layers.distance_calcs.push_back(static_cast<double>(st.distance_calcs));
    layers.distance_yield.push_back(
        yield(out.total_pairs, st.distance_calcs));
    layers.bytes_to_host.push_back(st.native_value("bytes_to_host"));
    if (tracer.enabled()) {
      tracer.span(
          "self_join", 0, t0, t1,
          "\"op\": " + std::to_string(op) +
              ", \"engine_ms\": " + std::to_string(engine_total_ms) +
              ", \"index_build_ms\": " + std::to_string(index_ms) +
              ", \"staging_ms\": " + std::to_string(staging_ms) +
              ", \"estimate_ms\": " +
              std::to_string(1e3 * st.native_value("estimate_seconds")) +
              ", \"batched_join_ms\": " +
              std::to_string(1e3 * st.native_value("join_seconds")) +
              ", \"pairs\": " + std::to_string(out.total_pairs));
    }
  }
  if (latency_ms.size() == 0) {
    throw std::runtime_error("no self-join in the measured interval");
  }

  std::cout << w.engine << " self-join of " << data.size() << " points ("
            << data.dim() << "-D, eps " << eps << "): " << expected.pairs
            << " pairs; " << latency_ms.size() << " calls in "
            << latency_ms.windows() << " windows, window-median p50 "
            << latency_ms.percentile(0.5) << " ms, p90 "
            << latency_ms.percentile(0.9) << " ms (pooled p90 "
            << latency_ms.pooled(0.9) << " ms); set-up median "
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
