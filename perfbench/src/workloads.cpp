#include "workloads.hpp"

#include "inputs.hpp"

namespace perfbench {

sj::Dataset make_input(const InputSpec& spec, std::uint64_t seed) {
  Rng rng = stream_rng(seed, 1);
  if (spec.shape == Shape::kClustered) {
    return clustered_points(spec.n, spec.dim, spec.extent, spec.clusters,
                            spec.clustered_share, spec.sigma, rng);
  }
  return uniform_points(spec.n, spec.dim, spec.extent, rng);
}

std::string input_path(const Options& opt) {
  return opt.work_dir + "/" + opt.workload + "-seed" +
         std::to_string(opt.seed) + ".sjd";
}

void report_layers(const LayerSamples& s, RunResult& r) {
  const auto put = [&r](const char* name, const std::vector<double>& v,
                        const char* unit) {
    r.metrics[name] = Metric{median(v), unit};
  };
  put("index_build_ms", s.index_build_ms, "ms");
  put("staging_ms", s.staging_ms, "ms");
  put("engine_ms", s.engine_ms, "ms");
  put("kernel_busy_ms", s.kernel_busy_ms, "ms");
  put("sort_busy_ms", s.sort_busy_ms, "ms");
  put("assembly_busy_ms", s.assembly_busy_ms, "ms");
  put("api_overhead_ms", s.api_overhead_ms, "ms");
  put("batches", s.batches, "count");
  put("distance_calcs", s.distance_calcs, "count");
  put("distance_yield", s.distance_yield, "ratio");
  put("bytes_to_host", s.bytes_to_host, "bytes");
}

}  // namespace perfbench
