// The two kinds of workload the benchmark drives, and the per-layer
// figures both report in a traced run.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/dataset.hpp"

namespace perfbench {

/// How often a run sets the system up; set-up time is the median.
inline constexpr int kSetups = 5;

/// Windows the measured interval is cut into (see WindowedLatencies).
inline constexpr int kWindows = 5;

/// Operations run after set-up and before the measured window, so lazy
/// allocation and thread start-up settle first. They are checked and
/// counted as attempted, but not timed.
inline constexpr double kWarmupSeconds = 1.0;

enum class Shape { kUniform, kClustered };

/// The input points of a workload; generated from the run seed.
struct InputSpec {
  Shape shape = Shape::kUniform;
  int dim = 2;
  std::size_t n = 0;
  double extent = 100.0;  ///< points lie in [0, extent)^dim
  double eps = 1.0;
  // kClustered only (see clustered_points).
  int clusters = 0;
  double clustered_share = 0.0;
  double sigma = 0.0;
};

sj::Dataset make_input(const InputSpec& spec, std::uint64_t seed);

/// Where a run keeps its generated input file.
std::string input_path(const Options& opt);

/// Repeated one-shot self-joins through the backend registry, back to
/// back from one caller (a closed loop), as `sjtool selfjoin` runs them.
struct SelfJoinWorkload {
  InputSpec input;
  std::string engine;  ///< registry name
};

/// Epsilon-join requests for batches of random query points against an
/// always-on QuerySession, from one client that sends the next request
/// when the last is answered (a closed loop).
struct ServeWorkload {
  InputSpec input;
  std::size_t query_points = 0;  ///< query points per request
};

RunResult run_self_join(const SelfJoinWorkload& w, const Options& opt,
                        Tracer& tracer);
RunResult run_serve(const ServeWorkload& w, const Options& opt,
                    Tracer& tracer);

/// Per-layer figures of a traced run, one entry per engine call (or per
/// set-up, for the two set-up layers of the serve workload). Each is
/// reported as its median.
struct LayerSamples {
  std::vector<double> index_build_ms;  ///< grid-index build
  std::vector<double> staging_ms;      ///< device-image staging
  std::vector<double> engine_ms;       ///< rest of the engine's own time
  std::vector<double> kernel_busy_ms;  ///< kernels, summed over streams
  std::vector<double> sort_busy_ms;    ///< per-batch sorts, summed
  std::vector<double> assembly_busy_ms;  ///< host assembly, summed
  std::vector<double> api_overhead_ms;   ///< call span minus engine total
  std::vector<double> batches;
  std::vector<double> distance_calcs;
  std::vector<double> distance_yield;  ///< result pairs per distance calc
  std::vector<double> bytes_to_host;
};

/// Share of distance calculations that produced a result pair.
inline double yield(std::uint64_t pairs, std::uint64_t distance_calcs) {
  return distance_calcs == 0 ? 0.0
                             : static_cast<double>(pairs) /
                                   static_cast<double>(distance_calcs);
}

void report_layers(const LayerSamples& s, RunResult& r);

}  // namespace perfbench
