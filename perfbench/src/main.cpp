// perfbench_driver — runs one workload of the repository benchmark and
// prints its result as the last line of standard output:
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --work-dir DIR
//
// Without tracing the result carries the end-to-end metrics; with
// `--trace 1` it carries the per-layer metrics, and the spans the run
// recorded are written to DIR/NAME-seedN.trace.json. perfbench/run.py
// builds this driver and is the entry point named in BENCHMARK.json.

#include <charconv>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <variant>

#include "bench.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using Workload = std::variant<SelfJoinWorkload, ServeWorkload>;

/// The workloads, by name. Why each exists is recorded in BENCHMARK.json.
const std::map<std::string, Workload>& workloads() {
  static const std::map<std::string, Workload> table = [] {
    std::map<std::string, Workload> t;
    // The paper's synthetic case: uniform 2-D points, about 21 neighbours
    // each, so every cell of the grid carries similar work.
    t["selfjoin_uniform"] = SelfJoinWorkload{
        InputSpec{.shape = Shape::kUniform,
                  .dim = 2,
                  .n = 100000,
                  .extent = 100.0,
                  .eps = 0.8},
        "gpu_unicomp"};
    // Clustered 2-D points: a few dense blobs hold most result pairs, so
    // batch planning, sorts and host assembly carry the load.
    t["selfjoin_skewed"] = SelfJoinWorkload{
        InputSpec{.shape = Shape::kClustered,
                  .dim = 2,
                  .n = 100000,
                  .extent = 100.0,
                  .eps = 0.25,
                  .clusters = 20,
                  .clustered_share = 0.6,
                  .sigma = 1.5},
        "gpu_unicomp"};
    // Uniform 6-D points: 729 adjacent cells per cell and few result
    // pairs, so adjacency, the estimator and the distance loop dominate.
    t["selfjoin_6d"] = SelfJoinWorkload{
        InputSpec{.shape = Shape::kUniform,
                  .dim = 6,
                  .n = 8000,
                  .extent = 1.0,
                  .eps = 0.3},
        "gpu_unicomp"};
    // Join requests of 16k query points against an always-on session from
    // one closed-loop client. Requests of a few milliseconds or less
    // (single-point range queries in an open or closed loop, joins of 256
    // or 2048 points) slowed two to three times more than the self-joins
    // while the host was busy, so their p90 spread past the bound between
    // runs of the same code; at 40 to 60 ms a request is as steady as a
    // self-join.
    t["serve_join"] = ServeWorkload{
        InputSpec{.shape = Shape::kUniform,
                  .dim = 2,
                  .n = 200000,
                  .extent = 100.0,
                  .eps = 0.8},
        /*query_points=*/16384};
    return t;
  }();
  return table;
}

[[noreturn]] void usage(const std::string& msg) {
  std::cerr << "perfbench_driver: " << msg
            << "\nusage: perfbench_driver --workload NAME --seed N "
               "--seconds S --trace 0|1 --work-dir DIR\nworkloads:";
  for (const auto& [name, w] : workloads()) std::cerr << " " << name;
  std::cerr << "\n";
  std::exit(2);
}

template <typename T>
T parse_number(const std::string& flag, const std::string& text) {
  T value{};
  const auto res =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (res.ec != std::errc() || res.ptr != text.data() + text.size()) {
    usage("bad value '" + text + "' for --" + flag);
  }
  return value;
}

Options parse_options(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; i += 2) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0 || i + 1 >= argc) {
      usage("expected --flag value pairs, got '" + arg + "'");
    }
    flags[arg.substr(2)] = argv[i + 1];
  }
  for (const char* required : {"workload", "seed", "seconds", "trace",
                               "work-dir"}) {
    if (flags.count(required) == 0) usage(std::string("missing --") + required);
  }
  Options opt;
  opt.workload = flags.at("workload");
  opt.seed = parse_number<std::uint64_t>("seed", flags.at("seed"));
  opt.seconds = parse_number<double>("seconds", flags.at("seconds"));
  const int trace = parse_number<int>("trace", flags.at("trace"));
  opt.work_dir = flags.at("work-dir");
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
  if (trace != 0 && trace != 1) usage("--trace must be 0 or 1");
  opt.trace = trace == 1;
  if (flags.size() != 5) usage("unknown flag");
  return opt;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options opt = parse_options(argc, argv);
  const auto it = workloads().find(opt.workload);
  if (it == workloads().end()) usage("unknown workload '" + opt.workload + "'");

  Tracer tracer(opt.trace);
  RunResult result;
  try {
    std::filesystem::create_directories(opt.work_dir);
    if (const auto* sj = std::get_if<SelfJoinWorkload>(&it->second)) {
      result = run_self_join(*sj, opt, tracer);
    } else {
      result = run_serve(std::get<ServeWorkload>(it->second), opt, tracer);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << opt.workload << ": " << e.what()
              << "\n";
    return 1;
  }
  std::filesystem::remove(input_path(opt));
  if (tracer.enabled()) {
    const std::string trace_path = opt.work_dir + "/" + opt.workload +
                                   "-seed" + std::to_string(opt.seed) +
                                   ".trace.json";
    if (tracer.write(trace_path)) {
      std::cout << "trace written to " << trace_path << "\n";
    }
  }
  if (!result.correct) {
    std::cerr << "perfbench_driver: " << opt.workload
              << ": the program returned a wrong result\n";
  }
  std::cout << result_json(result) << std::endl;
  return result.correct ? 0 : 1;
}
