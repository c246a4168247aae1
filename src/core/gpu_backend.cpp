// Adapter shims exposing the GPU engines through the unified backend
// interface: "gpu" (GPU-SJ, Algorithm 1), "gpu_unicomp" (GPU-SJ with the
// Section V-B duplicate-search removal), "gpu_shard" (GPU-SJ partitioned
// across K simulated devices) and "gpu_bf" (the Section VI-B brute-force
// kernel lower bound).
#include "core/gpu_backend.hpp"

#include <memory>
#include <stdexcept>

#include "api/registry.hpp"
#include "common/cancel.hpp"
#include "common/fault.hpp"
#include "core/brute_force_gpu.hpp"
#include "core/join.hpp"
#include "core/knn.hpp"
#include "core/self_join.hpp"
#include "core/shard_engine.hpp"

namespace sj::backends {

namespace {

constexpr std::string_view kGpuKeys =
    "block_size,min_batches,num_streams,max_buffer_pairs,layout,faults,"
    "retries,backoff_ms,deadline_ms";

/// The "deadline_ms" knob (sjtool --deadline-ms): arms a function-local
/// ExecControl with an end-to-end deadline starting NOW, so the clock
/// covers the whole engine call (index build included). `ctl` must
/// outlive the run — callers keep it on their stack frame.
template <typename Options>
void apply_deadline(const api::RunConfig& config, Options& opt,
                    exec::ExecControl& ctl) {
  const double ms = config.number("deadline_ms", 0.0);
  if (ms < 0.0) {
    throw std::invalid_argument("option 'deadline_ms' must be >= 0");
  }
  if (ms > 0.0) {
    ctl.deadline = exec::Deadline::after_ms(ms);
    opt.control = &ctl;
  }
}

/// The "layout" knob shared by the GPU-SJ engines: cell (default) runs
/// the cell-major reorder + grouped kernel, legacy the paper's
/// point-centric kernel over the original point order.
GridLayout parse_layout(const api::RunConfig& config) {
  const std::string v = config.text("layout", "cell");
  if (v == "cell") return GridLayout::kCellMajor;
  if (v == "legacy") return GridLayout::kLegacy;
  throw std::invalid_argument("option 'layout' must be 'cell' or 'legacy'");
}

/// Knob values arrive from untrusted CLI input (--opt); reject anything
/// non-positive before it is cast to an unsigned engine option.
int positive_int(const api::RunConfig& config, const std::string& key,
                 int def) {
  const int v = config.integer(key, def);
  if (v <= 0) {
    throw std::invalid_argument("option '" + key +
                                "' must be a positive integer");
  }
  return v;
}

/// Retry counts may legitimately be zero (fail fast on the first
/// transient fault), so positive_int is too strict for them.
int non_negative_int(const api::RunConfig& config, const std::string& key,
                     int def) {
  const int v = config.integer(key, def);
  if (v < 0) {
    throw std::invalid_argument("option '" + key +
                                "' must be a non-negative integer");
  }
  return v;
}

void reject_threads(std::string_view backend, const api::RunConfig& config) {
  if (config.threads != 0) {
    throw std::invalid_argument(std::string(backend) +
                                ": --threads is not supported (the GPU "
                                "engine's parallelism is the device model)");
  }
}

/// The batching knobs every GPU join-shaped engine shares (its options
/// derive from PipelineConfig) — parsed in ONE place so validation cannot
/// drift between the self-join, join and shard adapters. The messages
/// name the --opt keys, checked before the unsigned casts.
void apply_gpu_batch_knobs(const api::RunConfig& config,
                           PipelineConfig& opt) {
  opt.block_size = positive_int(config, "block_size", opt.block_size);
  opt.min_batches = static_cast<std::size_t>(positive_int(
      config, "min_batches", static_cast<int>(opt.min_batches)));
  opt.num_streams = positive_int(config, "num_streams", opt.num_streams);
  const double buffer_pairs = config.number(
      "max_buffer_pairs", static_cast<double>(opt.max_buffer_pairs));
  if (buffer_pairs <= 0.0) {
    throw std::invalid_argument("option 'max_buffer_pairs' must be > 0");
  }
  opt.max_buffer_pairs = static_cast<std::uint64_t>(buffer_pairs);
  // Fault-tolerance knobs. "faults" arms the process-wide injector (needs
  // a -DSJ_FAULTS=ON build; configure_from_text explains otherwise);
  // retries/backoff_ms shape the pipeline's transient-failure retry loop.
  const std::string faults = config.text("faults", "");
  if (!faults.empty()) fault::configure_from_text(faults);
  opt.retry.retries = non_negative_int(config, "retries", opt.retry.retries);
  opt.retry.backoff_ms = config.number("backoff_ms", opt.retry.backoff_ms);
  if (opt.retry.backoff_ms < 0.0) {
    throw std::invalid_argument("option 'backoff_ms' must be >= 0");
  }
}

/// The normalised + native stats block of every GPU join-shaped run:
/// self-join or join, one device or sharded. Every outcome reports the
/// same keys; a phase the engine does not have reads 0.
api::JoinOutcome make_gpu_outcome(GpuJoinResult r) {
  api::JoinOutcome out;
  out.pairs = std::move(r.pairs);
  out.total_pairs = r.total_pairs;
  out.histogram = std::move(r.histogram);
  const GpuJoinStats& s = r.stats;
  out.stats.seconds = s.total_seconds;
  out.stats.total_seconds = s.total_seconds;
  out.stats.build_seconds = s.index_build_seconds;
  out.stats.distance_calcs = s.metrics.distance_calcs;
  out.stats.native = {
      {"index_build_seconds", s.index_build_seconds},
      {"upload_seconds", s.upload_seconds},
      {"join_seconds", s.join_seconds},
      {"adjacency_seconds", s.adjacency_seconds},
      // The exact-sizing count pass (count launch, prefix sum, batch
      // cut), under the name the sampled estimator's phase had.
      {"estimate_seconds", s.batch.count_seconds},
      {"batches_run", static_cast<double>(s.batch.batches_run)},
      {"retries", static_cast<double>(s.batch.retries)},
      {"batches_split_on_oom",
       static_cast<double>(s.batch.batches_split_on_oom)},
      {"kernel_seconds", s.batch.kernel_seconds},
      {"assembly_seconds", s.batch.assembly_seconds},
      {"bytes_to_host", static_cast<double>(s.batch.bytes_to_host)},
      {"cells_examined", static_cast<double>(s.metrics.cells_examined)},
      {"cells_nonempty", static_cast<double>(s.metrics.cells_nonempty)},
      {"grid_nonempty_cells", static_cast<double>(s.grid_nonempty_cells)},
      {"grid_total_cells", static_cast<double>(s.grid_total_cells)},
      {"query_groups", static_cast<double>(s.query_groups)},
      {"cache_hit_rate", s.metrics.cache_hit_rate()},
      {"cache_bw_gbs", s.metrics.cache_bw_gbs},
      {"metrics_seconds", s.metrics_seconds},
      {"occupancy", s.occupancy},
      {"regs_per_thread", static_cast<double>(s.regs_per_thread)},
  };
  return out;
}

class GpuBackend final : public api::Backend {
 public:
  GpuBackend(std::string name, std::string description, bool unicomp)
      : name_(std::move(name)),
        description_(std::move(description)),
        unicomp_(unicomp) {}

  std::string_view name() const override { return name_; }
  std::string_view description() const override { return description_; }

  api::Capabilities capabilities() const override {
    return {.supports_join = true, .supports_knn = true, .gpu = true};
  }

  api::JoinOutcome run(const Dataset& d, double eps,
                       const api::RunConfig& config) const override {
    config.check_keys(name_, kGpuKeys);
    reject_threads(name_, config);
    api::check_result_mode(name_, config, /*supports_sink=*/true);
    GpuSelfJoinOptions opt;
    opt.unicomp = unicomp_;
    opt.layout = parse_layout(config);
    opt.collect_metrics = config.collect_metrics;
    opt.mode = config.mode;
    opt.sink = config.sink;
    apply_gpu_batch_knobs(config, opt);
    exec::ExecControl ctl;
    apply_deadline(config, opt, ctl);

    auto out = make_gpu_outcome(GpuSelfJoin(opt).run(d, eps));
    out.stats.native["layout_cell_major"] =
        opt.layout == GridLayout::kCellMajor ? 1.0 : 0.0;
    return out;
  }

  api::JoinOutcome join(const Dataset& queries, const Dataset& data,
                        double eps,
                        const api::RunConfig& config) const override {
    config.check_keys(name_, kGpuKeys);
    reject_threads(name_, config);
    api::check_result_mode(name_, config, /*supports_sink=*/true);
    GpuJoinOptions opt;
    opt.layout = parse_layout(config);
    opt.mode = config.mode;
    opt.sink = config.sink;
    apply_gpu_batch_knobs(config, opt);
    exec::ExecControl ctl;
    apply_deadline(config, opt, ctl);

    auto out = make_gpu_outcome(gpu_join(queries, data, eps, opt));
    out.stats.native["layout_cell_major"] =
        opt.layout == GridLayout::kCellMajor ? 1.0 : 0.0;
    return out;
  }

  api::KnnOutcome knn(const Dataset& queries, const Dataset& data, int k,
                      const api::RunConfig& config) const override {
    return run_knn_facet(&queries, data, k, config);
  }

  api::KnnOutcome self_knn(const Dataset& d, int k,
                           const api::RunConfig& config) const override {
    return run_knn_facet(nullptr, d, k, config);
  }

 private:
  api::KnnOutcome run_knn_facet(const Dataset* queries, const Dataset& data,
                                int k, const api::RunConfig& config) const {
    config.check_keys(name_, "block_size,cell_width,include_self,deadline_ms");
    reject_threads(name_, config);
    KnnOptions opt;
    opt.k = k;
    opt.block_size = positive_int(config, "block_size", opt.block_size);
    opt.cell_width = config.number("cell_width", opt.cell_width);
    if (opt.cell_width < 0.0) {
      throw std::invalid_argument(
          "option 'cell_width' must be >= 0 (0 picks a density-based "
          "width)");
    }
    // include_self only affects the self mode (gpu_knn ignores it for a
    // distinct query set, see core/knn.hpp).
    opt.include_self = config.flag("include_self", opt.include_self);
    exec::ExecControl ctl;
    apply_deadline(config, opt, ctl);

    KnnResult r = queries != nullptr ? gpu_knn(*queries, data, opt)
                                     : gpu_knn(data, opt);
    api::KnnOutcome out;
    const KnnStats& s = r.stats;
    out.neighbors = std::move(static_cast<NeighborLists&>(r));
    out.stats.seconds = s.total_seconds;
    out.stats.total_seconds = s.total_seconds;
    out.stats.build_seconds = s.index_build_seconds;
    out.stats.distance_calcs = s.metrics.distance_calcs;
    out.stats.native = {
        {"index_build_seconds", s.index_build_seconds},
        {"chosen_cell_width", s.chosen_cell_width},
        {"rings_expanded", static_cast<double>(s.rings_expanded)},
        {"kernel_seconds", s.metrics.kernel_seconds},
    };
    return out;
  }

  std::string name_;
  std::string description_;
  bool unicomp_;
};

class GpuShardBackend final : public api::Backend {
 public:
  std::string_view name() const override { return "gpu_shard"; }
  std::string_view description() const override {
    return "GPU-SJ sharded across K simulated devices (over-decomposed "
           "cell-range chunklets with a one-cell halo, per-device stream "
           "pools, work-stealing chunklet scheduler)";
  }

  api::Capabilities capabilities() const override {
    // kNN stays gated off until the shard engine grows a kNN facet.
    return {.supports_join = true, .gpu = true};
  }

  api::JoinOutcome run(const Dataset& d, double eps,
                       const api::RunConfig& config) const override {
    config.check_keys(name(), kShardKeys);
    reject_threads(name(), config);
    // The shard pipelines run concurrently, so gpu_shard cannot stream
    // batches in the global deterministic order: no sink mode.
    api::check_result_mode(name(), config, /*supports_sink=*/false);
    ShardedSelfJoinOptions opt = parse_shard_options(config);
    opt.collect_metrics = config.collect_metrics;

    auto r = ShardedGpuSelfJoin(opt).run(d, eps);
    const ShardedRunStats shard = std::move(r.shard);
    auto out = make_gpu_outcome(std::move(r));
    append_shard_stats(out.stats.native, shard, opt);
    return out;
  }

  api::JoinOutcome join(const Dataset& queries, const Dataset& data,
                        double eps,
                        const api::RunConfig& config) const override {
    config.check_keys(name(), kShardKeys);
    reject_threads(name(), config);
    api::check_result_mode(name(), config, /*supports_sink=*/false);
    const ShardedSelfJoinOptions opt = parse_shard_options(config);

    auto r = sharded_join(queries, data, eps, opt);
    const ShardedRunStats shard = std::move(r.shard);
    auto out = make_gpu_outcome(std::move(r));
    append_shard_stats(out.stats.native, shard, opt);
    return out;
  }

 private:
  static constexpr std::string_view kShardKeys =
      "shards,schedule,chunklets,num_streams,unicomp,block_size,"
      "min_batches,max_buffer_pairs,faults,retries,backoff_ms";

  static ShardedSelfJoinOptions parse_shard_options(
      const api::RunConfig& config) {
    ShardedSelfJoinOptions opt;
    opt.unicomp = config.flag("unicomp", false);
    opt.mode = config.mode;
    apply_gpu_batch_knobs(config, opt);
    opt.shards = positive_int(config, "shards", opt.shards);
    const std::string schedule = config.text("schedule", "concurrent");
    if (schedule == "concurrent") {
      opt.schedule = ShardSchedule::kConcurrent;
    } else if (schedule == "steal") {
      opt.schedule = ShardSchedule::kSteal;
    } else {
      throw std::invalid_argument(
          "option 'schedule' must be 'concurrent' or 'steal'");
    }
    opt.chunklets = config.integer("chunklets", opt.chunklets);
    if (opt.chunklets < 0) {
      throw std::invalid_argument(
          "option 'chunklets' must be >= 0 (0 = auto: 12 per device)");
    }
    return opt;
  }

  /// The per-device balance block (what sjtool --stats renders as the
  /// shard balance table) plus the modelled multi-device timings.
  static void append_shard_stats(std::map<std::string, double>& native,
                                 const ShardedRunStats& shard,
                                 const ShardedSelfJoinOptions& opt) {
    native["shards"] = static_cast<double>(shard.shards);
    native["schedule_concurrent"] =
        opt.schedule == ShardSchedule::kConcurrent ? 1.0 : 0.0;
    native["chunklets"] = static_cast<double>(shard.chunklets_total);
    native["chunklets_stolen"] =
        static_cast<double>(shard.chunklets_stolen);
    native["common_seconds"] = shard.common_seconds;
    native["makespan_seconds"] = shard.makespan_seconds;
    native["busy_sum_seconds"] = shard.busy_sum_seconds;
    native["shards_failed_over"] =
        static_cast<double>(shard.shards_failed_over);
    native["recovery_seconds"] = shard.recovery_seconds;
    for (std::size_t s = 0; s < shard.per_shard.size(); ++s) {
      const ShardStats& ss = shard.per_shard[s];
      const std::string p = "shard" + std::to_string(s) + "_";
      native[p + "cells"] = static_cast<double>(ss.units);
      native[p + "weight"] = static_cast<double>(ss.weight);
      native[p + "points"] = static_cast<double>(ss.owned_points);
      native[p + "halo_points"] = static_cast<double>(ss.halo_points);
      native[p + "pairs"] = static_cast<double>(ss.pairs);
      native[p + "chunklets"] = static_cast<double>(ss.chunklets);
      native[p + "stolen"] = static_cast<double>(ss.stolen);
      native[p + "steal_seconds"] = ss.steal_seconds;
      native[p + "seconds"] = ss.seconds;
      native[p + "device"] = static_cast<double>(ss.device);
      native[p + "failed_over"] = ss.failed_over ? 1.0 : 0.0;
    }
  }
};

class GpuBruteForceBackend final : public api::Backend {
 public:
  std::string_view name() const override { return "gpu_bf"; }
  std::string_view description() const override {
    return "GPU brute-force nested-loop kernel (eps-independent lower "
           "bound, Section VI-B)";
  }

  api::Capabilities capabilities() const override { return {.gpu = true}; }

  api::JoinOutcome run(const Dataset& d, double eps,
                       const api::RunConfig& config) const override {
    config.check_keys(name(), "block_size");
    reject_threads(name(), config);
    api::check_result_mode(name(), config, /*supports_sink=*/true);
    // mode=count is the paper's lower-bound measurement: the bufferless
    // kernel keeps no pair buffer in device memory, and the count is
    // reported in native["num_pairs"]. Histogram and sink reduce from the
    // materialised pairs.
    auto r = gpu_brute_force(d, eps, config.mode != ResultMode::kCountOnly,
                             positive_int(config, "block_size", 256));
    api::JoinOutcome out;
    api::finalize_outcome(out, std::move(r.pairs), config, d.size());
    out.total_pairs = r.num_pairs;
    // Paper convention: the brute-force measurement is the kernel only.
    out.stats.seconds = r.kernel_seconds;
    out.stats.total_seconds = r.kernel_seconds;
    out.stats.distance_calcs = r.distance_calcs;
    out.stats.native = {
        {"kernel_seconds", r.kernel_seconds},
        {"num_pairs", static_cast<double>(r.num_pairs)},
    };
    return out;
  }
};

}  // namespace

void register_gpu(api::BackendRegistry& registry) {
  registry.add(std::make_unique<GpuBackend>(
      "gpu", "GPU-SJ grid-index self-join (Algorithm 1), UNICOMP off",
      /*unicomp=*/false));
  registry.add(std::make_unique<GpuBackend>(
      "gpu_unicomp",
      "GPU-SJ with the UNICOMP duplicate-search removal (Section V-B)",
      /*unicomp=*/true));
  registry.add(std::make_unique<GpuShardBackend>());
  registry.add(std::make_unique<GpuBruteForceBackend>());
}

}  // namespace sj::backends
