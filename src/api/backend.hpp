// Unified, operation-generic backend interface.
//
// Every engine in this repo (the paper's GPU-SJ with and without UNICOMP,
// the Super-EGO and R-tree CPU baselines, and the brute-force references)
// is exposed through one abstract interface so that callers — sjtool, the
// bench harness, the examples, DBSCAN — dispatch by registry name instead
// of hard-coding engine types. Beyond the mandatory self-join, a backend
// may implement the two optional operation facets it advertises through
// Capabilities: the query/data epsilon join and grid-based kNN.
//
// Self-join pair convention (uniform across ALL backends, asserted once
// by the backend-parity test suite): the result is the set of ORDERED
// pairs (a, b) with dist(a, b) <= eps, INCLUDING self pairs (a, a). Every
// correct result is therefore symmetric and has size >= |D|.
//
// Query/data join convention: pairs are (query index into `queries`,
// data index into `data`) with dist <= eps — NOT symmetric, no implicit
// self pairs (a query coinciding with a data point matches it like any
// other point within eps).
//
// kNN convention: lists are in query order, ascending by distance, and
// may be shorter than k when fewer candidates exist. Self-kNN excludes
// each point from its own list unless the backend's include_self knob is
// set; two-set kNN never excludes anything (an exact coordinate duplicate
// is a legitimate neighbour).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "common/dataset.hpp"
#include "common/neighbors.hpp"
#include "common/result.hpp"

namespace sj::api {

/// The operations a backend may serve. kSelfJoin is mandatory; the other
/// facets are gated by Capabilities and fail with a one-line error
/// listing the capable backends when invoked on an engine without them.
enum class Operation { kSelfJoin, kJoin, kKnn };

/// Lowercase human name of an operation ("self-join", "join", "knn").
std::string_view operation_name(Operation op);

/// What a backend can do beyond the mandatory self-join.
struct Capabilities {
  bool supports_join = false;  ///< two-dataset (query vs data) join
  bool supports_knn = false;   ///< grid-based kNN extension
  bool gpu = false;            ///< runs on the (simulated) GPU

  bool supports(Operation op) const {
    switch (op) {
      case Operation::kJoin: return supports_join;
      case Operation::kKnn: return supports_knn;
      case Operation::kSelfJoin: return true;
    }
    return false;
  }
};

/// Compact capability tag list for --help style output and error
/// messages, e.g. "self-join, join, knn, gpu".
std::string capability_summary(const Capabilities& caps);

/// The one-line "backend 'x' does not support OP; backends with OP: ..."
/// message — shared by the default facet implementations and
/// BackendRegistry::at(name, op) so the two gating paths cannot drift.
std::string unsupported_operation_message(std::string_view backend_name,
                                          Operation op);

/// Engine-agnostic run configuration. Common knobs are typed; anything
/// engine-specific travels in `extra` as string key/values (e.g.
/// {"use_float", "1"} for the Super-EGO 32-bit mode or {"block_size",
/// "128"} for the GPU kernel). Backends reject unknown keys so typos
/// surface instead of silently running defaults.
struct RunConfig {
  /// Worker threads for CPU engines; 0 keeps the engine default, a
  /// negative value requests all hardware threads. Backends without host
  /// threading (gpu, gpu_unicomp, gpu_bf, rtree) reject non-zero values
  /// rather than silently ignoring them.
  int threads = 0;

  /// Collect the expensive Table II-style kernel metrics (GPU engines).
  bool collect_metrics = false;

  /// What to materialise (see ResultMode). kPairs fills JoinOutcome::pairs
  /// as before; kCountOnly/kHistogram skip pair buffers entirely and fill
  /// only total_pairs / histogram; kSink streams the output's batches,
  /// in order, through `sink`. Every backend honors
  /// kPairs/kCountOnly/kHistogram; kSink is gated per backend and throws a
  /// one-line error where unsupported.
  ResultMode mode = ResultMode::kPairs;

  /// Batch consumer for ResultMode::kSink (required in that mode).
  PairSink sink;

  /// Engine-specific knobs; see each backend's adapter for its key set.
  std::map<std::string, std::string> extra;

  // Typed accessors for `extra` (missing key -> `def`).
  bool flag(const std::string& key, bool def) const;
  int integer(const std::string& key, int def) const;
  double number(const std::string& key, double def) const;
  std::string text(const std::string& key, std::string def) const;

  /// Throws std::invalid_argument if `extra` contains a key outside
  /// `allowed` (a comma-separated list), naming the offending key and the
  /// backend. Adapters call this first.
  void check_keys(std::string_view backend, std::string_view allowed) const;
};

/// Normalised execution statistics. The typed fields mean the same thing
/// for every backend; `native` preserves each engine's own stats block
/// (flattened to name -> value) so nothing the engines report is lost in
/// the adaptation.
struct BackendStats {
  /// The time the paper reports for this engine: total response time for
  /// GPU-SJ, query phase only for the R-tree, ego-sort + join for
  /// Super-EGO, kernel time for the GPU brute force.
  double seconds = 0.0;

  /// End-to-end time including index/sort construction.
  double total_seconds = 0.0;

  /// Index build / sort phase, when the engine has one.
  double build_seconds = 0.0;

  /// Candidate distance evaluations — the hardware-independent work count.
  std::uint64_t distance_calcs = 0;

  /// Engine-native stats, e.g. "occupancy" or "batches_run" for GPU-SJ,
  /// "tree_height" for the R-tree, "sequence_pairs_pruned" for Super-EGO.
  std::map<std::string, double> native;

  /// Lookup in `native` with a default for absent entries.
  double native_value(const std::string& key, double def = 0.0) const {
    const auto it = native.find(key);
    return it == native.end() ? def : it->second;
  }
};

/// What a join-shaped run produces. `pairs` is filled only in
/// ResultMode::kPairs; `total_pairs` is the exact pair count in EVERY
/// mode; `histogram` (per-point neighbour counts, self pairs included) is
/// filled only in kHistogram. In kSink the pairs travel through
/// RunConfig::sink instead.
struct JoinOutcome {
  ResultSet pairs;
  std::uint64_t total_pairs = 0;
  std::vector<std::uint32_t> histogram;
  BackendStats stats;
};

/// Validates RunConfig::mode for a backend: rejects kSink when the
/// backend does not stream (one-line error naming the backend, mirroring
/// the operation-gating style) and rejects kSink without a sink callback.
void check_result_mode(std::string_view backend, const RunConfig& config,
                       bool supports_sink);

/// Reduces a fully materialised pair set into the requested mode: sets
/// total_pairs in every mode, moves the pairs in only in kPairs, builds
/// the per-point histogram (ids < n_keys) in kHistogram, and streams the
/// whole set as one batch in kSink. The CPU baselines use this — they
/// compute the pairs anyway, so non-pairs modes save interface memory,
/// not work.
void finalize_outcome(JoinOutcome& out, ResultSet pairs,
                      const RunConfig& config, std::size_t n_keys);

/// What a kNN run produces: the neighbour lists plus the normalised
/// stats (engine-native counters like rings_expanded travel in native).
struct KnnOutcome {
  NeighborLists neighbors;
  BackendStats stats;
};

/// Abstract engine. Implementations are stateless adapters over the
/// concrete engines; register them via BackendRegistry (registry.hpp).
/// The self-join is mandatory; join/knn/self_knn have default
/// implementations that throw the capability error, so engines override
/// exactly the facets their Capabilities advertise.
class Backend {
 public:
  virtual ~Backend() = default;

  /// Registry key, e.g. "gpu_unicomp". Lowercase, stable.
  virtual std::string_view name() const = 0;

  /// One-line human description for --help style listings.
  virtual std::string_view description() const = 0;

  virtual Capabilities capabilities() const = 0;

  /// Compute the full self-join of `d` with threshold eps >= 0.
  virtual JoinOutcome run(const Dataset& d, double eps,
                          const RunConfig& config) const = 0;

  /// Query/data epsilon join: every (a, b) with a in `queries`, b in
  /// `data`, dist <= eps, as (query index, data index) pairs. Gated by
  /// Capabilities::supports_join; the default throws the one-line
  /// capability error listing the backends that can serve it.
  virtual JoinOutcome join(const Dataset& queries, const Dataset& data,
                           double eps, const RunConfig& config) const;

  /// For every point of `queries`, its k nearest neighbours in `data`.
  /// Gated by Capabilities::supports_knn.
  virtual KnnOutcome knn(const Dataset& queries, const Dataset& data, int k,
                         const RunConfig& config) const;

  /// Self-kNN: neighbours of every point of `d` within `d`, the point
  /// itself excluded (backends may offer an include_self knob). Gated by
  /// Capabilities::supports_knn.
  virtual KnnOutcome self_knn(const Dataset& d, int k,
                              const RunConfig& config) const;

  JoinOutcome run(const Dataset& d, double eps) const {
    return run(d, eps, RunConfig{});
  }
  JoinOutcome join(const Dataset& queries, const Dataset& data,
                   double eps) const {
    return join(queries, data, eps, RunConfig{});
  }
  KnnOutcome knn(const Dataset& queries, const Dataset& data, int k) const {
    return knn(queries, data, k, RunConfig{});
  }
  KnnOutcome self_knn(const Dataset& d, int k) const {
    return self_knn(d, k, RunConfig{});
  }
};

}  // namespace sj::api
