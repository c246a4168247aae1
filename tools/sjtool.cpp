// sjtool — command-line driver for the library: generate Table I
// datasets, inspect files, and run any of the join/kNN implementations on
// binary (.sjd) or CSV point files.
//
//   sjtool gen      --dataset Syn2D2M [--scale 1.0] --out points.sjd
//   sjtool info     --in points.sjd
//   sjtool selfjoin --in points.sjd --eps 2.0 [--algo gpu_unicomp]
//                   [--pairs-out pairs.csv] [--counts-out counts.csv]
//   sjtool join     --in queries.sjd --data data.sjd --eps 1.0 [--algo gpu]
//   sjtool knn      --in points.sjd --k 8 [--data data.sjd] [--algo gpu]
//                   [--out knn.csv]
//
// Every operation dispatches through sj::api::BackendRegistry: --algo
// accepts any registered backend; picking one without the operation's
// capability fails with a one-line error listing the capable backends.
// Formats are chosen by extension: .sjd binary, anything else CSV.
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/registry.hpp"
#include "api/session.hpp"
#include "common/cancel.hpp"
#include "common/contracts.hpp"
#include "common/fault.hpp"
#include "common/csv.hpp"
#include "common/datasets.hpp"
#include "common/io.hpp"
#include "common/parse.hpp"
#include "common/timer.hpp"

namespace {

using sj::Dataset;

[[noreturn]] void usage(const std::string& msg = {}) {
  if (!msg.empty()) std::cerr << "error: " << msg << "\n\n";
  std::cerr <<
      "usage:\n"
      "  sjtool gen      --dataset NAME [--scale S] --out FILE\n"
      "  sjtool info     --in FILE\n"
      "  sjtool selfjoin --in FILE --eps E [--algo A] [--threads N]\n"
      "                  [--opt k=v[,k=v...]] [--mode pairs|count|histogram]\n"
      "                  [--stats 1] [--validate 1]\n"
      "                  [--pairs-out F] [--counts-out F]\n"
      "  sjtool join     --in QUERIES --data DATA --eps E [--algo A]\n"
      "                  [--threads N] [--opt ...]\n"
      "                  [--mode pairs|count|histogram] [--stats 1]\n"
      "                  [--validate 1] [--pairs-out F]\n"
      "  sjtool knn      --in FILE --k K [--data DATA] [--algo A]\n"
      "                  [--threads N] [--opt ...] [--stats 1]\n"
      "                  [--validate 1] [--out F]\n"
      "  sjtool serve    --in FILE --eps E [--snapshot F] [--workers N]\n"
      "                  [--clients N] [--queries N] [--deadline-ms D]\n"
      "                  [--cancel-frac F] [--mix 1] [--mode pairs|count]\n"
      "                  [--queue-depth N] [--max-age-ms A] [--coalesce N]\n"
      "                  [--faults SPEC] [--stats 1] [--json F]\n"
      "serve stages the grid index once (warm from --snapshot when it\n"
      "validates) and drives concurrent client traffic through the\n"
      "QuerySession admission queue; --stats prints the deadline / shed /\n"
      "cancel counter line and latency percentiles.\n"
      "selfjoin/join/knn accept --deadline-ms D: the run fails with a typed\n"
      "DeadlineExceeded (exit 3) at the next pipeline checkpoint once D ms\n"
      "have elapsed end-to-end.\n"
      "selfjoin/join also accept fault-tolerance flags (GPU backends):\n"
      "  --faults SPEC    arm the deterministic fault injector (needs a\n"
      "                   -DSJ_FAULTS=ON build); "
   << sj::fault::spec_grammar() << "\n"
   << "  --retries N      transient-fault retries per batch (default 6)\n"
      "  --backoff-ms B   base retry backoff in ms, doubling per attempt\n"
      "--validate 1 force-enables the structural validators (grid, "
      "adjacency,\nshard plan, pipeline) even in release builds; --stats "
      "then reports the\ntime spent validating.\n"
      "algorithms (selfjoin defaults to gpu_unicomp, join/knn to gpu): ";
  for (const auto& name : sj::api::BackendRegistry::instance().names()) {
    std::cerr << name << " ";
  }
  std::cerr << "\ndatasets for gen: ";
  for (const auto& i : sj::datasets::all()) std::cerr << i.name << " ";
  std::cerr << "\n";
  std::exit(2);
}

/// The multi-line backend listing printed for an unknown --algo: every
/// registered name with its capability tags, so the user can see at a
/// glance which engines serve selfjoin/join/knn (and which are GPU).
void print_backends(std::ostream& os) {
  const auto& registry = sj::api::BackendRegistry::instance();
  os << "registered backends:\n";
  for (const auto& name : registry.names()) {
    const auto& backend = registry.at(name);
    os << "  " << name << "  ["
       << sj::api::capability_summary(backend.capabilities()) << "]  — "
       << backend.description() << "\n";
  }
  for (const auto& alias : registry.aliases()) {
    os << "  " << alias << " (alias)\n";
  }
}

std::map<std::string, std::string> parse_flags(int argc, char** argv,
                                               int start) {
  std::map<std::string, std::string> flags;
  for (int i = start; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) usage("unexpected argument " + arg);
    if (i + 1 >= argc) usage("missing value for " + arg);
    flags[arg.substr(2)] = argv[++i];
  }
  return flags;
}

std::string require(const std::map<std::string, std::string>& flags,
                    const std::string& key) {
  const auto it = flags.find(key);
  if (it == flags.end()) usage("missing --" + key);
  return it->second;
}

bool is_binary_path(const std::string& path) {
  return path.size() > 4 && path.substr(path.size() - 4) == ".sjd";
}

Dataset load_any(const std::string& path) {
  return is_binary_path(path) ? sj::io::load_binary(path)
                              : sj::io::load_csv(path);
}

void save_any(const Dataset& d, const std::string& path) {
  if (is_binary_path(path)) {
    sj::io::save_binary(d, path);
  } else {
    sj::io::save_csv(d, path);
  }
}

void write_pairs_csv(const sj::ResultSet& pairs, const std::string& path) {
  sj::csv::Table t({"key", "value"});
  for (const auto& p : pairs.pairs()) {
    t.add_row({std::to_string(p.key), std::to_string(p.value)});
  }
  t.write(path);
}

int cmd_gen(const std::map<std::string, std::string>& flags) {
  const std::string name = require(flags, "dataset");
  const double scale =
      flags.count("scale") ? sj::parse::positive_number("--scale",
                                                        flags.at("scale"))
                           : 1.0;
  const std::string out = require(flags, "out");
  const Dataset d = sj::datasets::make(name, scale);
  save_any(d, out);
  std::cout << "wrote " << d.size() << " points (" << d.dim() << "-D) to "
            << out << "\n";
  return 0;
}

int cmd_info(const std::map<std::string, std::string>& flags) {
  const Dataset d = load_any(require(flags, "in"));
  std::cout << "points: " << d.size() << "\ndim:    " << d.dim() << "\n";
  const auto lo = d.min_bound();
  const auto hi = d.max_bound();
  for (int j = 0; j < d.dim(); ++j) {
    std::cout << "dim " << j << ":  [" << lo[j] << ", " << hi[j] << "]\n";
  }
  return 0;
}

/// Parse "--opt k=v,k2=v2" into RunConfig::extra.
void parse_opts(const std::string& spec, sj::api::RunConfig& config) {
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string item = spec.substr(pos, comma - pos);
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0) {
      usage("--opt entries must look like key=value, got '" + item + "'");
    }
    config.extra[item.substr(0, eq)] = item.substr(eq + 1);
    pos = comma + 1;
  }
}

/// Resolve --algo against the registry; prints the capability listing and
/// returns nullptr for an unknown name (the caller exits 2).
const sj::api::Backend* resolve_algo(
    const std::map<std::string, std::string>& flags,
    const std::string& default_algo) {
  const std::string algo =
      flags.count("algo") ? flags.at("algo") : default_algo;
  const sj::api::Backend* backend =
      sj::api::BackendRegistry::instance().find(algo);
  if (backend == nullptr) {
    std::cerr << "error: unknown algorithm '" << algo << "'\n";
    print_backends(std::cerr);
  }
  return backend;
}

/// The --threads/--opt/--mode/--stats plumbing shared by selfjoin, join
/// and knn. --mode is strict: an unknown value fails with the error from
/// parse_result_mode listing the known modes, and 'sink' — valid in the
/// API, where a callback can be supplied — is rejected here.
sj::api::RunConfig make_config(const std::map<std::string, std::string>& flags,
                               const sj::api::Backend& backend,
                               bool& show_stats) {
  sj::api::RunConfig config;
  if (flags.count("threads")) {
    config.threads = sj::parse::integer("--threads", flags.at("threads"));
  }
  if (flags.count("opt")) parse_opts(flags.at("opt"), config);
  // Fault-tolerance flags are sugar for the GPU backends' --opt knobs:
  // --faults arms the process-wide injector immediately (so a bad spec or
  // a faults-compiled-out build fails before any data is loaded), while
  // --retries/--backoff-ms ride through RunConfig::extra like any knob.
  if (flags.count("faults")) {
    sj::fault::configure_from_text(flags.at("faults"));
  }
  if (flags.count("retries")) config.extra["retries"] = flags.at("retries");
  if (flags.count("backoff-ms")) {
    config.extra["backoff_ms"] = flags.at("backoff-ms");
  }
  // --deadline-ms is sugar for the GPU adapters' deadline_ms knob: an
  // end-to-end budget enforced at the pipeline's checkpoint seams.
  if (flags.count("deadline-ms")) {
    config.extra["deadline_ms"] = flags.at("deadline-ms");
  }
  if (flags.count("mode")) {
    config.mode = sj::parse_result_mode(flags.at("mode"));
    if (config.mode == sj::ResultMode::kSink) {
      throw std::invalid_argument(
          "--mode sink needs an in-process callback; sjtool modes: pairs, "
          "count, histogram");
    }
  }
  show_stats = flags.count("stats") && flags.at("stats") != "0";
  config.collect_metrics = show_stats && backend.capabilities().gpu;
  // Force the structural validators on even when the build compiled the
  // contract macros out (the cheap runtime subset of SJ_VALIDATE=ON).
  if (flags.count("validate") && flags.at("validate") != "0") {
    sj::contracts::set_runtime_checks(true);
  }
  return config;
}

/// --stats line for --validate runs: wall time spent inside the
/// structural validators, so the checking overhead is visible next to
/// the join time it inflates.
void print_validation_time() {
  if (!sj::contracts::active()) return;
  std::cout << "validation: " << sj::contracts::validation_seconds()
            << " s\n";
}

/// Pair throughput line for --stats: exact count in every result mode.
void print_pair_rate(std::uint64_t total_pairs, double seconds) {
  if (seconds <= 0.0) return;
  std::cout << "pairs/sec: " << static_cast<double>(total_pairs) / seconds
            << "\n";
}

/// The per-device balance table for --algo gpu_shard: one row per device
/// slot (cells/groups, weighted work share, points incl. halo, pairs,
/// chunklets run / stolen and the busy time spent on stolen ones, device
/// busy seconds), so load skew — and how much of it stealing absorbed —
/// is diagnosable straight from the CLI.
void print_shard_balance(const sj::api::BackendStats& stats) {
  const auto shards =
      static_cast<std::size_t>(stats.native_value("shards"));
  if (shards == 0) return;
  double total_weight = 0.0;
  for (std::size_t s = 0; s < shards; ++s) {
    total_weight +=
        stats.native_value("shard" + std::to_string(s) + "_weight");
  }
  const char* schedule =
      stats.native_value("schedule_concurrent") != 0.0 ? "concurrent"
                                                       : "steal";
  std::cout << "shard balance (" << shards << " devices, "
            << stats.native_value("chunklets") << " chunklets, " << schedule
            << " schedule):\n"
            << "  shard      cells    weight%     points       halo"
               "      pairs  chunklets  stolen    steal_s    seconds"
               "  device\n";
  for (std::size_t s = 0; s < shards; ++s) {
    const std::string p = "shard" + std::to_string(s) + "_";
    const double weight = stats.native_value(p + "weight");
    const bool failed_over = stats.native_value(p + "failed_over") != 0.0;
    char line[224];
    std::snprintf(line, sizeof(line),
                  "  %5zu %10.0f %9.1f%% %10.0f %10.0f %10.0f %10.0f %7.0f "
                  "%10.6f %10.6f %5.0f%s\n",
                  s, stats.native_value(p + "cells"),
                  total_weight > 0.0 ? 100.0 * weight / total_weight : 0.0,
                  stats.native_value(p + "points"),
                  stats.native_value(p + "halo_points"),
                  stats.native_value(p + "pairs"),
                  stats.native_value(p + "chunklets"),
                  stats.native_value(p + "stolen"),
                  stats.native_value(p + "steal_seconds"),
                  stats.native_value(p + "seconds"),
                  stats.native_value(p + "device"),
                  failed_over ? "  (failed over)" : "");
    std::cout << line;
  }
  std::cout << "  makespan: " << stats.native_value("makespan_seconds")
            << " s (common " << stats.native_value("common_seconds")
            << " s + slowest device; device busy total "
            << stats.native_value("busy_sum_seconds") << " s)\n";
  const double stolen = stats.native_value("chunklets_stolen");
  if (stolen > 0.0) {
    std::cout << "  stealing: " << stolen
              << " chunklet(s) run off a foreign deque\n";
  }
  const double failed = stats.native_value("shards_failed_over");
  if (failed > 0.0) {
    std::cout << "  failover: " << failed
              << " shard(s) re-planned onto surviving devices ("
              << stats.native_value("recovery_seconds")
              << " s spent on re-runs)\n";
  }
}

// Validated before the join runs so a bad flag combination fails fast
// instead of after the (possibly long) computation.
void check_pairs_out_mode(const std::map<std::string, std::string>& flags,
                          const sj::api::RunConfig& config) {
  if (flags.count("pairs-out") && config.mode != sj::ResultMode::kPairs) {
    throw std::invalid_argument(
        "--pairs-out needs --mode pairs (no pair set is materialised in "
        "mode '" +
        std::string(sj::result_mode_name(config.mode)) + "')");
  }
}

void print_native_stats(const sj::api::Backend& backend,
                        const sj::api::BackendStats& stats) {
  const bool shard_table = stats.native.count("shards") != 0;
  if (shard_table) print_shard_balance(stats);
  if (stats.native.empty()) return;
  std::cout << "native stats [" << backend.name() << "]:\n";
  for (const auto& [key, value] : stats.native) {
    // The per-shard counters are already rendered as the balance table.
    if (shard_table && key.rfind("shard", 0) == 0) continue;
    std::cout << "  " << key << ": " << value << "\n";
  }
  if (sj::fault::enabled()) {
    std::cout << "fault injection: " << sj::fault::injected_total()
              << " fault(s) injected (alloc "
              << sj::fault::injected(sj::fault::Site::kAlloc) << ", stream "
              << sj::fault::injected(sj::fault::Site::kStream) << ", sync "
              << sj::fault::injected(sj::fault::Site::kSync) << "), "
              << sj::fault::devices_lost() << " device(s) lost\n";
  }
}

int cmd_selfjoin(const std::map<std::string, std::string>& flags) {
  const Dataset d = load_any(require(flags, "in"));
  const double eps = sj::parse::positive_number("--eps", require(flags, "eps"));
  const sj::api::Backend* backend = resolve_algo(flags, "gpu_unicomp");
  if (backend == nullptr) return 2;
  const std::string algo(backend->name());

  bool show_stats = false;
  sj::api::RunConfig config = make_config(flags, *backend, show_stats);
  check_pairs_out_mode(flags, config);

  auto outcome = backend->run(d, eps, config);
  sj::ResultSet pairs = std::move(outcome.pairs);
  const double seconds = outcome.stats.seconds;

  std::cout << "distance calcs: " << outcome.stats.distance_calcs;
  if (outcome.stats.build_seconds > 0.0) {
    std::cout << "  build/sort: " << outcome.stats.build_seconds << " s";
  }
  std::cout << "\n";
  if (show_stats) print_native_stats(*backend, outcome.stats);

  // total_pairs is exact in every mode; the pair set exists only under
  // --mode pairs.
  const double n = static_cast<double>(d.size());
  std::cout << "pairs:   " << outcome.total_pairs << " (incl. self pairs)\n"
            << "avg nbr: "
            << (d.empty() ? 0.0
                          : static_cast<double>(outcome.total_pairs) / n)
            << "\n"
            << "time:    " << seconds << " s  [" << algo << "]\n";
  if (show_stats) {
    print_pair_rate(outcome.total_pairs, seconds);
    print_validation_time();
  }
  if (flags.count("pairs-out")) {
    pairs.normalize();
    write_pairs_csv(pairs, flags.at("pairs-out"));
    std::cout << "pairs written to " << flags.at("pairs-out") << "\n";
  }
  if (flags.count("counts-out")) {
    if (config.mode == sj::ResultMode::kCountOnly) {
      throw std::invalid_argument(
          "--counts-out needs per-point counts; use --mode histogram (or "
          "pairs)");
    }
    const auto counts = config.mode == sj::ResultMode::kHistogram
                            ? outcome.histogram
                            : pairs.counts_per_key(d.size());
    sj::csv::Table t({"point", "neighbors"});
    for (std::size_t i = 0; i < counts.size(); ++i) {
      t.add_row({std::to_string(i), std::to_string(counts[i])});
    }
    t.write(flags.at("counts-out"));
    std::cout << "counts written to " << flags.at("counts-out") << "\n";
  }
  return 0;
}

int cmd_join(const std::map<std::string, std::string>& flags) {
  const Dataset a = load_any(require(flags, "in"));
  const Dataset b = load_any(require(flags, "data"));
  const double eps = sj::parse::positive_number("--eps", require(flags, "eps"));
  const sj::api::Backend* backend = resolve_algo(flags, "gpu");
  if (backend == nullptr) return 2;

  bool show_stats = false;
  const sj::api::RunConfig config = make_config(flags, *backend, show_stats);
  check_pairs_out_mode(flags, config);
  // Throws the one-line capability error when the backend lacks join.
  auto outcome = backend->join(a, b, eps, config);

  std::cout << "pairs: " << outcome.total_pairs
            << "  (query, data index pairs)\n"
            << "distance calcs: " << outcome.stats.distance_calcs << "\n"
            << "time:  " << outcome.stats.seconds << " s  ["
            << backend->name() << "]\n";
  if (show_stats) {
    print_native_stats(*backend, outcome.stats);
    print_pair_rate(outcome.total_pairs, outcome.stats.seconds);
    print_validation_time();
  }
  if (flags.count("pairs-out")) {
    outcome.pairs.normalize();
    write_pairs_csv(outcome.pairs, flags.at("pairs-out"));
    std::cout << "pairs written to " << flags.at("pairs-out") << "\n";
  }
  return 0;
}

int cmd_knn(const std::map<std::string, std::string>& flags) {
  const Dataset d = load_any(require(flags, "in"));
  const int k = sj::parse::positive_integer("--k", require(flags, "k"));
  const sj::api::Backend* backend = resolve_algo(flags, "gpu");
  if (backend == nullptr) return 2;

  bool show_stats = false;
  const sj::api::RunConfig config = make_config(flags, *backend, show_stats);
  // --data switches to the two-set mode: neighbours of --in's points
  // within --data. Throws the capability error when the backend lacks knn.
  sj::api::KnnOutcome outcome;
  if (flags.count("data")) {
    const Dataset data = load_any(flags.at("data"));
    outcome = backend->knn(d, data, k, config);
  } else {
    outcome = backend->self_knn(d, k, config);
  }

  const auto& r = outcome.neighbors;
  std::cout << "queries: " << r.num_queries() << "  k: " << r.k() << "\n"
            << "time: " << outcome.stats.seconds << " s ("
            << static_cast<double>(outcome.stats.distance_calcs) /
                   static_cast<double>(
                       std::max<std::size_t>(r.num_queries(), 1))
            << " candidates/query)  [" << backend->name() << "]\n";
  if (show_stats) {
    print_native_stats(*backend, outcome.stats);
    print_validation_time();
  }
  if (flags.count("out")) {
    sj::csv::Table t({"query", "rank", "neighbor", "distance"});
    for (std::size_t q = 0; q < r.num_queries(); ++q) {
      for (int j = 0; j < r.count(q); ++j) {
        t.add_row({std::to_string(q), std::to_string(j),
                   std::to_string(r.neighbor(q, j)),
                   sj::csv::fmt(r.distance(q, j))});
      }
    }
    t.write(flags.at("out"));
    std::cout << "neighbors written to " << flags.at("out") << "\n";
  }
  return 0;
}

/// The always-on service driver: stage the index once (warm from
/// --snapshot when it validates), then hammer the QuerySession from
/// --clients threads issuing --queries range queries each, optionally
/// under per-query deadlines, client cancellations and SJ_FAULTS chaos.
/// Typed outcomes (Overloaded / DeadlineExceeded / Cancelled) are
/// expected service behaviour and keep exit status 0; only untyped
/// failures (or a crash) fail the run.
int cmd_serve(const std::map<std::string, std::string>& flags) {
  Dataset d = load_any(require(flags, "in"));
  const double eps =
      sj::parse::positive_number("--eps", require(flags, "eps"));
  if (flags.count("faults")) {
    sj::fault::configure_from_text(flags.at("faults"));
  }

  sj::api::SessionOptions so;
  if (flags.count("workers")) {
    so.workers = sj::parse::positive_integer("--workers", flags.at("workers"));
  }
  if (flags.count("queue-depth")) {
    so.max_queue_depth = static_cast<std::size_t>(
        sj::parse::positive_integer("--queue-depth", flags.at("queue-depth")));
  }
  if (flags.count("max-age-ms")) {
    so.max_queue_age_ms =
        sj::parse::positive_number("--max-age-ms", flags.at("max-age-ms"));
  }
  if (flags.count("coalesce")) {
    so.coalesce_limit = static_cast<std::size_t>(
        sj::parse::positive_integer("--coalesce", flags.at("coalesce")));
  }
  if (flags.count("snapshot")) so.snapshot = flags.at("snapshot");

  const int clients =
      flags.count("clients")
          ? sj::parse::positive_integer("--clients", flags.at("clients"))
          : 4;
  const int queries =
      flags.count("queries")
          ? sj::parse::positive_integer("--queries", flags.at("queries"))
          : 64;
  const double deadline_ms =
      flags.count("deadline-ms")
          ? sj::parse::positive_number("--deadline-ms", flags.at("deadline-ms"))
          : 0.0;
  const double cancel_frac =
      flags.count("cancel-frac")
          ? sj::parse::number("--cancel-frac", flags.at("cancel-frac"))
          : 0.0;
  if (cancel_frac < 0.0 || cancel_frac > 1.0) {
    throw std::invalid_argument("--cancel-frac must be in [0, 1]");
  }
  const bool mix = flags.count("mix") && flags.at("mix") != "0";
  bool count_only = false;
  if (flags.count("mode")) {
    const std::string& m = flags.at("mode");
    if (m == "count") {
      count_only = true;
    } else if (m != "pairs") {
      throw std::invalid_argument("serve --mode must be pairs or count");
    }
  }
  const bool show_stats = flags.count("stats") && flags.at("stats") != "0";

  sj::api::QuerySession session(std::move(d), eps, so);
  std::cout << "session up: " << session.data().size() << " points ("
            << session.data().dim() << "-D), eps " << eps << ", "
            << (session.restored_from_snapshot() ? "restored warm from "
                                                 : "built cold")
            << (session.restored_from_snapshot() ? so.snapshot : "")
            << " in " << session.stats().startup_seconds << " s\n";

  std::atomic<std::uint64_t> ok{0}, shed{0}, expired{0}, cancelled{0},
      failed{0};
  sj::Timer wall;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      const Dataset& data = session.data();
      const auto resolve = [&](auto& fut) {
        try {
          fut.get();
          ok.fetch_add(1, std::memory_order_relaxed);
        } catch (const sj::exec::Overloaded&) {
          shed.fetch_add(1, std::memory_order_relaxed);
        } catch (const sj::exec::DeadlineExceeded&) {
          expired.fetch_add(1, std::memory_order_relaxed);
        } catch (const sj::exec::Cancelled&) {
          cancelled.fetch_add(1, std::memory_order_relaxed);
        } catch (const std::exception&) {
          failed.fetch_add(1, std::memory_order_relaxed);
        }
      };
      for (int q = 0; q < queries; ++q) {
        // Deterministic query point: stride through the dataset with a
        // per-client offset so clients do not all hit the same cells.
        const std::size_t idx =
            (static_cast<std::size_t>(c) * 2654435761ULL +
             static_cast<std::size_t>(q) * 40503ULL) %
            data.size();
        std::vector<double> pt(data.pt(idx), data.pt(idx) + data.dim());
        sj::api::QueryOptions qo;
        qo.deadline_ms = deadline_ms;
        qo.count_only = count_only;
        sj::exec::CancelToken token;
        const bool do_cancel =
            cancel_frac > 0.0 &&
            static_cast<double>((q * clients + c) % 100) <
                cancel_frac * 100.0;
        if (do_cancel) qo.cancel = &token;
        if (mix && q % 8 == 7) {
          // Every 8th query is a kNN on the same point — the mixed-kind
          // traffic the admission queue interleaves with range batches.
          try {
            auto fut = session.knn(Dataset(data.dim(), pt), 4, qo);
            if (do_cancel) token.cancel();
            resolve(fut);
          } catch (const sj::exec::Overloaded&) {
            shed.fetch_add(1, std::memory_order_relaxed);
          }
          continue;
        }
        try {
          auto fut = session.range(std::move(pt), qo);
          if (do_cancel) token.cancel();
          resolve(fut);
        } catch (const sj::exec::Overloaded&) {
          shed.fetch_add(1, std::memory_order_relaxed);
        }
      }
      if (mix && c == 0) {
        // One full self-join from the first client, concurrent with the
        // range/kNN traffic of everyone else.
        try {
          auto fut = session.self_join({});
          resolve(fut);
        } catch (const sj::exec::Overloaded&) {
          shed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double seconds = wall.seconds();

  const sj::api::SessionStats st = session.stats();
  const std::uint64_t issued = ok + shed + expired + cancelled + failed;
  std::cout << "served " << issued << " queries in " << seconds << " s ("
            << (seconds > 0.0 ? static_cast<double>(ok) / seconds : 0.0)
            << " completed/s) [" << clients << " clients, "
            << std::max(1, so.workers) << " workers]\n";
  // The deadline / shed / cancel counter line — the service's vital signs.
  std::cout << "exec: admitted=" << st.admitted << " shed=" << st.shed
            << " expired=" << st.expired << " cancelled=" << st.cancelled
            << " completed=" << st.completed << " failed=" << st.failed
            << "\n";
  if (show_stats) {
    std::cout << "latency: p50=" << st.p50_ms << " ms  p99=" << st.p99_ms
              << " ms  (" << st.latency_samples << " samples)\n"
              << "coalescing: " << st.coalesced_queries
              << " range queries served by " << st.coalesced_batches
              << " shared launches\n";
    if (sj::fault::enabled()) {
      std::cout << "fault injection: " << sj::fault::injected_total()
                << " fault(s) injected, " << sj::fault::devices_lost()
                << " device(s) lost\n";
    }
  }
  if (flags.count("json")) {
    std::ostringstream js;
    js << "{\n"
       << "  \"queries\": " << issued << ",\n"
       << "  \"seconds\": " << seconds << ",\n"
       << "  \"qps\": "
       << (seconds > 0.0 ? static_cast<double>(ok) / seconds : 0.0) << ",\n"
       << "  \"admitted\": " << st.admitted << ",\n"
       << "  \"shed\": " << st.shed << ",\n"
       << "  \"expired\": " << st.expired << ",\n"
       << "  \"cancelled\": " << st.cancelled << ",\n"
       << "  \"completed\": " << st.completed << ",\n"
       << "  \"failed\": " << st.failed << ",\n"
       << "  \"p50_ms\": " << st.p50_ms << ",\n"
       << "  \"p99_ms\": " << st.p99_ms << ",\n"
       << "  \"restored_from_snapshot\": "
       << (st.restored_from_snapshot ? "true" : "false") << ",\n"
       << "  \"startup_seconds\": " << st.startup_seconds << "\n"
       << "}\n";
    sj::io::atomic_write_file(flags.at("json"), js.str());
    std::cout << "stats written to " << flags.at("json") << "\n";
  }
  return failed.load() > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string cmd = argv[1];
  const auto flags = parse_flags(argc, argv, 2);
  try {
    if (cmd == "gen") return cmd_gen(flags);
    if (cmd == "info") return cmd_info(flags);
    if (cmd == "selfjoin") return cmd_selfjoin(flags);
    if (cmd == "join") return cmd_join(flags);
    if (cmd == "knn") return cmd_knn(flags);
    if (cmd == "serve") return cmd_serve(flags);
  } catch (const sj::exec::DeadlineExceeded& e) {
    // Typed service-layer outcomes get their own exit code so scripts can
    // tell "the budget ran out" apart from "the run was wrong".
    std::cerr << "deadline exceeded: " << e.what() << "\n";
    return 3;
  } catch (const sj::exec::Cancelled& e) {
    std::cerr << "cancelled: " << e.what() << "\n";
    return 3;
  } catch (const sj::exec::Overloaded& e) {
    std::cerr << "overloaded: " << e.what() << "\n";
    return 3;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  usage("unknown command " + cmd);
}
