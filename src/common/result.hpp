// Self-join result representations.
//
// The GPU kernel emits key/value pairs (query id, neighbour id) — paper
// Section IV-E. The paper key/value-sorts each batch before transferring
// it; the exact two-pass output here needs no sort: each query's pairs
// land contiguously at offsets fixed by a count pass, in scan order
// (core/batcher.hpp). ResultSet is that pair store with helpers to
// normalise and compare results across the five algorithm
// implementations; NeighborTable is the CSR view that downstream
// applications (e.g. DBSCAN, example apps) consume.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

namespace sj {

struct Pair;

/// What a join/self-join call materialises for the caller. The expensive
/// part of a large join is the output path — counting, writing and
/// transferring Pair records — so callers that only need aggregate
/// information can opt out of it entirely.
enum class ResultMode {
  kPairs,      ///< materialise the flat (key, value) pair vector (default)
  kCountOnly,  ///< total pair count only; no result buffers at all
  kHistogram,  ///< per-point neighbour counts (includes self pairs)
  kSink,       ///< stream batches through a callback, O(batch) memory
};

/// Consumer for ResultMode::kSink. Invoked serially with consecutive
/// batches of the output in order — each query's pairs contiguous, in
/// scan order, queries ascending in the engine's unit order — so the
/// concatenation of all batches equals the pairs-mode output byte for
/// byte. The pointer is only valid during the call.
using PairSink = std::function<void(const Pair* pairs, std::size_t count)>;

/// Strict parser for the user-facing mode names ("pairs", "count",
/// "histogram", "sink"). Throws std::invalid_argument listing the known
/// modes on anything else.
inline ResultMode parse_result_mode(const std::string& s) {
  if (s == "pairs") return ResultMode::kPairs;
  if (s == "count") return ResultMode::kCountOnly;
  if (s == "histogram") return ResultMode::kHistogram;
  if (s == "sink") return ResultMode::kSink;
  throw std::invalid_argument("unknown result mode '" + s +
                              "' (known: pairs, count, histogram, sink)");
}

/// Inverse of parse_result_mode, for error messages and stats output.
inline const char* result_mode_name(ResultMode m) {
  switch (m) {
    case ResultMode::kPairs: return "pairs";
    case ResultMode::kCountOnly: return "count";
    case ResultMode::kHistogram: return "histogram";
    case ResultMode::kSink: return "sink";
  }
  return "?";
}

/// One ordered result pair: point `key` has neighbour `value`
/// (dist(key, value) <= eps). Self pairs (key == value) are included by
/// every implementation (dist = 0 <= eps), matching the convention of the
/// authors' implementation.
struct Pair {
  /// Leaves both fields uninitialised, even when value-initialised (a
  /// defaulted constructor would zero them): a pair vector sized for an
  /// exact result — the batch pipeline's landing target — then costs no
  /// zero-fill that the landing copies overwrite anyway.
  Pair() {}
  Pair(std::uint32_t k, std::uint32_t v) : key(k), value(v) {}

  std::uint32_t key;
  std::uint32_t value;

  friend bool operator==(const Pair&, const Pair&) = default;
  friend auto operator<=>(const Pair&, const Pair&) = default;
};

/// A set of ordered pairs. Not automatically deduplicated or sorted; call
/// normalize() before comparisons.
class ResultSet {
 public:
  ResultSet() = default;
  explicit ResultSet(std::vector<Pair> pairs) : pairs_(std::move(pairs)) {}

  void add(std::uint32_t key, std::uint32_t value) {
    pairs_.push_back({key, value});
  }
  void append(const ResultSet& other) {
    pairs_.insert(pairs_.end(), other.pairs_.begin(), other.pairs_.end());
  }

  std::size_t size() const { return pairs_.size(); }
  bool empty() const { return pairs_.empty(); }
  const std::vector<Pair>& pairs() const { return pairs_; }
  std::vector<Pair>& pairs() { return pairs_; }

  /// Sort lexicographically and drop duplicates.
  void normalize();

  /// Exact pair-set equality after normalisation of both sides.
  static bool equal_normalized(ResultSet a, ResultSet b);

  /// True iff for every pair (k, v) the pair (v, k) is also present.
  /// All correct self-join results are symmetric. Expects normalized input.
  bool is_symmetric() const;

  /// Neighbour count per key (requires ids < n). Includes self pairs.
  std::vector<std::uint32_t> counts_per_key(std::size_t n) const;

  /// Total neighbours / n (paper's "avg. neighbors" metric, Fig. 1).
  double avg_neighbors(std::size_t n) const {
    return n == 0 ? 0.0
                  : static_cast<double>(pairs_.size()) / static_cast<double>(n);
  }

 private:
  std::vector<Pair> pairs_;
};

/// CSR adjacency view of a normalised result set: neighbors(i) is the
/// contiguous, ascending list of neighbour ids of point i.
class NeighborTable {
 public:
  NeighborTable() = default;
  /// Builds from a result set (normalised internally) for n points.
  NeighborTable(ResultSet rs, std::size_t n);

  std::size_t num_points() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  std::size_t degree(std::size_t i) const {
    return offsets_[i + 1] - offsets_[i];
  }
  const std::uint32_t* begin(std::size_t i) const {
    return neighbors_.data() + offsets_[i];
  }
  const std::uint32_t* end(std::size_t i) const {
    return neighbors_.data() + offsets_[i + 1];
  }
  std::size_t total_neighbors() const { return neighbors_.size(); }

 private:
  std::vector<std::size_t> offsets_;      // size n + 1
  std::vector<std::uint32_t> neighbors_;  // size = total pairs
};

}  // namespace sj
