// The benchmark's own answer key: a plain uniform-grid range search,
// written independently of the engines under test, against which every
// result the program returns is checked.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/dataset.hpp"

namespace perfbench {

/// Order-independent fingerprint of one ordered pair.
inline std::uint64_t pair_hash(std::uint32_t key, std::uint32_t value) {
  std::uint64_t z = (static_cast<std::uint64_t>(key) << 32) | value;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Size and fingerprint of a pair set: the count and the wrapping sum of
/// pair_hash over all pairs, equal for equal sets in any order.
struct PairDigest {
  std::uint64_t pairs = 0;
  std::uint64_t checksum = 0;

  void add(std::uint32_t key, std::uint32_t value) {
    ++pairs;
    checksum += pair_hash(key, value);
  }
  friend bool operator==(const PairDigest&, const PairDigest&) = default;
};

class ReferenceGrid {
 public:
  /// Index `data` (kept by reference; it must outlive the grid) in cells
  /// of width eps > 0.
  ReferenceGrid(const sj::Dataset& data, double eps);

  /// Ids of the data points within eps of `q` (squared distances against
  /// eps^2, the engines' test), ascending, into `out`.
  void neighbors(const double* q, std::vector<std::uint32_t>& out) const;

  /// Digest of the full self-join: every ordered pair within eps, self
  /// pairs included (the repository's pair convention).
  PairDigest self_join() const;

 private:
  /// Calls visit(id) for every data point within eps of `q`.
  template <typename Visit>
  void visit_neighbors(const double* q, Visit&& visit) const;

  const sj::Dataset& data_;
  double eps_;
  int dim_;
  std::array<double, sj::kMaxDims> lo_{};
  std::array<std::int64_t, sj::kMaxDims> cells_{};  // cells per dimension
  std::vector<std::uint64_t> cell_ids_;  // non-empty cells, ascending
  std::vector<std::uint32_t> starts_;    // CSR offsets into members_
  std::vector<std::uint32_t> members_;   // point ids, grouped by cell
};

}  // namespace perfbench
