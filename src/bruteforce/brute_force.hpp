// CPU brute-force nested-loop references: the O(n^2) oracles that every
// other implementation is validated against, and the "index-free"
// baseline of the evaluation (cost independent of eps). All three
// operations are covered — self-join, query/data join and kNN — so every
// backend facet has an exact reference.
#pragma once

#include <cstdint>

#include "common/dataset.hpp"
#include "common/neighbors.hpp"
#include "common/result.hpp"

namespace sj::brute {

struct BruteStats {
  double seconds = 0.0;
  std::uint64_t distance_calcs = 0;
};

struct BruteResult {
  ResultSet pairs;
  BruteStats stats;
};

struct BruteKnnResult {
  NeighborLists neighbors;
  BruteStats stats;
};

/// Exact self-join by exhaustive comparison. `threads` = 0 uses all
/// hardware threads; 1 gives the serial reference. The pairs come out in
/// the same order for every thread count.
BruteResult self_join(const Dataset& d, double eps, int threads = 1);

/// Exact query/data epsilon join: pairs (query index, data index) with
/// dist <= eps, by exhaustive comparison, in the same order for every
/// thread count.
BruteResult join(const Dataset& queries, const Dataset& data, double eps,
                 int threads = 1);

/// Exact kNN of every query point in `data` by exhaustive scan; lists
/// ascending by distance, ties broken by data id.
BruteKnnResult knn(const Dataset& queries, const Dataset& data, int k,
                   int threads = 1);

/// Exact self-kNN: neighbours of every point of `d` within `d`, the
/// point's own id excluded unless `include_self`.
BruteKnnResult self_knn(const Dataset& d, int k, bool include_self = false,
                        int threads = 1);

}  // namespace sj::brute
