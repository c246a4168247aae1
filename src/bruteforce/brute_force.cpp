#include "bruteforce/brute_force.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/distance.hpp"
#include "common/omp_compat.hpp"
#include "common/parse.hpp"
#include "common/timer.hpp"

namespace sj::brute {

namespace {

int resolve_threads(int threads) {
  return threads > 0 ? threads : std::max(1, omp_get_max_threads());
}

/// Shared kNN scan: for every query, the k nearest points of `data`
/// (skipping the query's own id in self mode), sorted ascending by
/// (distance, id) — the deterministic tie-break the parity suites rely
/// on. Distances are sqrt(sq_dist(...)), the exact float path the GPU
/// engine takes, so oracle comparisons can be bit-exact.
BruteKnnResult knn_scan(const Dataset& queries, const Dataset& data, int k,
                        bool self_mode, bool include_self, int threads) {
  parse::positive("argument 'k' of brute::knn", k);
  parse::matching_dims("argument 'queries' of brute::knn", queries.dim(),
                       "argument 'data'", data.dim());
  BruteKnnResult result;
  Timer t;
  result.neighbors = NeighborLists(queries.size(), k);
  const int nt = resolve_threads(threads);
  std::vector<std::uint64_t> calcs(static_cast<std::size_t>(nt), 0);
#pragma omp parallel for schedule(dynamic, 16) num_threads(nt)
  for (std::int64_t q = 0; q < static_cast<std::int64_t>(queries.size());
       ++q) {
    auto& cc = calcs[static_cast<std::size_t>(omp_get_thread_num())];
    std::vector<std::pair<double, std::uint32_t>> best;
    best.reserve(data.size());
    for (std::size_t i = 0; i < data.size(); ++i) {
      if (self_mode && !include_self &&
          i == static_cast<std::size_t>(q)) {
        continue;
      }
      ++cc;
      best.emplace_back(
          sq_dist(queries.pt(static_cast<std::size_t>(q)), data.pt(i),
                  data.dim()),
          static_cast<std::uint32_t>(i));
    }
    const std::size_t keep =
        std::min<std::size_t>(static_cast<std::size_t>(k), best.size());
    std::partial_sort(best.begin(),
                      best.begin() + static_cast<std::ptrdiff_t>(keep),
                      best.end());
    const auto uq = static_cast<std::size_t>(q);
    std::uint32_t* ids = result.neighbors.ids_row(uq);
    double* dists = result.neighbors.dists_row(uq);
    for (std::size_t j = 0; j < keep; ++j) {
      ids[j] = best[j].second;
      dists[j] = std::sqrt(best[j].first);
    }
    result.neighbors.set_count(uq, static_cast<int>(keep));
  }
  for (std::uint64_t c : calcs) result.stats.distance_calcs += c;
  result.stats.seconds = t.seconds();
  return result;
}

/// Rows one task of the threaded pair scans resolves.
constexpr std::size_t kRowsPerChunk = 64;

/// Run `row(i, out, calcs)` for every row i in [0, rows) over `threads`
/// OpenMP threads: the row appends its pairs to `out` and counts its
/// distance calculations in `calcs`. Fixed chunks of kRowsPerChunk rows
/// each fill their own buffer, and the buffers concatenate in chunk
/// order, so the pairs are the one-thread output byte for byte for any
/// thread count.
template <typename Row>
void scan_rows(std::size_t rows, [[maybe_unused]] int threads,
               BruteResult& result, Row&& row) {
  const std::size_t chunks = (rows + kRowsPerChunk - 1) / kRowsPerChunk;
  std::vector<std::vector<Pair>> outs(chunks);
  std::vector<std::uint64_t> calcs(chunks, 0);
#pragma omp parallel for schedule(dynamic, 1) num_threads(threads)
  for (std::int64_t c = 0; c < static_cast<std::int64_t>(chunks); ++c) {
    const auto uc = static_cast<std::size_t>(c);
    const std::size_t end = std::min(rows, (uc + 1) * kRowsPerChunk);
    std::uint64_t cc = 0;
    for (std::size_t i = uc * kRowsPerChunk; i < end; ++i) {
      row(i, outs[uc], cc);
    }
    calcs[uc] = cc;
  }
  std::size_t total = 0;
  for (const auto& o : outs) total += o.size();
  auto& pairs = result.pairs.pairs();
  pairs.reserve(total);
  for (const auto& o : outs) pairs.insert(pairs.end(), o.begin(), o.end());
  for (std::uint64_t c : calcs) result.stats.distance_calcs += c;
}

}  // namespace

BruteResult self_join(const Dataset& d, double eps, int threads) {
  if (eps < 0.0) throw std::invalid_argument("brute::self_join: eps >= 0");
  BruteResult result;
  Timer t;
  const std::size_t n = d.size();
  const int dim = d.dim();
  const double eps2 = eps * eps;

  // Upper-triangle sweep; both ordered pairs are emitted per find so the
  // output convention matches the other algorithms.
  scan_rows(n, resolve_threads(threads), result,
            [&](std::size_t i, std::vector<Pair>& out, std::uint64_t& cc) {
              const auto ui = static_cast<std::uint32_t>(i);
              out.push_back({ui, ui});  // self pair
              for (std::size_t k = i + 1; k < n; ++k) {
                ++cc;
                if (sq_dist_early_exit(d.pt(i), d.pt(k), dim, eps2) <= eps2) {
                  const auto uk = static_cast<std::uint32_t>(k);
                  out.push_back({ui, uk});
                  out.push_back({uk, ui});
                }
              }
            });
  result.stats.seconds = t.seconds();
  return result;
}

BruteResult join(const Dataset& queries, const Dataset& data, double eps,
                 int threads) {
  parse::non_negative("argument 'eps' of brute::join", eps);
  parse::matching_dims("argument 'queries' of brute::join", queries.dim(),
                       "argument 'data'", data.dim());
  BruteResult result;
  Timer t;
  const double eps2 = eps * eps;
  scan_rows(queries.size(), resolve_threads(threads), result,
            [&](std::size_t q, std::vector<Pair>& out, std::uint64_t& cc) {
              const double* qt = queries.pt(q);
              for (std::size_t i = 0; i < data.size(); ++i) {
                ++cc;
                if (sq_dist_early_exit(qt, data.pt(i), data.dim(), eps2) <=
                    eps2) {
                  out.push_back({static_cast<std::uint32_t>(q),
                                 static_cast<std::uint32_t>(i)});
                }
              }
            });
  result.stats.seconds = t.seconds();
  return result;
}

BruteKnnResult knn(const Dataset& queries, const Dataset& data, int k,
                   int threads) {
  return knn_scan(queries, data, k, /*self_mode=*/false,
                  /*include_self=*/false, threads);
}

BruteKnnResult self_knn(const Dataset& d, int k, bool include_self,
                        int threads) {
  return knn_scan(d, d, k, /*self_mode=*/true, include_self, threads);
}

}  // namespace sj::brute
