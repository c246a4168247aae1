#include "ego/ego.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "common/distance.hpp"
#include "common/omp_compat.hpp"
#include "common/timer.hpp"

namespace sj::ego {

namespace {

/// A node of the sequence partition: a contiguous range of the EGO-sorted
/// points with its per-dimension cell bounding box. Ranges form a binary
/// segment tree so bounding boxes are computed once.
struct Seg {
  std::uint32_t lo, hi;  // [lo, hi) into the sorted order
  std::int32_t cmin[kMaxDims];
  std::int32_t cmax[kMaxDims];
  std::int32_t left = -1, right = -1;  // child segment indices, -1 = leaf
};

template <typename T>
struct EgoState {
  int dim = 0;
  T eps{};                     // normalised threshold
  T cell_width{};              // grid width (== eps unless eps == 0)
  std::vector<T> coords;       // reordered+normalised, EGO-sorted order
  std::vector<std::uint32_t> order;  // sorted position -> original id
  std::vector<std::int32_t> cells;   // per point, per dim cell coords
  std::vector<Seg> segs;
  int simple_threshold = 32;

  const T* pt(std::uint32_t s) const { return coords.data() + std::size_t(s) * dim; }
  const std::int32_t* cell(std::uint32_t s) const {
    return cells.data() + std::size_t(s) * dim;
  }
};

/// Per-thread join accumulators, merged at the end.
struct JoinLocal {
  std::vector<Pair> pairs;
  std::uint64_t distance_calcs = 0;
  std::uint64_t pruned = 0;
  std::uint64_t simple_joins = 0;
};

template <typename T>
int build_segment(EgoState<T>& st, std::uint32_t lo, std::uint32_t hi) {
  const int idx = static_cast<int>(st.segs.size());
  st.segs.push_back({});
  {
    Seg& s = st.segs.back();
    s.lo = lo;
    s.hi = hi;
    for (int j = 0; j < st.dim; ++j) {
      s.cmin[j] = std::numeric_limits<std::int32_t>::max();
      s.cmax[j] = std::numeric_limits<std::int32_t>::min();
    }
    for (std::uint32_t i = lo; i < hi; ++i) {
      const std::int32_t* c = st.cell(i);
      for (int j = 0; j < st.dim; ++j) {
        s.cmin[j] = std::min(s.cmin[j], c[j]);
        s.cmax[j] = std::max(s.cmax[j], c[j]);
      }
    }
  }
  if (hi - lo > static_cast<std::uint32_t>(st.simple_threshold)) {
    const std::uint32_t mid = lo + (hi - lo) / 2;
    const int l = build_segment(st, lo, mid);
    const int r = build_segment(st, mid, hi);
    st.segs[idx].left = l;
    st.segs[idx].right = r;
  }
  return idx;
}

/// Cell bounding boxes more than one cell apart in any dimension cannot
/// contain a pair within eps (cells have side >= eps) — the EGO prune.
template <typename T>
bool prunable(const EgoState<T>& st, const Seg& a, const Seg& b) {
  for (int j = 0; j < st.dim; ++j) {
    if (a.cmin[j] > b.cmax[j] + 1 || b.cmin[j] > a.cmax[j] + 1) return true;
  }
  return false;
}

template <typename T>
void simple_join(const EgoState<T>& st, const Seg& a, const Seg& b,
                 JoinLocal& out) {
  const T eps2 = st.eps * st.eps;
  ++out.simple_joins;
  if (&a == &b || (a.lo == b.lo && a.hi == b.hi)) {
    for (std::uint32_t i = a.lo; i < a.hi; ++i) {
      const std::uint32_t oi = st.order[i];
      out.pairs.push_back({oi, oi});  // self pair
      for (std::uint32_t k = i + 1; k < a.hi; ++k) {
        ++out.distance_calcs;
        if (sq_dist_early_exit(st.pt(i), st.pt(k), st.dim, eps2) <= eps2) {
          const std::uint32_t ok = st.order[k];
          out.pairs.push_back({oi, ok});
          out.pairs.push_back({ok, oi});
        }
      }
    }
    return;
  }
  for (std::uint32_t i = a.lo; i < a.hi; ++i) {
    for (std::uint32_t k = b.lo; k < b.hi; ++k) {
      ++out.distance_calcs;
      if (sq_dist_early_exit(st.pt(i), st.pt(k), st.dim, eps2) <= eps2) {
        out.pairs.push_back({st.order[i], st.order[k]});
        out.pairs.push_back({st.order[k], st.order[i]});
      }
    }
  }
}

template <typename T>
void ego_join(const EgoState<T>& st, int ua, int ub, JoinLocal& out) {
  const Seg& a = st.segs[ua];
  const Seg& b = st.segs[ub];
  if (prunable(st, a, b)) {
    ++out.pruned;
    return;
  }
  const bool a_leaf = a.left < 0;
  const bool b_leaf = b.left < 0;
  if (a_leaf && b_leaf) {
    simple_join(st, a, b, out);
    return;
  }
  if (ua == ub) {
    ego_join(st, a.left, a.left, out);
    ego_join(st, a.left, a.right, out);
    ego_join(st, a.right, a.right, out);
    return;
  }
  // Split the longer sequence (both are recursed against the other).
  const bool split_a = !a_leaf && (b_leaf || (a.hi - a.lo) >= (b.hi - b.lo));
  if (split_a) {
    ego_join(st, a.left, ub, out);
    ego_join(st, a.right, ub, out);
  } else {
    ego_join(st, ua, b.left, out);
    ego_join(st, ua, b.right, out);
  }
}

/// Expand the recursion a few levels to produce independent tasks for the
/// parallel join phase.
template <typename T>
void expand_tasks(const EgoState<T>& st, int ua, int ub, int depth,
                  std::vector<std::pair<int, int>>& tasks,
                  std::uint64_t& pruned) {
  const Seg& a = st.segs[ua];
  const Seg& b = st.segs[ub];
  if (prunable(st, a, b)) {
    ++pruned;
    return;
  }
  const bool a_leaf = a.left < 0;
  const bool b_leaf = b.left < 0;
  if (depth == 0 || (a_leaf && b_leaf)) {
    tasks.emplace_back(ua, ub);
    return;
  }
  if (ua == ub) {
    expand_tasks(st, a.left, a.left, depth - 1, tasks, pruned);
    expand_tasks(st, a.left, a.right, depth - 1, tasks, pruned);
    expand_tasks(st, a.right, a.right, depth - 1, tasks, pruned);
    return;
  }
  const bool split_a = !a_leaf && (b_leaf || (a.hi - a.lo) >= (b.hi - b.lo));
  if (split_a) {
    expand_tasks(st, a.left, ub, depth - 1, tasks, pruned);
    expand_tasks(st, a.right, ub, depth - 1, tasks, pruned);
  } else {
    expand_tasks(st, ua, b.left, depth - 1, tasks, pruned);
    expand_tasks(st, ua, b.right, depth - 1, tasks, pruned);
  }
}

template <typename T>
EgoResult run(const Dataset& d, double eps, const Options& opt) {
  EgoResult result;
  EgoStats& stats = result.stats;
  const std::size_t n = d.size();
  const int dim = d.dim();
  for (int j = 0; j < dim; ++j) stats.dim_order[j] = j;
  if (n == 0) return result;

  Timer sort_timer;

  // --- Normalise: translate each dimension to zero, scale all by one
  // common factor so the data fits [0, 1] and distances are preserved.
  const auto lo = d.min_bound();
  const auto hi = d.max_bound();
  double extent = 0.0;
  for (int j = 0; j < dim; ++j) extent = std::max(extent, hi[j] - lo[j]);
  const double factor = extent > 0.0 ? 1.0 / extent : 1.0;
  const T eps_n = static_cast<T>(eps * factor);
  // Cell width slightly above eps: points exactly eps apart must never
  // land more than one cell apart, even after normalisation round-off
  // (any width >= eps keeps the adjacent-cell search correct).
  const T width =
      eps_n > T(0) ? eps_n * (T(1) + T(4) * std::numeric_limits<T>::epsilon() *
                                          T(1024))
                   : T(1);

  std::vector<T> norm(n * static_cast<std::size_t>(dim));
  for (std::size_t i = 0; i < n; ++i) {
    for (int j = 0; j < dim; ++j) {
      norm[i * dim + j] = static_cast<T>((d.coord(i, j) - lo[j]) * factor);
    }
  }

  // --- Dimension reordering by selectivity: estimate, per dimension, the
  // probability that two random points land within one cell of each
  // other; the most selective (lowest) dimensions go first so the EGO
  // prune fires early. On uniform data all dimensions tie and the order
  // stays as-is (Super-EGO's observed behaviour).
  std::array<int, kMaxDims> dim_order{};
  std::iota(dim_order.begin(), dim_order.begin() + dim, 0);
  if (opt.reorder_dims && dim > 1) {
    const std::size_t nbuckets = std::min<std::size_t>(
        static_cast<std::size_t>(std::ceil(1.0 / static_cast<double>(width))) + 2,
        1u << 20);
    const double bucket_w = 1.0 / static_cast<double>(nbuckets - 2);
    std::array<double, kMaxDims> failure{};
    for (int j = 0; j < dim; ++j) {
      std::vector<std::uint64_t> h(nbuckets, 0);
      for (std::size_t i = 0; i < n; ++i) {
        auto b = static_cast<std::size_t>(norm[i * dim + j] / bucket_w);
        b = std::min(b, nbuckets - 1);
        ++h[b];
      }
      double f = 0.0;
      for (std::size_t b = 0; b < nbuckets; ++b) {
        double neigh = static_cast<double>(h[b]);
        if (b > 0) neigh += static_cast<double>(h[b - 1]);
        if (b + 1 < nbuckets) neigh += static_cast<double>(h[b + 1]);
        f += static_cast<double>(h[b]) * neigh;
      }
      failure[j] = f;
    }
    std::stable_sort(dim_order.begin(), dim_order.begin() + dim,
                     [&](int a, int b) { return failure[a] < failure[b]; });
  }
  for (int j = 0; j < dim; ++j) stats.dim_order[j] = dim_order[j];

  // --- EGO-sort: cell coordinates in the reordered dimensions,
  // lexicographic order.
  EgoState<T> st;
  st.dim = dim;
  st.eps = static_cast<T>(eps);  // refinement threshold in raw coordinates
  st.cell_width = width;
  st.simple_threshold = std::max(1, opt.simple_threshold);

  std::vector<std::int32_t> cells_raw(n * static_cast<std::size_t>(dim));
  for (std::size_t i = 0; i < n; ++i) {
    for (int j = 0; j < dim; ++j) {
      cells_raw[i * dim + j] = static_cast<std::int32_t>(
          std::floor(norm[i * dim + dim_order[j]] / width));
    }
  }
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              const std::int32_t* ca = cells_raw.data() + std::size_t(a) * dim;
              const std::int32_t* cb = cells_raw.data() + std::size_t(b) * dim;
              for (int j = 0; j < dim; ++j) {
                if (ca[j] != cb[j]) return ca[j] < cb[j];
              }
              return a < b;
            });

  st.order = order;
  st.coords.resize(n * static_cast<std::size_t>(dim));
  st.cells.resize(n * static_cast<std::size_t>(dim));
  for (std::size_t s = 0; s < n; ++s) {
    const std::uint32_t src = order[s];
    for (int j = 0; j < dim; ++j) {
      // Distances are refined in the ORIGINAL coordinates so the exact
      // dist <= eps decision is free of normalisation round-off; the
      // normalised values only drive cells, sort order and pruning.
      st.coords[s * dim + j] =
          static_cast<T>(d.coord(src, dim_order[j]));
      st.cells[s * dim + j] = cells_raw[std::size_t(src) * dim + j];
    }
  }

  const int root = build_segment(st, 0, static_cast<std::uint32_t>(n));
  stats.sort_seconds = sort_timer.seconds();

  // --- Parallel EGO-join.
  Timer join_timer;
  const int threads =
      opt.threads > 0 ? opt.threads : std::max(1, omp_get_max_threads());
  std::vector<std::pair<int, int>> tasks;
  std::uint64_t pruned_at_expand = 0;
  int depth = 0;
  while ((1 << depth) < threads * 8 && depth < 20) ++depth;
  expand_tasks(st, root, root, depth, tasks, pruned_at_expand);

  // One accumulator per TASK, concatenated in task order: the output is
  // then independent of which thread the dynamic schedule gave each task.
  std::vector<JoinLocal> locals(tasks.size());
#pragma omp parallel for schedule(dynamic, 1) num_threads(threads)
  for (std::int64_t t = 0; t < static_cast<std::int64_t>(tasks.size()); ++t) {
    JoinLocal& local = locals[static_cast<std::size_t>(t)];
    ego_join(st, tasks[static_cast<std::size_t>(t)].first,
             tasks[static_cast<std::size_t>(t)].second, local);
  }

  std::size_t total_pairs = 0;
  for (const JoinLocal& l : locals) total_pairs += l.pairs.size();
  result.pairs.pairs().reserve(total_pairs);
  for (JoinLocal& l : locals) {
    auto& out = result.pairs.pairs();
    out.insert(out.end(), l.pairs.begin(), l.pairs.end());
    stats.distance_calcs += l.distance_calcs;
    stats.sequence_pairs_pruned += l.pruned;
    stats.simple_joins += l.simple_joins;
  }
  stats.sequence_pairs_pruned += pruned_at_expand;
  stats.join_seconds = join_timer.seconds();
  return result;
}

}  // namespace

EgoResult self_join(const Dataset& d, double eps, Options opt) {
  if (eps < 0.0) throw std::invalid_argument("ego::self_join: eps >= 0");
  return opt.use_float ? run<float>(d, eps, opt) : run<double>(d, eps, opt);
}

}  // namespace sj::ego
