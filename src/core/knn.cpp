#include "core/knn.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "common/distance.hpp"
#include "common/parse.hpp"
#include "common/timer.hpp"
#include "core/device_view.hpp"
#include "core/grid_index.hpp"
#include "core/work_counters.hpp"
#include "gpusim/arena.hpp"
#include "gpusim/atomic.hpp"
#include "gpusim/kernel.hpp"

namespace sj {

namespace {

/// Bounded max-heap of the k best (squared distance, id) candidates,
/// backed by caller-provided rows of the result matrix.
class BestK {
 public:
  BestK(double* dists, std::uint32_t* ids, int k)
      : d_(dists), id_(ids), k_(k) {}

  int size() const { return size_; }
  bool full() const { return size_ == k_; }
  double worst() const {
    return size_ == 0 ? std::numeric_limits<double>::infinity()
                      : (full() ? d_[0]
                                : std::numeric_limits<double>::infinity());
  }

  void offer(double dist2, std::uint32_t id) {
    if (!full()) {
      d_[size_] = dist2;
      id_[size_] = id;
      ++size_;
      sift_up(size_ - 1);
      return;
    }
    if (dist2 >= d_[0]) return;
    d_[0] = dist2;
    id_[0] = id;
    sift_down(0);
  }

  /// Heap -> ascending order (heapsort tail), converting squared
  /// distances to distances.
  void finalize() {
    int n = size_;
    while (n > 1) {
      --n;
      std::swap(d_[0], d_[n]);
      std::swap(id_[0], id_[n]);
      sift_down_n(0, n);
    }
    for (int i = 0; i < size_; ++i) d_[i] = std::sqrt(d_[i]);
  }

 private:
  void sift_up(int i) {
    while (i > 0) {
      const int parent = (i - 1) / 2;
      if (d_[parent] >= d_[i]) break;
      std::swap(d_[parent], d_[i]);
      std::swap(id_[parent], id_[i]);
      i = parent;
    }
  }
  void sift_down(int i) { sift_down_n(i, size_); }
  void sift_down_n(int i, int n) {
    for (;;) {
      const int l = 2 * i + 1;
      const int r = l + 1;
      int m = i;
      if (l < n && d_[l] > d_[m]) m = l;
      if (r < n && d_[r] > d_[m]) m = r;
      if (m == i) return;
      std::swap(d_[m], d_[i]);
      std::swap(id_[m], id_[i]);
      i = m;
    }
  }

  double* d_;
  std::uint32_t* id_;
  int k_;
  int size_ = 0;
};

struct KnnKernelParams {
  GridDeviceView grid;
  KnnResult* out = nullptr;
  int k = 0;
  bool include_self = false;
  bool self_mode = false;  // query set == data set (skip own id)
  AtomicWork* work = nullptr;
  gpu::DeviceCounter* rings = nullptr;
};

/// Squared minimum distance from `pt` to the cell with coordinates `cc`.
double cell_min_sq_dist(const GridDeviceView& g, const double* pt,
                        const std::uint32_t* cc) {
  double acc = 0.0;
  for (int j = 0; j < g.dim; ++j) {
    const double lo = g.gmin[j] + cc[j] * g.width;
    const double hi = lo + g.width;
    double d = 0.0;
    if (pt[j] < lo) {
      d = lo - pt[j];
    } else if (pt[j] > hi) {
      d = pt[j] - hi;
    }
    acc += d * d;
  }
  return acc;
}

void knn_thread(const gpu::ThreadCtx& ctx, const KnnKernelParams& p) {
  const std::uint64_t gid = ctx.global_id();
  const GridDeviceView& g = p.grid;
  if (gid >= g.num_queries()) return;
  const auto pid = static_cast<std::uint32_t>(gid);
  double qbuf[kMaxDims];
  const double* pt = g.query_point(pid, qbuf);

  LocalWork w;
  BestK best(p.out->dists_row(pid), p.out->ids_row(pid), p.k);

  // Home cell coordinates.
  std::uint32_t home[kMaxDims];
  g.home_cell(pt, home);
  std::int64_t ci[kMaxDims];
  for (int j = 0; j < g.dim; ++j) ci[j] = home[j];

  // Maximum useful ring: the grid's extent in cells.
  std::int64_t max_ring = 0;
  for (int j = 0; j < g.dim; ++j) {
    max_ring = std::max<std::int64_t>(
        max_ring, std::max<std::int64_t>(
                      ci[j], static_cast<std::int64_t>(g.cells_per_dim[j]) -
                                 1 - ci[j]));
  }

  std::uint64_t rings_used = 0;
  for (std::int64_t ring = 0; ring <= max_ring; ++ring) {
    // Done when the heap is full and no unvisited point can beat its
    // worst entry: points beyond ring L are at least (L-1)*width away
    // (conservative; the per-cell min-distance prune below is exact).
    if (best.full() && ring > 1) {
      const double bound = static_cast<double>(ring - 1) * g.width;
      if (bound * bound >= best.worst()) break;
    }
    ++rings_used;

    // Per-dimension candidate coordinates for this ring from the masks.
    const std::uint32_t* mlo[kMaxDims];
    const std::uint32_t* mhi[kMaxDims];
    bool empty_dim = false;
    for (int j = 0; j < g.dim; ++j) {
      const std::uint32_t* m = g.M[j];
      const std::uint32_t* mend = m + g.m_size[j];
      const std::int64_t lo = ci[j] - ring;
      const std::int64_t hi = ci[j] + ring;
      mlo[j] = std::lower_bound(
          m, mend,
          static_cast<std::uint32_t>(std::max<std::int64_t>(lo, 0)));
      mhi[j] = std::upper_bound(
          m, mend,
          static_cast<std::uint32_t>(std::min<std::int64_t>(
              hi, static_cast<std::int64_t>(g.cells_per_dim[j]) - 1)));
      if (mlo[j] == mhi[j]) empty_dim = true;
    }
    if (empty_dim) continue;

    // Odometer over the per-dimension candidates, keeping cells whose
    // Chebyshev distance from home is exactly `ring`.
    const std::uint32_t* it[kMaxDims];
    for (int j = 0; j < g.dim; ++j) it[j] = mlo[j];
    std::uint32_t cc[kMaxDims];
    for (;;) {
      std::int64_t cheb = 0;
      for (int j = 0; j < g.dim; ++j) {
        cc[j] = *it[j];
        cheb = std::max<std::int64_t>(
            cheb, std::llabs(static_cast<std::int64_t>(cc[j]) - ci[j]));
      }
      if (cheb == ring) {
        const bool prune =
            best.full() && cell_min_sq_dist(g, pt, cc) >= best.worst();
        if (!prune) {
          ++w.cells_examined;
          const std::uint32_t cell = g.find_cell(g.linearize(cc));
          if (cell != kEmptyCell) {
            ++w.cells_nonempty;
            const GridIndex::CellRange range = g.G[cell];
            for (std::uint32_t kk = range.min; kk <= range.max; ++kk) {
              const std::uint32_t q = g.A[kk];
              if (p.self_mode && !p.include_self && q == pid) continue;
              const double* qt =
                  g.points + static_cast<std::size_t>(q) * g.dim;
              ++w.distance_calcs;
              w.global_loads += static_cast<std::uint64_t>(g.dim);
              best.offer(sq_dist(pt, qt, g.dim), q);
            }
          }
        }
      }
      // Advance the odometer.
      int j = 0;
      while (j < g.dim) {
        if (++it[j] != mhi[j]) break;
        it[j] = mlo[j];
        ++j;
      }
      if (j == g.dim) break;
    }
  }

  best.finalize();
  p.out->set_count(pid, best.size());
  w.results += static_cast<std::uint64_t>(best.size());
  if (p.work != nullptr) p.work->flush(w);
  if (p.rings != nullptr) p.rings->fetch_add(rings_used);
}

double auto_cell_width(const Dataset& d, int k) {
  const auto lo = d.min_bound();
  const auto hi = d.max_bound();
  double volume = 1.0;
  double max_range = 0.0;
  for (int j = 0; j < d.dim(); ++j) {
    const double range = std::max(hi[j] - lo[j], 1e-12);
    volume *= range;
    max_range = std::max(max_range, range);
  }
  const double per_point =
      volume * static_cast<double>(k + 1) /
      std::max<double>(1.0, static_cast<double>(d.size()));
  const double width = std::pow(per_point, 1.0 / d.dim());
  return std::clamp(width, 1e-9, max_range > 0 ? max_range : 1.0);
}

KnnResult run_knn(const Dataset* queries, const Dataset& data,
                  KnnOptions opt) {
  parse::positive("argument 'k' of gpu_knn", opt.k);
  if (opt.control != nullptr) opt.control->check("knn entry");
  const Dataset& qset = queries != nullptr ? *queries : data;
  parse::matching_dims("argument 'queries' of gpu_knn", qset.dim(),
                       "argument 'data'", data.dim());
  KnnResult result(qset.size(), opt.k);
  Timer total;
  if (data.empty() || qset.empty()) {
    result.stats.total_seconds = total.seconds();
    return result;
  }

  const double width =
      opt.cell_width > 0.0 ? opt.cell_width : auto_cell_width(data, opt.k);
  result.stats.chosen_cell_width = width;

  Timer phase;
  GridIndex index(data, width);
  result.stats.index_build_seconds = phase.seconds();

  gpu::GlobalMemoryArena arena(opt.device);
  DeviceGrid dev(arena, data, index);
  GridDeviceView grid = dev.view();
  // The grid's eps is the cell width here; kNN ignores it as a threshold.

  gpu::DeviceBuffer<double> qbuf;
  if (queries != nullptr) {
    qbuf = gpu::DeviceBuffer<double>(arena, qset.raw().size());
    std::memcpy(qbuf.data(), qset.raw().data(),
                qset.raw().size() * sizeof(double));
    grid.qpoints = qbuf.data();
    grid.qn = qset.size();
  }

  AtomicWork work;
  gpu::DeviceCounter rings;
  KnnKernelParams p;
  p.grid = grid;
  p.out = &result;
  p.k = opt.k;
  p.include_self = opt.include_self;
  p.self_mode = queries == nullptr;
  p.work = &work;
  p.rings = &rings;

  if (opt.control != nullptr) opt.control->check("knn pre-launch");
  const auto ks = gpu::launch(
      gpu::LaunchConfig::cover(qset.size(), opt.block_size),
      [&p](const gpu::ThreadCtx& ctx) { knn_thread(ctx, p); });
  if (opt.control != nullptr) opt.control->check("knn completion");

  work.add_to(result.stats.metrics);
  result.stats.metrics.kernel_seconds = ks.seconds;
  result.stats.rings_expanded = rings.load();
  result.stats.total_seconds = total.seconds();
  return result;
}

}  // namespace

KnnResult gpu_knn(const Dataset& d, KnnOptions opt) {
  return run_knn(nullptr, d, opt);
}

KnnResult gpu_knn(const Dataset& queries, const Dataset& data,
                  KnnOptions opt) {
  return run_knn(&queries, data, opt);
}

}  // namespace sj
