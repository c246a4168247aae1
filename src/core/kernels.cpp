#include "core/kernels.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "common/distance.hpp"
#include "common/timer.hpp"
#include "core/validate.hpp"

// The blocked distance loops below are written so the per-dimension lane
// loop is a unit-stride load + FMA stream the compiler can vectorise.
// SJ_DISABLE_SIMD (CMake option, CI leg) drops the vectorisation pragma
// and keeps the identical scalar loop — the semantics-preserving fallback
// for toolchains where `omp simd` misbehaves.
#if defined(SJ_DISABLE_SIMD)
#define SJ_SIMD_LOOP
#else
#define SJ_SIMD_LOOP _Pragma("omp simd")
#endif

namespace sj {

namespace {

/// Per-thread emission helper with local work accounting. Dispatches on
/// the ResultBufferView pass (see its doc comment): fill-pass writes at
/// the unit's exact offset or histogram counters per find; the count pass
/// and count-only runs account locally and record once per unit, in
/// end_unit().
struct Emitter {
  const ResultBufferView& r;
  LocalWork& w;
  Pair* next = nullptr;          // fill-pass write position
  std::uint64_t unit_start = 0;  // w.results when the unit began

  void bump(std::uint32_t id, std::uint32_t by) const {
    std::atomic_ref<std::uint32_t>(r.counts[id])
        .fetch_add(by, std::memory_order_relaxed);
  }

  /// Bracket one emitting unit's scan: begin_unit() positions the fill
  /// cursor at the unit's offset, end_unit() records its count (count
  /// pass) or adds it to the count-only cursor — one atomic per unit, not
  /// per find — and, with contracts on, checks that the fill wrote exactly
  /// the counted slice.
  void begin_unit(std::uint64_t unit) {
    unit_start = w.results;
    if (r.out != nullptr) next = r.out + (r.offsets[unit] - r.base);
  }
  void end_unit(std::uint64_t unit) const {
    const std::uint64_t found = w.results - unit_start;
    if (r.unit_counts != nullptr) r.unit_counts[unit] = found;
    if (r.cursor != nullptr && found > 0) r.cursor->fetch_add(found);
    SJ_INVARIANT(r.out == nullptr ||
                     next == r.out + (r.offsets[unit + 1] - r.base),
                 "a unit's fill must match its count-pass slice exactly");
  }

  void emit(std::uint32_t key, std::uint32_t value) {
    ++w.results;
    if (r.out != nullptr) {
      *next++ = Pair{key, value};
    } else if (r.counts != nullptr) {
      bump(key, 1);
    }
  }

  /// UNICOMP emits both ordered pairs of a find.
  void emit_both(std::uint32_t a, std::uint32_t b) {
    w.results += 2;
    if (r.out != nullptr) {
      next[0] = Pair{a, b};
      next[1] = Pair{b, a};
      next += 2;
    } else if (r.counts != nullptr) {
      bump(a, 1);
      bump(b, 1);
    }
  }

  /// Whether finds need their candidate's id: a fill writes it and a
  /// histogram bumps its counter; the count pass and count-only runs only
  /// count.
  bool needs_ids() const { return r.out != nullptr || r.counts != nullptr; }

  /// One scan block's finds, counted without their ids (see needs_ids).
  void count_block(int count, bool both) {
    w.results += static_cast<std::uint64_t>(count) * (both ? 2 : 1);
  }

  /// Blocked emission for the grouped kernel: all of one scan
  /// block's finds at once (two pairs per find when `both` — UNICOMP's
  /// "add both ordered pairs" rule).
  void emit_block(std::uint32_t key, const std::uint32_t* values, int count,
                  bool both) {
    const std::uint64_t slots =
        static_cast<std::uint64_t>(count) * (both ? 2 : 1);
    w.results += slots;
    if (r.out != nullptr) {
      if (both) {
        for (int v = 0; v < count; ++v) {
          next[2 * v] = Pair{key, values[v]};
          next[2 * v + 1] = Pair{values[v], key};
        }
      } else {
        for (int v = 0; v < count; ++v) next[v] = Pair{key, values[v]};
      }
      next += slots;
    } else if (r.counts != nullptr) {
      bump(key, static_cast<std::uint32_t>(count));
      if (both) {
        for (int v = 0; v < count; ++v) bump(values[v], 1);
      }
    }
  }
};

/// The neighbourhood enumeration shared by the point-centric kernel and
/// the group adjacency builder: visit(cc, both_orders) is called for
/// every candidate cell of a home cell at coordinates `c`.
///
/// Full mode (Algorithm 1): the cartesian product of the mask-filtered
/// adjacent coordinates in every dimension, own cell included, all with
/// both_orders = false.
///
/// UNICOMP mode (Algorithm 2, generalised to n dimensions): the home cell
/// in one direction, then for each dimension d with an odd home
/// coordinate the cells where dimensions < d range over all filtered
/// adjacent coordinates, dimension d over the filtered coordinates that
/// differ from home, and dimensions > d stay pinned to home — those with
/// both_orders = true.
template <typename F>
void enumerate_neighborhood(int dim, const std::uint32_t* c,
                            const std::uint32_t adj[][3], const int* adjn,
                            bool unicomp, F&& visit) {
  std::uint32_t cc[kMaxDims];
  if (!unicomp) {
    for (int j = 0; j < dim; ++j) {
      if (adjn[j] == 0) return;  // cannot happen for in-dataset queries
    }
    int idx[kMaxDims] = {};
    for (;;) {
      for (int j = 0; j < dim; ++j) cc[j] = adj[j][idx[j]];
      visit(static_cast<const std::uint32_t*>(cc), /*both_orders=*/false);
      int j = 0;
      while (j < dim) {
        if (++idx[j] < adjn[j]) break;
        idx[j] = 0;
        ++j;
      }
      if (j == dim) break;
    }
    return;
  }

  // Home cell, one direction only: over all points of the cell, every
  // ordered pair (including the self pair) is emitted exactly once.
  visit(c, /*both_orders=*/false);

  for (int d = 0; d < dim; ++d) {
    if ((c[d] & 1u) == 0) continue;  // even coordinate: skip (Algorithm 2)

    // First coordinate of dimension d that differs from home.
    auto next_non_center = [&](int start) {
      int k = start;
      while (k < adjn[d] && adj[d][k] == c[d]) ++k;
      return k;
    };

    int idx[kMaxDims] = {};
    idx[d] = next_non_center(0);
    if (idx[d] >= adjn[d]) continue;  // no non-empty differing neighbour
    bool lower_dims_ok = true;
    for (int j = 0; j < d; ++j) {
      if (adjn[j] == 0) lower_dims_ok = false;
    }
    if (!lower_dims_ok) continue;

    for (;;) {
      for (int j = 0; j < d; ++j) cc[j] = adj[j][idx[j]];
      cc[d] = adj[d][idx[d]];
      for (int j = d + 1; j < dim; ++j) cc[j] = c[j];
      visit(static_cast<const std::uint32_t*>(cc), /*both_orders=*/true);

      // Advance the odometer over positions 0..d (position d skips home).
      int j = 0;
      bool done = false;
      for (;;) {
        if (j < d) {
          if (++idx[j] < adjn[j]) break;
          idx[j] = 0;
          ++j;
        } else {  // j == d
          idx[d] = next_non_center(idx[d] + 1);
          if (idx[d] < adjn[d]) break;
          done = true;
          break;
        }
      }
      if (done) break;
    }
  }
}

/// Evaluate one candidate cell of a point-centric query: binary-search the
/// staged B for existence (Section IV-D), then compute distances to every
/// point it contains (Algorithm 1, lines 10-17). `both_orders` implements
/// UNICOMP's "add both (p, q) and (q, p)" rule for neighbour cells. `key`
/// is the ORIGINAL dataset id emitted for the query point.
inline void eval_cell(const SelfJoinKernelParams& p, LocalWork& w,
                      Emitter& em, std::uint32_t key, const double* pt,
                      const std::uint32_t* cc, bool both_orders) {
  const GridDeviceView& g = p.grid;
  ++w.cells_examined;
  const std::uint32_t cell = g.find_cell(g.linearize(cc));
  if (cell == kEmptyCell) return;
  ++w.cells_nonempty;

  const GridIndex::CellRange range = g.G[cell];
  SJ_INVARIANT(static_cast<std::uint64_t>(range.max) < g.n,
               "G cell range must stay inside the point count");
  const double eps2 = g.eps * g.eps;
  for (std::uint32_t k = range.min; k <= range.max; ++k) {
    const double* qt = g.candidate_point(k);
    w.global_loads += static_cast<std::uint64_t>(g.dim);
    w.global_load_bytes += static_cast<std::uint64_t>(g.dim) * sizeof(double);
    if (p.cache != nullptr) {
      p.cache->access(reinterpret_cast<std::uint64_t>(qt),
                      static_cast<unsigned>(g.dim) * sizeof(double));
    }
    ++w.distance_calcs;
    const double d2 = sq_dist_early_exit(pt, qt, g.dim, eps2);
    if (d2 <= eps2) {
      const std::uint32_t q = g.candidate_id(k);
      if (both_orders) {
        em.emit_both(key, q);
      } else {
        em.emit(key, q);
      }
    }
  }
}

/// Build the candidate slot-range list of the cell at coordinates `c` —
/// mask-filtering the adjacency, enumerating the neighbourhood (full or
/// UNICOMP) and looking each candidate cell up ONCE PER GROUP instead of
/// once per point (GridIndex::find_cell: the cell table, else a binary
/// search of B). Contiguous ranges with the same orientation are merged:
/// adjacent non-empty cells occupy adjacent slot ranges in the cell-major
/// layout, so the 3^n candidate cells frequently collapse into a few long
/// scans. `c` need not name a non-empty cell itself (a join query group's
/// home cell may hold no data points).
void collect_ranges_at(const GridIndex& index, const std::uint32_t* c,
                       bool unicomp, LocalWork& w,
                       std::vector<CandidateRange>& out) {
  const std::size_t first = out.size();
  const int dim = index.dim();
  std::uint32_t adj[kMaxDims][3];
  int adjn[kMaxDims];
  // The index's fields in locals: the writes to `out` may alias them, so
  // read through `index` they would be reloaded for every candidate cell.
  std::uint64_t stride[kMaxDims];
  for (int j = 0; j < dim; ++j) {
    adjn[j] = index.filtered_adjacent(j, c[j], adj[j]);
    stride[j] = index.stride(j);
  }
  const GridIndex::CellRange* G = index.G().data();
  const std::uint32_t* table =
      index.cell_table().empty() ? nullptr : index.cell_table().data();
  enumerate_neighborhood(
      dim, c, adj, adjn, unicomp,
      [&](const std::uint32_t* cc, bool both) {
        ++w.cells_examined;
        const std::uint64_t id = linearize_cell(cc, stride, dim);
        const std::uint32_t cell =
            table != nullptr ? table[id] : index.find_cell(id);
        if (cell == kEmptyCell) return;
        ++w.cells_nonempty;
        const GridIndex::CellRange r = G[cell];
        const std::uint32_t flag = both ? 1 : 0;
        if (out.size() > first && out.back().end == r.min &&
            out.back().both == flag) {
          out.back().end = r.max + 1;
        } else {
          out.push_back({r.min, r.max + 1, flag});
        }
      });
}

/// Groups one task of the parallel adjacency build resolves: enough
/// enumerations to amortise the task's range buffer, few enough that a
/// grid of a few thousand cells still spreads over the team.
constexpr std::size_t kGroupsPerChunk = 64;

/// Run task(0), ..., task(tasks - 1): over the OpenMP team when there is
/// more than one task, inline otherwise (no thread team for one task).
template <typename F>
void for_each_task(std::size_t tasks, F&& task) {
  if (tasks <= 1) {
    if (tasks == 1) task(std::size_t{0});
    return;
  }
  const auto n = static_cast<std::int64_t>(tasks);
#pragma omp parallel for schedule(dynamic, 1)
  for (std::int64_t k = 0; k < n; ++k) task(static_cast<std::size_t>(k));
}

/// Scan one contiguous candidate range for one query point over the SoA
/// coordinate planes: for each block of kSoaScanBlock candidates (wide
/// enough that a full AVX2/AVX-512 register set covers the lane loop,
/// small enough that a block of partial sums stays in registers) the
/// per-dimension lane loop reads coord[j][k0..k0+bw) — a unit-stride
/// stream with no index arithmetic or gather — and accumulates squared
/// differences branch-free, so the compiler turns it into packed FMAs.
/// The dimension loop still bails out at BLOCK granularity once every
/// lane's partial sum exceeds eps^2.
///
/// A fill or histogram compacts each block's matching ids; the count pass
/// and count-only runs count by popcount without loading orig[]. With
/// `masks` set (the count pass of a masked run), block b's match mask
/// goes to masks[b].
inline void scan_range(const GridDeviceView& g, LocalWork& w, Emitter& em,
                       std::uint32_t key, const double* pt,
                       const CandidateRange& r, double eps2,
                       std::uint16_t* masks, gpu::CacheSim* cache) {
  SJ_EXPECT(r.begin < r.end && r.end <= g.n,
            "candidate range must stay inside the slot space");
  const int dim = g.dim;
  const bool ids = em.needs_ids();
  double acc[kSoaScanBlock];
  for (std::uint32_t k0 = r.begin, b = 0; k0 < r.end;
       k0 += kSoaScanBlock, ++b) {
    const int bw = static_cast<int>(
        std::min<std::uint32_t>(kSoaScanBlock, r.end - k0));
    w.distance_calcs += static_cast<std::uint64_t>(bw);
    w.global_loads += static_cast<std::uint64_t>(bw) * dim;
    w.global_load_bytes +=
        static_cast<std::uint64_t>(bw) * dim * sizeof(double);
    if (cache != nullptr) {
      for (int j = 0; j < dim; ++j) {
        cache->access(reinterpret_cast<std::uint64_t>(g.coord[j] + k0),
                      static_cast<unsigned>(bw) * sizeof(double));
      }
    }
    // Fused single-pass loops for the common low dimensionalities: one
    // sweep writing acc[] directly (no zero-init pass, one loop overhead
    // instead of `dim`), still branch-free and unit-stride per plane.
    if (dim == 2) {
      const double* c0 = g.coord[0] + k0;
      const double* c1 = g.coord[1] + k0;
      const double p0 = pt[0], p1 = pt[1];
      SJ_SIMD_LOOP
      for (int v = 0; v < bw; ++v) {
        const double d0 = c0[v] - p0;
        const double d1 = c1[v] - p1;
        acc[v] = d0 * d0 + d1 * d1;
      }
    } else if (dim == 3) {
      const double* c0 = g.coord[0] + k0;
      const double* c1 = g.coord[1] + k0;
      const double* c2 = g.coord[2] + k0;
      const double p0 = pt[0], p1 = pt[1], p2 = pt[2];
      SJ_SIMD_LOOP
      for (int v = 0; v < bw; ++v) {
        const double d0 = c0[v] - p0;
        const double d1 = c1[v] - p1;
        const double d2 = c2[v] - p2;
        acc[v] = d0 * d0 + d1 * d1 + d2 * d2;
      }
    } else {
      for (int v = 0; v < bw; ++v) acc[v] = 0.0;
      bool block_pruned = false;
      for (int j = 0; j < dim; ++j) {
        const double* plane = g.coord[j] + k0;
        const double pj = pt[j];
        SJ_SIMD_LOOP
        for (int v = 0; v < bw; ++v) {
          const double diff = plane[v] - pj;
          acc[v] += diff * diff;
        }
        // Only bother with the per-block prune in higher dimensions,
        // where the remaining per-lane work it saves outweighs the
        // min-reduction.
        if (j + 1 < dim) {
          double m = acc[0];
          for (int v = 1; v < bw; ++v) m = std::min(m, acc[v]);
          if (m > eps2) {
            block_pruned = true;
            break;
          }
        }
      }
      if (block_pruned) {
        if (masks != nullptr) masks[b] = 0;
        continue;
      }
    }
    if (!ids) {
      unsigned bits = 0;
      for (int v = 0; v < bw; ++v) bits |= (acc[v] <= eps2 ? 1u : 0u) << v;
      if (masks != nullptr) masks[b] = static_cast<std::uint16_t>(bits);
      em.count_block(std::popcount(bits), r.both != 0);
      continue;
    }
    // Branchless compaction: dense blocks match ~half their lanes, so a
    // data-dependent branch here mispredicts constantly; the unconditional
    // orig[] load per lane is far cheaper.
    std::uint32_t match[kSoaScanBlock];
    int m = 0;
    for (int v = 0; v < bw; ++v) {
      match[m] = g.orig[k0 + v];
      m += acc[v] <= eps2 ? 1 : 0;
    }
    if (m > 0) em.emit_block(key, match, m, r.both);
  }
}

/// Fill one unit's pairs from its count-pass match masks (`words`: one
/// per block of each range, in scan order). No coordinate is loaded and
/// no distance computed: each set bit is a find, taken in lane order —
/// the order scan_range emits them, so the bytes are the scan's.
inline void fill_from_masks(const GridDeviceView& g, Emitter& em,
                            std::uint32_t key, const CandidateRange* ranges,
                            std::size_t num_ranges,
                            const std::uint16_t* words) {
  for (std::size_t r = 0; r < num_ranges; ++r) {
    const CandidateRange& cr = ranges[r];
    for (std::uint32_t k0 = cr.begin; k0 < cr.end; k0 += kSoaScanBlock) {
      unsigned bits = *words++;
      if (bits == 0) continue;
      std::uint32_t match[kSoaScanBlock];
      int m = 0;
      for (; bits != 0; bits &= bits - 1) {
        const auto v = static_cast<std::uint32_t>(std::countr_zero(bits));
        match[m++] = g.orig[k0 + v];
      }
      em.emit_block(key, match, m, cr.both);
    }
  }
}

}  // namespace

void self_join_thread(const gpu::ThreadCtx& ctx,
                      const SelfJoinKernelParams& p) {
  const std::uint64_t gid = ctx.global_id();
  if (gid >= p.num_queries) return;  // Algorithm 1, line 3
  const std::uint64_t pid = p.first_query + gid;

  const GridDeviceView& g = p.grid;
  double qbuf[kMaxDims];
  const double* pt = g.query_point(pid, qbuf);
  const std::uint32_t key = g.query_id(pid);

  LocalWork w;
  Emitter em{p.result, w};
  em.begin_unit(pid);
  w.global_loads += static_cast<std::uint64_t>(g.dim);
  w.global_load_bytes += static_cast<std::uint64_t>(g.dim) * sizeof(double);
  if (p.cache != nullptr) {
    p.cache->access(reinterpret_cast<std::uint64_t>(pt),
                    static_cast<unsigned>(g.dim) * sizeof(double));
  }

  // Home cell coordinates (register copy of the point, line 5, then
  // adjacent ranges, line 6).
  std::uint32_t c[kMaxDims];
  g.home_cell(pt, c);

  std::uint32_t adj[kMaxDims][3];
  int adjn[kMaxDims];
  for (int j = 0; j < g.dim; ++j) {
    adjn[j] = filter_adjacent(g.M[j], g.m_size[j], c[j], adj[j]);
  }

  enumerate_neighborhood(g.dim, c, adj, adjn, p.unicomp,
                         [&](const std::uint32_t* cc, bool both) {
                           eval_cell(p, w, em, key, pt, cc, both);
                         });

  em.end_unit(pid);
  if (p.work != nullptr) p.work->flush(w);
}

void grouped_scan_thread(const gpu::ThreadCtx& ctx,
                         const GroupedScanParams& p) {
  const std::uint64_t gid = ctx.global_id();
  if (gid >= p.num_items) return;
  const GroupWorkItem item = p.items[gid];
  const GridDeviceView& g = p.grid;
  SJ_EXPECT(item.begin <= item.end,
            "group work item must name an ordered position range");

  LocalWork w;
  Emitter em{p.result, w};

  // The candidate range list is shared by the whole group — every unit in
  // it has the same home cell.
  const CandidateRange* ranges = p.ranges + p.range_offsets[item.group];
  const std::size_t num_ranges = static_cast<std::size_t>(
      p.range_offsets[item.group + 1] - p.range_offsets[item.group]);
  // A join unit loads its query id from the sorted order; a self-join
  // unit's position is its slot.
  const std::uint64_t id_loads = p.query_order != nullptr ? 1 : 0;
  // The group's match masks: the count pass writes them, a fill reads
  // them in place of the scan.
  const MaskSpan* span = p.result.masks != nullptr
                             ? p.result.mask_spans + item.group
                             : nullptr;
  const bool from_masks = span != nullptr && p.result.out != nullptr;

  const double eps2 = g.eps * g.eps;
  double qbuf[kMaxDims];
  for (std::uint32_t s = item.begin; s < item.end; ++s) {
    const std::uint64_t q = p.query_order != nullptr ? p.query_order[s] : s;
    SJ_INVARIANT(q < g.num_queries(),
                 "a group position must name a valid query");
    std::uint16_t* words =
        span != nullptr
            ? p.result.masks + span->base +
                  std::uint64_t{s - span->first} * span->blocks
            : nullptr;
    em.begin_unit(s);
    if (from_masks) {
      fill_from_masks(g, em, g.query_id(q), ranges, num_ranges, words);
      em.end_unit(s);
      continue;
    }
    const double* pt = g.query_point(q, qbuf);
    w.global_loads += static_cast<std::uint64_t>(g.dim) + id_loads;
    w.global_load_bytes +=
        static_cast<std::uint64_t>(g.dim) * sizeof(double) +
        id_loads * sizeof(std::uint32_t);
    if (p.cache != nullptr) {
      if (g.qpoints != nullptr) {
        p.cache->access(reinterpret_cast<std::uint64_t>(pt),
                        static_cast<unsigned>(g.dim) * sizeof(double));
      } else {
        // A self-join query has no row: one load per plane.
        for (int j = 0; j < g.dim; ++j) {
          p.cache->access(reinterpret_cast<std::uint64_t>(g.coord[j] + q),
                          sizeof(double));
        }
      }
    }
    const std::uint32_t key = g.query_id(q);
    for (std::size_t r = 0; r < num_ranges; ++r) {
      scan_range(g, w, em, key, pt, ranges[r], eps2, words, p.cache);
      if (words != nullptr) words += mask_words(ranges[r]);
    }
    em.end_unit(s);
  }

  if (p.work != nullptr) p.work->flush(w);
}

QueryGroups cell_groups(const GridIndex& index, std::uint32_t cell_begin,
                        std::uint32_t cell_end) {
  QueryGroups groups;
  if (cell_begin == cell_end) return groups;
  const std::vector<GridIndex::CellRange>& G = index.G();
  groups.home_cells.assign(index.B().begin() + cell_begin,
                           index.B().begin() + cell_end);
  groups.group_offsets.reserve(cell_end - cell_begin + 1);
  for (std::uint32_t cell = cell_begin; cell < cell_end; ++cell) {
    groups.group_offsets.push_back(G[cell].min);
  }
  groups.group_offsets.push_back(G[cell_end - 1].max + 1);
  return groups;
}

QueryGroups sorted_query_groups(const GridIndex& index,
                                const Dataset& queries) {
  const Timer timer;
  QueryGroups groups;
  const std::size_t nq = queries.size();

  // Sort the queries by (home data-grid cell, id): groups become
  // contiguous position ranges and the within-group order is
  // deterministic.
  std::vector<CellKey> keys(nq);
  std::uint32_t c[kMaxDims];
  std::uint64_t max_cell = 0;
  for (std::size_t q = 0; q < nq; ++q) {
    index.cell_coords(queries.pt(q), c);
    keys[q] = {index.linearize(c), static_cast<std::uint32_t>(q)};
    max_cell = std::max(max_cell, keys[q].cell);
  }
  sort_cell_keys(keys, max_cell);

  groups.query_order.resize(nq);
  for (std::size_t pos = 0; pos < nq; ++pos) {
    groups.query_order[pos] = keys[pos].id;
    if (pos == 0 || keys[pos].cell != keys[pos - 1].cell) {
      groups.group_offsets.push_back(static_cast<std::uint32_t>(pos));
      groups.home_cells.push_back(keys[pos].cell);
    }
  }
  groups.group_offsets.push_back(static_cast<std::uint32_t>(nq));
  groups.seconds = timer.seconds();
  return groups;
}

GroupAdjacencyHost build_group_adjacency(const GridIndex& index,
                                         QueryGroups groups, bool unicomp) {
  const Timer timer;
  GroupAdjacencyHost adj;
  adj.query_order = std::move(groups.query_order);
  adj.group_offsets = std::move(groups.group_offsets);
  const std::size_t num_groups = groups.home_cells.size();
  adj.weights.assign(num_groups, 0);
  adj.offsets.assign(num_groups + 1, 0);

  // One enumeration pass per group — the same work one point-centric
  // query performs per POINT, so it amortises over the group's
  // population. Fixed-size chunks of groups resolve independently, each
  // into its own range buffer with stack-local counters, and record each
  // group's range count in offsets[g + 1]; a prefix sum over the counts
  // then places every chunk's ranges. A group's ranges depend only on its
  // home cell, so the CSR is byte-identical to a serial build for any
  // thread count. A single chunk resolves inline, without a thread team.
  const std::size_t num_chunks =
      (num_groups + kGroupsPerChunk - 1) / kGroupsPerChunk;
  std::vector<std::vector<CandidateRange>> chunk_ranges(num_chunks);
  std::vector<LocalWork> chunk_work(num_chunks);
  const int dim = index.dim();
  auto resolve = [&](std::size_t k) {
    std::vector<CandidateRange> ranges;
    LocalWork w;  // planning work, not flushed into join counters
    std::uint32_t c[kMaxDims];
    const std::size_t g_end = std::min(num_groups, (k + 1) * kGroupsPerChunk);
    for (std::size_t g = k * kGroupsPerChunk; g < g_end; ++g) {
      const std::uint64_t home = groups.home_cells[g];
      for (int j = 0; j < dim; ++j) {
        c[j] = static_cast<std::uint32_t>((home / index.stride(j)) %
                                          index.cells_in_dim(j));
      }
      const std::size_t first = ranges.size();
      collect_ranges_at(index, c, unicomp, w, ranges);
      std::uint64_t candidates = 0;
      for (std::size_t r = first; r < ranges.size(); ++r) {
        candidates += static_cast<std::uint64_t>(ranges[r].end -
                                                 ranges[r].begin) *
                      (ranges[r].both != 0 ? 2 : 1);
      }
      // candidates x population can exceed 64 bits for a pathological
      // group; saturate so the planner's relative ordering survives
      // instead of wrapping a heavy group down to a tiny weight.
      const unsigned __int128 weight =
          static_cast<unsigned __int128>(candidates) *
          (adj.group_offsets[g + 1] - adj.group_offsets[g]);
      adj.weights[g] = static_cast<std::uint64_t>(std::min<unsigned __int128>(
          weight, std::numeric_limits<std::uint64_t>::max()));
      adj.offsets[g + 1] = ranges.size() - first;
    }
    chunk_ranges[k] = std::move(ranges);
    chunk_work[k] = w;
  };
  for_each_task(num_chunks, resolve);

  for (std::size_t g = 0; g < num_groups; ++g) {
    adj.offsets[g + 1] += adj.offsets[g];
  }
  adj.ranges.resize(static_cast<std::size_t>(adj.offsets[num_groups]));
  for_each_task(num_chunks, [&](std::size_t k) {
    std::copy(chunk_ranges[k].begin(), chunk_ranges[k].end(),
              adj.ranges.begin() + static_cast<std::ptrdiff_t>(
                                       adj.offsets[k * kGroupsPerChunk]));
  });
  for (const LocalWork& w : chunk_work) {
    adj.cells_examined += w.cells_examined;
    adj.cells_nonempty += w.cells_nonempty;
  }
  adj.build_seconds = groups.seconds + timer.seconds();
  if (contracts::active()) {
    // Identity order: the groups are consecutive cells starting at the
    // first group's home cell.
    const GridIndex::CellRange* cells =
        adj.query_order.empty() && num_groups > 0
            ? index.G().data() + index.find_cell(groups.home_cells[0])
            : nullptr;
    validate::group_adjacency(adj, cells, index.num_points(),
                              "build_group_adjacency");
  }
  return adj;
}

GroupAdjacency upload_group_adjacency(gpu::GlobalMemoryArena& arena,
                                      GroupAdjacencyHost host) {
  GroupAdjacency adj;
  if (!host.query_order.empty()) {
    adj.query_order =
        gpu::DeviceBuffer<std::uint32_t>(arena, host.query_order.size());
    std::copy(host.query_order.begin(), host.query_order.end(),
              adj.query_order.data());
  }
  adj.ranges = gpu::DeviceBuffer<CandidateRange>(arena, host.ranges.size());
  std::copy(host.ranges.begin(), host.ranges.end(), adj.ranges.data());
  adj.offsets = gpu::DeviceBuffer<std::uint64_t>(arena, host.offsets.size());
  std::copy(host.offsets.begin(), host.offsets.end(), adj.offsets.data());
  adj.group_offsets = std::move(host.group_offsets);
  adj.cells_examined = host.cells_examined;
  adj.cells_nonempty = host.cells_nonempty;
  adj.build_seconds = host.build_seconds;
  return adj;
}

void brute_force_thread(const gpu::ThreadCtx& ctx,
                        const BruteForceKernelParams& p) {
  const std::uint64_t gid = ctx.global_id();
  if (gid >= p.n) return;
  const std::uint32_t pid = static_cast<std::uint32_t>(gid);
  const double* pt = p.points + static_cast<std::size_t>(pid) * p.dim;
  const double eps2 = p.eps * p.eps;

  LocalWork w;
  Emitter em{p.result, w};
  em.begin_unit(pid);
  for (std::uint64_t q = 0; q < p.n; ++q) {
    const double* qt = p.points + static_cast<std::size_t>(q) * p.dim;
    ++w.distance_calcs;
    const double d2 = sq_dist(pt, qt, p.dim);
    if (d2 <= eps2) em.emit(pid, static_cast<std::uint32_t>(q));
  }
  em.end_unit(pid);
  if (p.work != nullptr) p.work->flush(w);
}

}  // namespace sj
