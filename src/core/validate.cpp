#include "core/validate.hpp"

#include <algorithm>

#include "common/contracts.hpp"

namespace sj::validate {

namespace {

/// `map[0..n)` holds each of 0..n-1 exactly once.
bool is_permutation_of_iota(const std::uint32_t* map, std::uint64_t n) {
  std::vector<bool> seen(static_cast<std::size_t>(n), false);
  for (std::uint64_t k = 0; k < n; ++k) {
    const std::uint32_t v = map[k];
    if (v >= n || seen[v]) return false;
    seen[v] = true;
  }
  return true;
}

/// G ranges tile [0, n) in order: G[0].min == 0, each range follows the
/// previous one with no gap or overlap, and the last ends at n - 1.
void check_cell_ranges_partition(const GridIndex::CellRange* G,
                                 std::uint64_t num_cells, std::uint64_t n,
                                 const char* ctx) {
  if (n == 0) {
    SJ_CHECK(num_cells == 0, ctx);
    return;
  }
  SJ_CHECK(num_cells > 0, ctx);
  std::uint64_t next = 0;
  for (std::uint64_t i = 0; i < num_cells; ++i) {
    SJ_CHECK(G[i].min == next, ctx);
    SJ_CHECK(G[i].max >= G[i].min, ctx);
    next = static_cast<std::uint64_t>(G[i].max) + 1;
  }
  SJ_CHECK(next == n, ctx);
}

void check_strictly_increasing_u64(const std::uint64_t* v, std::uint64_t n,
                                   const char* ctx) {
  for (std::uint64_t i = 1; i < n; ++i) SJ_CHECK(v[i - 1] < v[i], ctx);
}

/// CSR + range-shape checks of the group adjacency. Ranges are
/// validated against [0, n_slots) and each unit's ranges must be pairwise
/// non-overlapping (they describe disjoint candidate cells, possibly
/// merged when contiguous).
void check_adjacency_csr(const std::vector<CandidateRange>& ranges,
                         const std::vector<std::uint64_t>& offsets,
                         const std::vector<std::uint64_t>& weights,
                         std::size_t num_units, std::uint64_t n_slots,
                         const char* ctx) {
  SJ_CHECK(offsets.size() == num_units + 1, ctx);
  SJ_CHECK(offsets.front() == 0, ctx);
  SJ_CHECK(offsets.back() == ranges.size(), ctx);
  SJ_CHECK(weights.size() == num_units, ctx);
  std::vector<CandidateRange> sorted;
  for (std::size_t u = 0; u < num_units; ++u) {
    SJ_CHECK(offsets[u] <= offsets[u + 1], ctx);
    sorted.assign(ranges.begin() + static_cast<std::ptrdiff_t>(offsets[u]),
                  ranges.begin() + static_cast<std::ptrdiff_t>(offsets[u + 1]));
    for (const CandidateRange& r : sorted) {
      SJ_CHECK(r.begin < r.end, ctx);
      SJ_CHECK(r.end <= n_slots, ctx);
      SJ_CHECK(r.both == 0 || r.both == 1, ctx);
    }
    // The enumeration visits cells in odometer order, not slot order;
    // sort a copy to test pairwise disjointness.
    std::sort(sorted.begin(), sorted.end(),
              [](const CandidateRange& a, const CandidateRange& b) {
                return a.begin < b.begin;
              });
    for (std::size_t r = 1; r < sorted.size(); ++r) {
      SJ_CHECK(sorted[r - 1].end <= sorted[r].begin, ctx);
    }
  }
}

void check_masks(const std::uint32_t* const* masks, const std::uint64_t* sizes,
                 const std::uint32_t* cells_per_dim, int dim,
                 const char* ctx) {
  for (int j = 0; j < dim; ++j) {
    for (std::uint64_t i = 0; i < sizes[j]; ++i) {
      SJ_CHECK(masks[j][i] < cells_per_dim[j], ctx);
      if (i > 0) SJ_CHECK(masks[j][i - 1] < masks[j][i], ctx);
    }
  }
}

/// The table inverts B exactly: every non-empty cell maps to its own B
/// index, and no other entry names a cell.
void check_cell_table(const std::vector<std::uint32_t>& table,
                      const std::vector<std::uint64_t>& B, const char* ctx) {
  for (std::size_t i = 0; i < B.size(); ++i) {
    SJ_CHECK(B[i] < table.size() && table[B[i]] == i, ctx);
  }
  const auto named = static_cast<std::size_t>(
      std::count_if(table.begin(), table.end(),
                    [](std::uint32_t e) { return e != kEmptyCell; }));
  SJ_CHECK(named == B.size(), ctx);
}

}  // namespace

void grid_index(const GridIndex& index, const Dataset& d, const char* ctx) {
  contracts::ScopedTimer timer;
  const std::uint64_t n = d.size();
  SJ_CHECK(index.num_points() == n, ctx);
  SJ_CHECK(index.dim() == d.dim(), ctx);

  const std::vector<std::uint64_t>& B = index.B();
  const std::vector<GridIndex::CellRange>& G = index.G();
  const std::vector<std::uint32_t>& A = index.A();
  SJ_CHECK(G.size() == B.size(), ctx);
  check_strictly_increasing_u64(B.data(), B.size(), ctx);
  check_cell_ranges_partition(G.data(), G.size(), n, ctx);
  SJ_CHECK(is_permutation_of_iota(A.data(), n), ctx);

  const std::uint32_t* masks[kMaxDims] = {};
  std::uint64_t mask_sizes[kMaxDims] = {};
  std::uint32_t cells[kMaxDims] = {};
  for (int j = 0; j < index.dim(); ++j) {
    masks[j] = index.mask(j).data();
    mask_sizes[j] = index.mask(j).size();
    cells[j] = index.cells_in_dim(j);
  }
  check_masks(masks, mask_sizes, cells, index.dim(), ctx);

  // Every slot's point must fall in the cell that owns the slot: the
  // binding between the spatial hash and the A ranges.
  std::uint32_t coords[kMaxDims];
  for (std::size_t cell = 0; cell < B.size(); ++cell) {
    for (std::uint32_t k = G[cell].min; k <= G[cell].max; ++k) {
      index.cell_coords(d.pt(A[k]), coords);
      SJ_CHECK(index.linearize(coords) == B[cell], ctx);
    }
  }

  if (!index.cell_table().empty()) {
    SJ_CHECK(index.cell_table().size() == index.total_cells(), ctx);
    check_cell_table(index.cell_table(), B, ctx);
  }
}

void cell_table(const std::vector<std::uint32_t>& table,
                const std::vector<std::uint64_t>& B, const char* ctx) {
  contracts::ScopedTimer timer;
  check_cell_table(table, B, ctx);
}

void device_grid(const GridDeviceView& v, const Dataset* d, const char* ctx) {
  contracts::ScopedTimer timer;
  SJ_CHECK((v.dim >= 1 || v.n == 0) && v.dim <= kMaxDims, ctx);

  // One image per layout: planes and the slot -> id map in cell-major,
  // rows, A and the searchable index (B, G, masks) in legacy.
  if (v.cell_major) {
    SJ_CHECK(v.A == nullptr && v.points == nullptr, ctx);
    SJ_CHECK(v.B == nullptr && v.b_size == 0 && v.G == nullptr, ctx);
    for (int j = 0; j < v.dim; ++j) {
      SJ_CHECK(v.M[j] == nullptr && v.m_size[j] == 0, ctx);
    }
    SJ_CHECK(v.orig != nullptr || v.n == 0, ctx);
    if (v.n > 0) {
      SJ_CHECK(is_permutation_of_iota(v.orig, v.n), ctx);
      for (int j = 0; j < v.dim; ++j) SJ_CHECK(v.coord[j] != nullptr, ctx);
    }
  } else {
    SJ_CHECK(v.orig == nullptr && v.coord[0] == nullptr, ctx);
    check_strictly_increasing_u64(v.B, v.b_size, ctx);
    check_cell_ranges_partition(v.G, v.b_size, v.n, ctx);
    check_masks(v.M, v.m_size, v.cells_per_dim, v.dim, ctx);
    if (v.n > 0) {
      SJ_CHECK(v.points != nullptr && v.A != nullptr, ctx);
      SJ_CHECK(is_permutation_of_iota(v.A, v.n), ctx);
    }
  }

  if (d != nullptr) {
    SJ_CHECK(v.n == d->size(), ctx);
    SJ_CHECK(v.dim == d->dim(), ctx);
    // Slot k of the device image holds the source point it claims to:
    // point orig[k] in the planes (cell-major reorders), row k in legacy.
    for (std::uint64_t k = 0; k < v.n; ++k) {
      const double* want = d->pt(v.cell_major ? v.orig[k] : k);
      for (int j = 0; j < v.dim; ++j) {
        const double got =
            v.cell_major ? v.coord[j][k]
                         : v.points[static_cast<std::size_t>(k) * v.dim + j];
        SJ_CHECK(got == want[j], ctx);
      }
    }
  }
}

void group_adjacency(const GroupAdjacencyHost& adj,
                     const GridIndex::CellRange* cells, std::uint64_t n_slots,
                     const char* ctx) {
  contracts::ScopedTimer timer;
  const std::size_t groups = adj.num_groups();
  const std::vector<std::uint32_t>& go = adj.group_offsets;
  if (adj.query_order.empty()) {
    // Identity order: the groups are cells and their positions the
    // cells' slots.
    SJ_CHECK(groups == 0 || cells != nullptr, ctx);
    for (std::size_t g = 0; g < groups; ++g) {
      SJ_CHECK(go[g] == cells[g].min, ctx);
    }
    if (groups > 0) {
      SJ_CHECK(go.back() ==
                   static_cast<std::uint64_t>(cells[groups - 1].max) + 1,
               ctx);
    }
  } else {
    const std::uint64_t queries = adj.query_order.size();
    SJ_CHECK(is_permutation_of_iota(adj.query_order.data(), queries), ctx);
    SJ_CHECK(!go.empty() && go.front() == 0 && go.back() == queries, ctx);
  }
  // Strictly increasing: every group holds at least one unit.
  for (std::size_t g = 1; g < go.size(); ++g) {
    SJ_CHECK(go[g - 1] < go[g], ctx);
  }
  check_adjacency_csr(adj.ranges, adj.offsets, adj.weights, groups, n_slots,
                      ctx);
}

void shard_boundaries(const std::vector<std::uint32_t>& boundaries,
                      std::size_t num_units, const char* ctx) {
  contracts::ScopedTimer timer;
  SJ_CHECK(boundaries.size() >= 2, ctx);
  SJ_CHECK(boundaries.front() == 0, ctx);
  SJ_CHECK(boundaries.back() == num_units, ctx);
  for (std::size_t i = 1; i < boundaries.size(); ++i) {
    // Strict: every shard owns at least one unit (disjoint cover with no
    // idle boundary), except the degenerate {0, 0} empty plan.
    if (num_units > 0) SJ_CHECK(boundaries[i - 1] < boundaries[i], ctx);
  }
}

void shard_boundaries(const std::vector<std::uint32_t>& boundaries,
                      const std::vector<std::uint64_t>& unit_weights,
                      const char* ctx) {
  shard_boundaries(boundaries, unit_weights.size(), ctx);
  contracts::ScopedTimer timer;
  unsigned __int128 total = 0;
  for (const std::uint64_t w : unit_weights) total += w;
  if (total == 0) return;  // an all-zero profile keeps its single part
  for (std::size_t p = 0; p + 1 < boundaries.size(); ++p) {
    unsigned __int128 part = 0;
    for (std::uint32_t u = boundaries[p]; u < boundaries[p + 1]; ++u) {
      part += unit_weights[u];
    }
    // The planner coalesces weightless parts, so none may survive.
    SJ_CHECK(part > 0, ctx);
  }
}

void chunklet_plan(const ChunkletPlan& plan,
                   const std::vector<std::uint64_t>& unit_weights,
                   std::size_t devices, const char* ctx) {
  shard_boundaries(plan.bounds, unit_weights, ctx);
  contracts::ScopedTimer timer;
  SJ_CHECK(plan.weights.size() == plan.bounds.size() - 1, ctx);
  for (std::size_t c = 0; c < plan.weights.size(); ++c) {
    std::uint64_t w = 0;
    for (std::uint32_t u = plan.bounds[c]; u < plan.bounds[c + 1]; ++u) {
      w += unit_weights[u];
    }
    SJ_CHECK(plan.weights[c] == w, ctx);
  }
  shard_boundaries(plan.device_bounds, plan.weights, ctx);
  SJ_CHECK(plan.devices() <= std::max<std::size_t>(devices, 1), ctx);
}

void shard_slice(const ShardSlice& s, std::uint64_t n_slots, const char* ctx) {
  contracts::ScopedTimer timer;
  SJ_CHECK(s.unit_begin <= s.unit_end, ctx);
  SJ_CHECK(s.owned_begin <= s.owned_end, ctx);
  SJ_CHECK(s.owned_end <= n_slots, ctx);

  std::uint32_t next_local = s.owned_points();
  for (std::size_t h = 0; h < s.halo.size(); ++h) {
    const HaloInterval& hi = s.halo[h];
    SJ_CHECK(hi.begin < hi.end, ctx);
    SJ_CHECK(hi.end <= n_slots, ctx);
    // Entirely outside the owned span.
    SJ_CHECK(hi.end <= s.owned_begin || hi.begin >= s.owned_end, ctx);
    // Sorted and disjoint (merged intervals never touch).
    if (h > 0) SJ_CHECK(s.halo[h - 1].end < hi.begin, ctx);
    // Local numbering is the contiguous chain after the owned span.
    SJ_CHECK(hi.local_begin == next_local, ctx);
    next_local += hi.end - hi.begin;
    // Remap round-trip over the interval endpoints.
    SJ_CHECK(s.to_local(hi.begin) == hi.local_begin, ctx);
    SJ_CHECK(s.to_local(hi.end - 1) == hi.local_begin + (hi.end - hi.begin) - 1,
             ctx);
  }
  SJ_CHECK(next_local == s.local_points(), ctx);
  if (s.owned_end > s.owned_begin) {
    SJ_CHECK(s.to_local(s.owned_begin) == 0, ctx);
    SJ_CHECK(s.to_local(s.owned_end - 1) == s.owned_points() - 1, ctx);
  }

  const std::size_t units = s.unit_end - s.unit_begin;
  SJ_CHECK(s.offsets.size() == units + 1, ctx);
  SJ_CHECK(s.offsets.front() == 0, ctx);
  SJ_CHECK(s.offsets.back() == s.ranges.size(), ctx);
  for (std::size_t u = 1; u < s.offsets.size(); ++u) {
    SJ_CHECK(s.offsets[u - 1] <= s.offsets[u], ctx);
  }
  for (const CandidateRange& r : s.ranges) {
    SJ_CHECK(r.begin < r.end, ctx);
    SJ_CHECK(r.end <= s.local_points(), ctx);
    SJ_CHECK(r.both == 0 || r.both == 1, ctx);
  }
}

}  // namespace sj::validate
