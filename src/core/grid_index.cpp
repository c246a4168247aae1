#include "core/grid_index.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "common/contracts.hpp"
#include "core/validate.hpp"

namespace sj {

GridIndex::GridIndex(const Dataset& d, double eps) {
  if (eps < 0.0) throw std::invalid_argument("GridIndex: eps must be >= 0");
  if (d.dim() > kMaxDims) {
    throw std::invalid_argument(
        "GridIndex: dim " + std::to_string(d.dim()) + " exceeds kMaxDims=" +
        std::to_string(kMaxDims) + " (the fixed-size per-dimension arrays)");
  }
  if (d.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("GridIndex: dataset too large for 32-bit ids");
  }
  dim_ = d.dim();
  eps_ = eps;
  // Width is padded by a tiny relative margin so that two points exactly
  // eps apart can never straddle more than one cell boundary after
  // floating-point division — the bounded adjacent-cell search stays
  // correct for any cell width >= eps.
  width_ = eps > 0.0 ? eps * (1.0 + 1e-12) : 1.0;

  const std::size_t n = d.size();
  if (n == 0) {
    // Degenerate but valid: no cells, queries find nothing.
    for (int j = 0; j < dim_; ++j) {
      cells_per_dim_[j] = 0;
      stride_[j] = (j == 0) ? 1 : 0;
    }
    return;
  }

  // Index range [gmin_j, gmax_j] appended by eps on both sides to avoid
  // boundary conditions in cell lookups (Section IV-B).
  const auto lo = d.min_bound();
  const auto hi = d.max_bound();
  for (int j = 0; j < dim_; ++j) {
    gmin_[j] = lo[j] - width_;
    gmax_[j] = hi[j] + width_;
  }

  // |g_j| = (gmax_j - gmin_j) / eps, rounded up so the grid always covers
  // the padded range (the paper assumes eps divides evenly; we do not).
  unsigned __int128 total = 1;
  for (int j = 0; j < dim_; ++j) {
    const double span = gmax_[j] - gmin_[j];
    const auto cells = static_cast<std::uint64_t>(std::ceil(span / width_));
    const std::uint64_t c = std::max<std::uint64_t>(cells, 1);
    if (c > std::numeric_limits<std::uint32_t>::max()) {
      throw std::overflow_error("GridIndex: too many cells in one dimension");
    }
    cells_per_dim_[j] = static_cast<std::uint32_t>(c);
    total *= c;
  }
  if (total > std::numeric_limits<std::uint64_t>::max()) {
    throw std::overflow_error(
        "GridIndex: linearised cell ids exceed 64 bits; increase eps");
  }
  stride_[0] = 1;
  for (int j = 1; j < dim_; ++j) {
    stride_[j] = stride_[j - 1] * cells_per_dim_[j - 1];
  }

  // Bin points: (linear cell id, point id), sorted by cell then id. The
  // sort groups each cell's points contiguously, giving A directly and
  // the unique cell ids giving B and G. The index build is the serialized
  // prefix of every sharded run, so the radix sort's constant factor
  // directly caps multi-device strong scaling.
  std::vector<CellKey> entries(n);
  std::uint32_t coords[kMaxDims];
  std::uint64_t max_cell = 0;
  for (std::size_t i = 0; i < n; ++i) {
    cell_coords(d.pt(i), coords);
    entries[i].cell = linearize(coords);
    entries[i].id = static_cast<std::uint32_t>(i);
    max_cell = std::max(max_cell, entries[i].cell);
  }
  sort_cell_keys(entries, max_cell);

  A_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    A_[i] = entries[i].id;
    if (i == 0 || entries[i].cell != entries[i - 1].cell) {
      B_.push_back(entries[i].cell);
      G_.push_back({static_cast<std::uint32_t>(i),
                    static_cast<std::uint32_t>(i)});
    } else {
      G_.back().max = static_cast<std::uint32_t>(i);
    }
  }

  // Masking arrays: the non-empty coordinates per dimension.
  for (int j = 0; j < dim_; ++j) M_[j] = mask_from_cells(j);
  build_cell_table();

  if (contracts::active()) validate::grid_index(*this, d, "GridIndex(build)");
}

std::vector<std::uint32_t> GridIndex::mask_from_cells(int j) const {
  std::vector<std::uint32_t> m;
  m.reserve(B_.size());
  for (const std::uint64_t cell : B_) {
    m.push_back(
        static_cast<std::uint32_t>((cell / stride_[j]) % cells_per_dim_[j]));
  }
  std::sort(m.begin(), m.end());
  m.erase(std::unique(m.begin(), m.end()), m.end());
  return m;
}

void GridIndex::build_cell_table() {
  const std::uint64_t n = A_.size();
  const std::uint64_t cells = total_cells();
  table_.clear();
  if (n == 0 ||
      cells > std::max(kCellTableMinEntries, kCellTableEntriesPerPoint * n)) {
    return;
  }
  table_.assign(static_cast<std::size_t>(cells), kEmptyCell);
  for (std::size_t i = 0; i < B_.size(); ++i) {
    table_[static_cast<std::size_t>(B_[i])] = static_cast<std::uint32_t>(i);
  }
}

void sort_cell_keys(std::vector<CellKey>& keys, std::uint64_t max_cell) {
  std::vector<CellKey> tmp(keys.size());
  for (int shift = 0; shift < 64 && (max_cell >> shift) != 0; shift += 8) {
    std::size_t count[257] = {};
    for (const CellKey& k : keys) ++count[((k.cell >> shift) & 0xFF) + 1];
    for (int b = 1; b <= 256; ++b) count[b] += count[b - 1];
    for (const CellKey& k : keys) tmp[count[(k.cell >> shift) & 0xFF]++] = k;
    keys.swap(tmp);
  }
}

GridIndex::Parts GridIndex::to_parts() const {
  Parts p;
  p.dim = dim_;
  p.eps = eps_;
  p.width = width_;
  for (int j = 0; j < kMaxDims; ++j) {
    p.gmin[j] = gmin_[j];
    p.gmax[j] = gmax_[j];
    p.cells_per_dim[j] = cells_per_dim_[j];
    p.stride[j] = stride_[j];
  }
  p.B = B_;
  p.G = G_;
  p.A = A_;
  for (int j = 0; j < kMaxDims; ++j) p.M[j] = M_[j];
  return p;
}

GridIndex GridIndex::from_parts(Parts parts, const Dataset& d) {
  // Disk-sourced structure is untrusted regardless of the build's
  // contracts setting, and the deep validators ABORT on violation
  // (internal-invariant semantics) — so this path re-does their checks
  // with THROW semantics, letting a caller fall back to a rebuild. The
  // abort-style validator still runs at the end under contracts builds,
  // keeping the two check sets from drifting apart.
  auto reject = [](const std::string& why) {
    throw std::runtime_error("GridIndex::from_parts: " + why);
  };
  const std::size_t n = d.size();
  if (parts.dim <= 0 || parts.dim > kMaxDims || parts.dim != d.dim()) {
    reject("dim " + std::to_string(parts.dim) +
           " is invalid or does not match the dataset's " +
           std::to_string(d.dim()));
  }
  if (parts.A.size() != n) {
    reject("index covers " + std::to_string(parts.A.size()) +
           " points but the dataset has " + std::to_string(n));
  }
  if (!(parts.eps >= 0.0) || !(parts.width > 0.0) ||
      !std::isfinite(parts.width) || parts.width < parts.eps) {
    reject("eps/cell-width fields are non-finite or inconsistent");
  }
  if (parts.G.size() != parts.B.size()) {
    reject("G and B disagree on the non-empty cell count");
  }
  if (n > 0 && parts.stride[0] != 1) reject("stride[0] must be 1");
  for (int j = 0; j < parts.dim; ++j) {
    if (n > 0 && parts.cells_per_dim[j] == 0) {
      reject("cells_per_dim has a zero entry for a non-empty dataset");
    }
  }
  for (int j = 1; j < parts.dim; ++j) {
    if (parts.stride[j] !=
        parts.stride[j - 1] * parts.cells_per_dim[j - 1]) {
      reject("stride table is not the row-major product of cells_per_dim");
    }
  }
  // B strictly increasing; G's ranges partition [0, n) in order.
  std::uint32_t next_slot = 0;
  for (std::size_t c = 0; c < parts.B.size(); ++c) {
    if (c > 0 && parts.B[c] <= parts.B[c - 1]) {
      reject("B is not strictly increasing");
    }
    if (parts.G[c].min != next_slot || parts.G[c].max < parts.G[c].min) {
      reject("G ranges do not partition the slot space");
    }
    next_slot = parts.G[c].max + 1;
  }
  if (parts.B.empty() ? n != 0 : next_slot != n) {
    reject("G ranges do not cover every point");
  }
  // A is a permutation of [0, n).
  std::vector<bool> seen(n, false);
  for (const std::uint32_t pid : parts.A) {
    if (pid >= n || seen[pid]) reject("A is not a permutation of the ids");
    seen[pid] = true;
  }

  GridIndex g;
  g.dim_ = parts.dim;
  g.eps_ = parts.eps;
  g.width_ = parts.width;
  for (int j = 0; j < kMaxDims; ++j) {
    g.gmin_[j] = parts.gmin[j];
    g.gmax_[j] = parts.gmax[j];
    g.cells_per_dim_[j] = parts.cells_per_dim[j];
    g.stride_[j] = parts.stride[j];
  }
  g.B_ = std::move(parts.B);
  g.G_ = std::move(parts.G);
  g.A_ = std::move(parts.A);
  for (int j = 0; j < kMaxDims; ++j) g.M_[j] = std::move(parts.M[j]);

  // Binding between the spatial hash and the slot ranges: every slot's
  // point re-hashes to the cell that owns the slot. Also recompute the
  // masks from B — cheaper to verify by reconstruction than by rule.
  std::uint32_t coords[kMaxDims];
  for (std::size_t c = 0; c < g.B_.size(); ++c) {
    for (std::uint32_t k = g.G_[c].min; k <= g.G_[c].max; ++k) {
      g.cell_coords(d.pt(g.A_[k]), coords);
      if (g.linearize(coords) != g.B_[c]) {
        reject("a point does not re-hash to the cell that owns its slot");
      }
    }
  }
  for (int j = 0; j < g.dim_; ++j) {
    if (g.mask_from_cells(j) != g.M_[j]) reject("mask arrays do not match B");
  }
  g.build_cell_table();

  if (contracts::active()) {
    validate::grid_index(g, d, "GridIndex::from_parts(snapshot restore)");
  }
  return g;
}

std::uint64_t GridIndex::total_cells() const {
  unsigned __int128 total = 1;
  for (int j = 0; j < dim_; ++j) {
    total *= cells_per_dim_[j];
    if (total > std::numeric_limits<std::uint64_t>::max()) {
      return std::numeric_limits<std::uint64_t>::max();
    }
  }
  return static_cast<std::uint64_t>(total);
}

}  // namespace sj
