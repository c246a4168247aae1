#include "reference.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace perfbench {

namespace {

double squared_distance(const double* a, const double* b, int dim) {
  double acc = 0.0;
  for (int j = 0; j < dim; ++j) {
    const double d = a[j] - b[j];
    acc += d * d;
  }
  return acc;
}

}  // namespace

ReferenceGrid::ReferenceGrid(const sj::Dataset& data, double eps)
    : data_(data), eps_(eps), dim_(data.dim()) {
  if (!(eps > 0.0)) throw std::invalid_argument("reference grid: eps <= 0");
  const auto lo = data.min_bound();
  const auto hi = data.max_bound();
  double total_cells = 1.0;
  for (int j = 0; j < dim_; ++j) {
    lo_[j] = lo[j];
    cells_[j] = static_cast<std::int64_t>(std::floor((hi[j] - lo[j]) / eps)) + 1;
    total_cells *= static_cast<double>(cells_[j]);
  }
  if (total_cells > 0x1.0p62) {
    throw std::invalid_argument("reference grid: too many cells");
  }

  const std::size_t n = data.size();
  std::vector<std::pair<std::uint64_t, std::uint32_t>> keyed(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t id = 0;
    for (int j = 0; j < dim_; ++j) {
      const auto c = std::clamp<std::int64_t>(
          static_cast<std::int64_t>(std::floor((data.coord(i, j) - lo_[j]) / eps)),
          0, cells_[j] - 1);
      id = id * static_cast<std::uint64_t>(cells_[j]) +
           static_cast<std::uint64_t>(c);
    }
    keyed[i] = {id, static_cast<std::uint32_t>(i)};
  }
  std::sort(keyed.begin(), keyed.end());
  members_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (i == 0 || keyed[i].first != keyed[i - 1].first) {
      cell_ids_.push_back(keyed[i].first);
      starts_.push_back(static_cast<std::uint32_t>(i));
    }
    members_.push_back(keyed[i].second);
  }
  starts_.push_back(static_cast<std::uint32_t>(n));
}

template <typename Visit>
void ReferenceGrid::visit_neighbors(const double* q, Visit&& visit) const {
  // The 3^dim block of cells around q's cell, clipped to the grid.
  std::array<std::int64_t, sj::kMaxDims> first{}, last{}, cur{};
  for (int j = 0; j < dim_; ++j) {
    const double c = std::floor((q[j] - lo_[j]) / eps_);
    const double clamped =
        std::clamp(c, -2.0, static_cast<double>(cells_[j]) + 1.0);
    const auto home = static_cast<std::int64_t>(clamped);
    first[j] = std::max<std::int64_t>(home - 1, 0);
    last[j] = std::min<std::int64_t>(home + 1, cells_[j] - 1);
    if (first[j] > last[j]) return;
    cur[j] = first[j];
  }
  const double eps2 = eps_ * eps_;
  for (;;) {
    std::uint64_t id = 0;
    for (int j = 0; j < dim_; ++j) {
      id = id * static_cast<std::uint64_t>(cells_[j]) +
           static_cast<std::uint64_t>(cur[j]);
    }
    const auto it = std::lower_bound(cell_ids_.begin(), cell_ids_.end(), id);
    if (it != cell_ids_.end() && *it == id) {
      const auto c = static_cast<std::size_t>(it - cell_ids_.begin());
      for (std::uint32_t m = starts_[c]; m < starts_[c + 1]; ++m) {
        const std::uint32_t p = members_[m];
        if (squared_distance(q, data_.pt(p), dim_) <= eps2) visit(p);
      }
    }
    int j = dim_ - 1;
    while (j >= 0 && cur[j] == last[j]) {
      cur[j] = first[j];
      --j;
    }
    if (j < 0) return;
    ++cur[j];
  }
}

void ReferenceGrid::neighbors(const double* q,
                              std::vector<std::uint32_t>& out) const {
  out.clear();
  visit_neighbors(q, [&out](std::uint32_t p) { out.push_back(p); });
  std::sort(out.begin(), out.end());
}

PairDigest ReferenceGrid::self_join() const {
  PairDigest digest;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    const auto key = static_cast<std::uint32_t>(i);
    visit_neighbors(data_.pt(i),
                    [&digest, key](std::uint32_t p) { digest.add(key, p); });
  }
  return digest;
}

}  // namespace perfbench
