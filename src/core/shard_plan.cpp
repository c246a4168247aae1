#include "core/shard_plan.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "common/contracts.hpp"

namespace sj {

std::uint32_t ShardSlice::to_local(std::uint32_t global_slot) const {
  if (global_slot >= owned_begin && global_slot < owned_end) {
    return global_slot - owned_begin;
  }
  // Last interval with begin <= global_slot.
  const auto it = std::upper_bound(
      halo.begin(), halo.end(), global_slot,
      [](std::uint32_t slot, const HaloInterval& h) { return slot < h.begin; });
  if (it == halo.begin() || global_slot >= (it - 1)->end) {
    throw std::out_of_range("ShardSlice::to_local: slot " +
                            std::to_string(global_slot) +
                            " is neither owned nor halo");
  }
  return (it - 1)->local_begin + (global_slot - (it - 1)->begin);
}

std::vector<std::uint64_t> proxy_cell_weights(const GridIndex& index) {
  const std::vector<GridIndex::CellRange>& G = index.G();
  const std::size_t num_cells = G.size();
  std::vector<std::uint64_t> weights(num_cells, 0);
  auto pop = [&](std::size_t cell) -> std::uint64_t {
    return static_cast<std::uint64_t>(G[cell].max) - G[cell].min + 1;
  };
  for (std::size_t cell = 0; cell < num_cells; ++cell) {
    std::uint64_t window = pop(cell);
    if (cell > 0) window += pop(cell - 1);
    if (cell + 1 < num_cells) window += pop(cell + 1);
    const unsigned __int128 w =
        static_cast<unsigned __int128>(pop(cell)) * window;
    weights[cell] = static_cast<std::uint64_t>(std::min<unsigned __int128>(
        w, std::numeric_limits<std::uint64_t>::max()));
  }
  return weights;
}

std::vector<std::uint32_t> weighted_partition(
    const std::vector<std::uint64_t>& weights, std::size_t parts) {
  const std::size_t num_units = weights.size();
  // max_end below underflows if a part cannot take its one guaranteed
  // unit; every caller clamps parts into [1, num_units] first.
  SJ_EXPECT(parts >= 1 && parts <= num_units,
            "weighted_partition: parts must be clamped into [1, num_units]");
  // Weights are per-cell candidate-pair counts and can sum past 64 bits
  // in adversarial cases; accumulate in 128 bits.
  unsigned __int128 total = 0;
  for (const std::uint64_t w : weights) total += w;

  std::vector<std::uint32_t> boundaries;
  boundaries.reserve(parts + 1);
  boundaries.push_back(0);
  std::size_t pos = 0;
  unsigned __int128 cum = 0;
  for (std::size_t b = 0; b + 1 < parts; ++b) {
    // Close part b where the cumulative weight reaches its equal share,
    // taking at least one unit and leaving one for every later part.
    const unsigned __int128 target =
        total * static_cast<unsigned __int128>(b + 1) / parts;
    const std::size_t max_end = num_units - (parts - 1 - b);
    do {
      cum += weights[pos];
      ++pos;
    } while (pos < max_end && cum < target);
    boundaries.push_back(static_cast<std::uint32_t>(pos));
  }
  boundaries.push_back(static_cast<std::uint32_t>(num_units));
  SJ_ENSURE(boundaries.size() == parts + 1 && boundaries.front() == 0 &&
                boundaries.back() == num_units,
            "weighted_partition: boundaries must cover every unit");
  return boundaries;
}

std::vector<std::uint32_t> plan_shard_boundaries(
    const std::vector<std::uint64_t>& weights, std::size_t shards) {
  const std::size_t k =
      std::clamp<std::size_t>(shards, 1, std::max<std::size_t>(weights.size(), 1));
  if (weights.empty()) return {0, 0};
  const std::vector<std::uint32_t> raw = weighted_partition(weights, k);
  SJ_ENSURE(raw.size() == k + 1 && raw.front() == 0 &&
                raw.back() == weights.size(),
            "shard boundaries must cover all units with K parts");
  // Coalesce zero-weight parts: weighted_partition's one-unit-per-part
  // floor can close weightless shards when a giant unit absorbs the total
  // (e.g. weights {100, 0, 0, 0} into 4 parts). A zero-weight part merges
  // into its predecessor; leading zeros ride forward into the first part
  // that carries weight. An all-zero total keeps the single full-range
  // part.
  std::vector<std::uint32_t> bounds;
  bounds.reserve(raw.size());
  bounds.push_back(0);
  unsigned __int128 part_weight = 0;
  for (std::size_t p = 0; p + 1 < raw.size(); ++p) {
    for (std::uint32_t u = raw[p]; u < raw[p + 1]; ++u) part_weight += weights[u];
    if (part_weight > 0) {
      bounds.push_back(raw[p + 1]);
      part_weight = 0;
    }
  }
  if (bounds.back() != weights.size()) {
    // Trailing zero-weight units fold into the last weighted part (or
    // form the single part of an all-zero plan).
    if (bounds.size() > 1) {
      bounds.back() = static_cast<std::uint32_t>(weights.size());
    } else {
      bounds.push_back(static_cast<std::uint32_t>(weights.size()));
    }
  }
  SJ_ENSURE(bounds.size() >= 2 && bounds.front() == 0 &&
                bounds.back() == weights.size(),
            "coalesced shard boundaries must still cover every unit");
  return bounds;
}

ChunkletPlan plan_chunklets(const std::vector<std::uint64_t>& unit_weights,
                            std::size_t devices, std::size_t chunklets) {
  ChunkletPlan plan;
  const std::size_t units = unit_weights.size();
  if (units == 0) {
    // Degenerate empty plan: no chunklets, no devices (mirrors
    // plan_shard_boundaries' {0, 0} convention for the unit bounds).
    plan.bounds = {0, 0};
    return plan;
  }
  const std::size_t k = std::clamp<std::size_t>(devices, 1, units);
  std::size_t m = chunklets == 0 ? kChunkletsPerDevice * k : chunklets;
  m = std::clamp(m, k, units);
  plan.bounds = plan_shard_boundaries(unit_weights, m);

  const std::size_t m_eff = plan.bounds.size() - 1;
  plan.weights.resize(m_eff);
  for (std::size_t c = 0; c < m_eff; ++c) {
    std::uint64_t w = 0;
    for (std::uint32_t u = plan.bounds[c]; u < plan.bounds[c + 1]; ++u) {
      w += unit_weights[u];
    }
    plan.weights[c] = w;
  }
  // Seed the devices with contiguous chunklet groups by the same balance
  // rule — the static PR-5 plan, which stealing then corrects.
  plan.device_bounds =
      plan_shard_boundaries(plan.weights, std::min(k, m_eff));
  return plan;
}

ShardSlice make_shard_slice(const std::vector<CandidateRange>& ranges,
                            const std::vector<std::uint64_t>& offsets,
                            const std::vector<std::uint64_t>& weights,
                            std::uint32_t unit_begin, std::uint32_t unit_end,
                            std::uint32_t owned_begin,
                            std::uint32_t owned_end) {
  SJ_EXPECT(unit_begin <= unit_end &&
                static_cast<std::size_t>(unit_end) < offsets.size(),
            "make_shard_slice unit range must fit the adjacency CSR");
  SJ_EXPECT(owned_begin <= owned_end,
            "make_shard_slice owned span must be a valid interval");
  ShardSlice s;
  s.unit_begin = unit_begin;
  s.unit_end = unit_end;
  s.owned_begin = owned_begin;
  s.owned_end = owned_end;

  const std::size_t r0 = static_cast<std::size_t>(offsets[unit_begin]);
  const std::size_t r1 = static_cast<std::size_t>(offsets[unit_end]);

  // --- Pass 1: every piece of a candidate range outside the owned span
  // is halo; merge the pieces into maximal disjoint intervals. Adjacent
  // cells occupy adjacent slots in the cell-major layout, so the 3^n
  // neighbourhoods of a contiguous cell range collapse into few intervals.
  std::vector<HaloInterval> pieces;
  for (std::size_t r = r0; r < r1; ++r) {
    const std::uint32_t b = ranges[r].begin;
    const std::uint32_t e = ranges[r].end;
    if (b < owned_begin) {
      pieces.push_back({b, std::min(e, owned_begin), 0});
    }
    if (e > owned_end) {
      pieces.push_back({std::max(b, owned_end), e, 0});
    }
  }
  std::sort(pieces.begin(), pieces.end(),
            [](const HaloInterval& a, const HaloInterval& b) {
              return a.begin != b.begin ? a.begin < b.begin : a.end < b.end;
            });
  std::uint32_t local = owned_end - owned_begin;  // halo follows owned slots
  for (const HaloInterval& p : pieces) {
    if (!s.halo.empty() && p.begin <= s.halo.back().end) {
      if (p.end > s.halo.back().end) {
        local += p.end - s.halo.back().end;
        s.halo.back().end = p.end;
      }
    } else {
      s.halo.push_back({p.begin, p.end, local});
      local += p.end - p.begin;
    }
  }

  // --- Pass 2: remap every candidate range into local slots. A range
  // straddling the owned boundary splits into up to three local ranges
  // (each outside piece lies wholly inside one merged halo interval, by
  // construction). The split preserves scan order and the UNICOMP
  // both-orders flag.
  s.offsets.reserve(static_cast<std::size_t>(unit_end - unit_begin) + 1);
  s.offsets.push_back(0);
  for (std::uint32_t unit = unit_begin; unit < unit_end; ++unit) {
    for (std::size_t r = static_cast<std::size_t>(offsets[unit]);
         r < static_cast<std::size_t>(offsets[unit + 1]); ++r) {
      const CandidateRange cr = ranges[r];
      auto emit = [&](std::uint32_t b, std::uint32_t e) {
        if (b >= e) return;
        const std::uint32_t lb = s.to_local(b);
        s.ranges.push_back({lb, lb + (e - b), cr.both});
      };
      emit(cr.begin, std::min(cr.end, owned_begin));
      emit(std::max(cr.begin, owned_begin), std::min(cr.end, owned_end));
      emit(std::max(cr.begin, owned_end), cr.end);
    }
    s.offsets.push_back(s.ranges.size());
    s.weight += weights[unit];
  }
  SJ_ENSURE(s.offsets.size() ==
                static_cast<std::size_t>(unit_end - unit_begin) + 1 &&
            s.offsets.back() == s.ranges.size(),
            "shard slice CSR must close over its remapped ranges");
  return s;
}

}  // namespace sj
