#include "core/batcher.hpp"

#include <algorithm>
#include <string>

#include "common/contracts.hpp"
#include "gpusim/arena.hpp"

namespace sj {

std::vector<std::uint32_t> plan_batches(const std::uint64_t* offsets,
                                        std::uint32_t units,
                                        std::size_t min_batches,
                                        std::uint64_t buffer_pairs) {
  if (units == 0) return {0};
  const std::uint64_t total = offsets[units];
  buffer_pairs = std::max<std::uint64_t>(buffer_pairs, 1);
  const std::uint64_t by_volume = (total + buffer_pairs - 1) / buffer_pairs;
  const std::uint64_t parts = std::clamp<std::uint64_t>(
      std::max<std::uint64_t>(min_batches, by_volume), 1, units);

  // Balanced cut: part p closes at the first unit whose offset reaches
  // p/parts of the total, keeping at least one unit per part.
  std::vector<std::uint32_t> balanced{0};
  for (std::uint64_t p = 1; p < parts; ++p) {
    const auto target = static_cast<std::uint64_t>(
        static_cast<unsigned __int128>(total) * p / parts);
    const std::uint64_t at = static_cast<std::uint64_t>(
        std::lower_bound(offsets, offsets + units + 1, target) - offsets);
    balanced.push_back(static_cast<std::uint32_t>(std::clamp<std::uint64_t>(
        at, balanced.back() + 1, units - (parts - p))));
  }
  balanced.push_back(units);

  // A part over the buffer (a heavy unit next to a cut) splits greedily:
  // each piece takes as many units as fit. Only a unit that alone
  // outgrows the buffer has no cut that helps.
  std::vector<std::uint32_t> bounds{0};
  for (std::size_t p = 0; p + 1 < balanced.size(); ++p) {
    std::uint32_t begin = balanced[p];
    while (begin < balanced[p + 1]) {
      const std::uint64_t* fits = std::upper_bound(
          offsets + begin, offsets + balanced[p + 1] + 1,
          offsets[begin] + buffer_pairs);
      const auto end = static_cast<std::uint32_t>(fits - offsets - 1);
      if (end == begin) {
        const std::uint64_t pairs = offsets[begin + 1] - offsets[begin];
        throw gpu::DeviceOutOfMemory(
            pairs * sizeof(Pair), buffer_pairs * sizeof(Pair),
            "batch " + std::to_string(bounds.size() - 1) + " (unit " +
                std::to_string(begin) + "): a single query's neighbourhood "
                "overflows the result buffer (" + std::to_string(pairs) +
                " pairs, buffer of " + std::to_string(buffer_pairs) + ")");
      }
      bounds.push_back(end);
      begin = end;
    }
  }
  SJ_ENSURE(bounds.back() == units && bounds.size() > parts,
            "plan_batches: batches must cover every unit, at least `parts` "
            "of them");
  return bounds;
}

}  // namespace sj
