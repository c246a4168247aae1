// Seeded input generators. The benchmark makes its own inputs from
// `--seed` (the program under test only ever sees the generated points),
// so the same seed gives byte-identical inputs on every commit.
#pragma once

#include <cmath>
#include <cstdint>
#include <numbers>
#include <utility>
#include <vector>

#include "common/dataset.hpp"

namespace perfbench {

/// splitmix64: small, fast, and good enough for benchmark inputs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  /// Standard normal (Box-Muller).
  double normal() {
    const double u1 = 1.0 - uniform();  // (0, 1]
    const double u2 = uniform();
    return std::sqrt(-2.0 * std::log(u1)) *
           std::cos(2.0 * std::numbers::pi * u2);
  }

 private:
  std::uint64_t state_;
};

/// Independent stream `stream` of run seed `seed`, so adding a stream
/// never shifts the values of another.
inline Rng stream_rng(std::uint64_t seed, std::uint64_t stream) {
  Rng mix(seed ^ (stream * 0xD1B54A32D192ED03ULL));
  return Rng(mix.next());
}

/// n points uniform in the cube [0, extent)^dim.
inline sj::Dataset uniform_points(std::size_t n, int dim, double extent,
                                  Rng rng) {
  std::vector<double> xs(n * static_cast<std::size_t>(dim));
  for (double& x : xs) x = rng.uniform() * extent;
  return sj::Dataset(dim, std::move(xs));
}

/// Skewed points in [0, extent)^dim: `clustered_share` of the points fall
/// in `clusters` Gaussian blobs (standard deviation `sigma`) whose sizes
/// follow a 1/rank law, the rest are uniform background. Cluster sizes
/// depend on the rank only, not on the seed, and blob centres keep 6 sigma
/// apart, so the result volume stays steady from seed to seed while the
/// positions change.
inline sj::Dataset clustered_points(std::size_t n, int dim, double extent,
                                    int clusters, double clustered_share,
                                    double sigma, Rng rng) {
  const auto d = static_cast<std::size_t>(dim);
  std::vector<double> centres;
  for (int c = 0; c < clusters; ++c) {
    std::vector<double> centre(d);
    for (int attempt = 0; attempt < 1000; ++attempt) {
      // Keep every blob well inside the domain.
      for (double& x : centre) {
        x = 4.0 * sigma + rng.uniform() * (extent - 8.0 * sigma);
      }
      bool apart = true;
      for (std::size_t o = 0; o + d <= centres.size() && apart; o += d) {
        double dist2 = 0.0;
        for (std::size_t k = 0; k < d; ++k) {
          dist2 += (centre[k] - centres[o + k]) * (centre[k] - centres[o + k]);
        }
        apart = dist2 >= 36.0 * sigma * sigma;
      }
      if (apart) break;
    }
    centres.insert(centres.end(), centre.begin(), centre.end());
  }

  std::vector<double> weights(static_cast<std::size_t>(clusters));
  double weight_sum = 0.0;
  for (int c = 0; c < clusters; ++c) {
    weights[static_cast<std::size_t>(c)] = 1.0 / static_cast<double>(c + 1);
    weight_sum += weights[static_cast<std::size_t>(c)];
  }
  const auto clustered =
      static_cast<std::size_t>(clustered_share * static_cast<double>(n));

  std::vector<double> xs;
  xs.reserve(n * d);
  std::size_t placed = 0;
  for (int c = 0; c < clusters; ++c) {
    const double* centre = centres.data() + static_cast<std::size_t>(c) * d;
    const std::size_t size =
        c + 1 == clusters
            ? clustered - placed
            : static_cast<std::size_t>(static_cast<double>(clustered) *
                                       weights[static_cast<std::size_t>(c)] /
                                       weight_sum);
    for (std::size_t i = 0; i < size; ++i) {
      for (std::size_t k = 0; k < d; ++k) {
        xs.push_back(centre[k] + sigma * rng.normal());
      }
    }
    placed += size;
  }
  while (xs.size() < n * d) xs.push_back(rng.uniform() * extent);
  // Shuffle the points so ids carry no cluster order.
  for (std::size_t i = n; i > 1; --i) {
    const std::size_t j = rng.next() % i;
    for (std::size_t k = 0; k < d; ++k) {
      std::swap(xs[(i - 1) * d + k], xs[j * d + k]);
    }
  }
  return sj::Dataset(dim, std::move(xs));
}

}  // namespace perfbench
