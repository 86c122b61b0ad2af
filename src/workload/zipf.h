// zipf.h — Zipf(α) rank sampling. The paper (§4, citing [6][11][20])
// models web request popularity as Zipf-like: P(rank i) ∝ 1/i^α with
// α ∈ [0, 1]. We provide both an exact inverse-CDF sampler and the
// closed-form distribution helpers policies/tests need.
//
// Sampling is O(1) expected: a Chen–Asau guide table of K buckets (K the
// smallest power of two ≥ 2n) stores guide_[j] = the first rank whose
// cumulative weight reaches j/K. A uniform u = m·2⁻⁵³ lands in bucket
// j = ⌊u·K⌋, computed exactly because K is a power of two, and the rank
// is the binary search over [guide_[j], guide_[j+1]) only — on average
// about one comparison. The answer is the same rank the full-range search
// over the CDF returns for every u: j/K ≤ u gives rank ≥ guide_[j], and
// u < (j+1)/K gives rank ≤ guide_[j+1], which is < n because the last
// cumulative weight is exactly 1.0; a search that finds no weight ≥ u in
// the half-open range returns its end, guide_[j+1], which is then the
// rank. Generated traces are therefore independent of the lookup
// structure.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace pr {

class ZipfDistribution {
 public:
  /// 1 ≤ n < 2³² ranks, finite exponent alpha ≥ 0 (0 = uniform). Throws
  /// std::invalid_argument otherwise (NaN alpha included).
  ZipfDistribution(std::size_t n, double alpha);

  /// Sample a rank in [0, n), rank 0 most popular.
  [[nodiscard]] std::size_t sample(Rng& rng) const {
    return rank_at(rng.uniform());
  }

  /// Inverse CDF: the smallest rank i with P(rank <= i) >= u, for a
  /// uniform u ∈ [0, 1). sample() is rank_at(rng.uniform()).
  [[nodiscard]] std::size_t rank_at(double u) const;

  /// Probability of rank i (0-based).
  [[nodiscard]] double pmf(std::size_t i) const;

  /// Fraction of probability mass on ranks [0, k).
  [[nodiscard]] double cumulative(std::size_t k) const;

  [[nodiscard]] std::size_t size() const { return cdf_.size(); }
  [[nodiscard]] double alpha() const { return alpha_; }

  /// Generalised harmonic number H_{n,alpha} = Σ_{i=1..n} i^-alpha.
  [[nodiscard]] static double harmonic(std::size_t n, double alpha);

 private:
  double alpha_;
  double norm_;  // H_{n,alpha}
  std::vector<double> cdf_;  // cdf_[i] = P(rank <= i)
  // guide_[j] = first i with cdf_[i] >= j/K, j ∈ [0, K]; all < n.
  std::vector<std::uint32_t> guide_;
  double buckets_;  // K, a power of two
};

}  // namespace pr
