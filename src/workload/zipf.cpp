#include "workload/zipf.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/contracts.h"

namespace pr {

double ZipfDistribution::harmonic(std::size_t n, double alpha) {
  double h = 0.0;
  for (std::size_t i = 1; i <= n; ++i) {
    h += std::pow(static_cast<double>(i), -alpha);
  }
  return h;
}

ZipfDistribution::ZipfDistribution(std::size_t n, double alpha)
    : alpha_(alpha) {
  if (n == 0) throw std::invalid_argument("ZipfDistribution: n == 0");
  if (n > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("ZipfDistribution: n >= 2^32");
  }
  if (!(0.0 <= alpha && alpha <= std::numeric_limits<double>::max())) {
    throw std::invalid_argument(
        "ZipfDistribution: alpha must be finite and >= 0");
  }
  cdf_.resize(n);
  double cum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    cum += std::pow(static_cast<double>(i + 1), -alpha);
    cdf_[i] = cum;
  }
  norm_ = cum;
  for (auto& c : cdf_) c /= norm_;
  cdf_.back() = 1.0;  // guard against fp residue

  // One linear merge of the bucket edges j/K (exact: K is a power of two)
  // against the non-decreasing CDF; the scan stops at the last rank at
  // the latest because cdf_.back() == 1.0 >= j/K.
  const std::size_t k = std::bit_ceil(2 * n);
  buckets_ = static_cast<double>(k);
  guide_.resize(k + 1);
  std::size_t i = 0;
  for (std::size_t j = 0; j <= k; ++j) {
    const double edge = static_cast<double>(j) / buckets_;
    while (cdf_[i] < edge) ++i;
    guide_[j] = static_cast<std::uint32_t>(i);
  }
}

std::size_t ZipfDistribution::rank_at(double u) const {
  PR_PRECONDITION(0.0 <= u && u < 1.0, "rank_at needs u in [0, 1)");
  // The rank lies in [guide_[j], guide_[j+1]]; searching the half-open
  // range suffices, since lower_bound returns its end, guide_[j+1], when
  // every weight before it falls short of u.
  const auto j = static_cast<std::size_t>(u * buckets_);
  const auto first = cdf_.begin() + guide_[j];
  const auto last = cdf_.begin() + guide_[j + 1];
  return static_cast<std::size_t>(
      std::distance(cdf_.begin(), std::lower_bound(first, last, u)));
}

double ZipfDistribution::pmf(std::size_t i) const {
  if (i >= cdf_.size()) return 0.0;
  return std::pow(static_cast<double>(i + 1), -alpha_) / norm_;
}

double ZipfDistribution::cumulative(std::size_t k) const {
  if (k == 0) return 0.0;
  if (k >= cdf_.size()) return 1.0;
  return cdf_[k - 1];
}

}  // namespace pr
