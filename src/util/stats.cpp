#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace pr {

void StreamingStats::add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void StreamingStats::merge(const StreamingStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const auto n1 = static_cast<double>(count_);
  const auto n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void StreamingStats::reset() { *this = StreamingStats{}; }

double StreamingStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double StreamingStats::stddev() const { return std::sqrt(variance()); }

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), bin_width_((hi - lo) / static_cast<double>(bins)),
      counts_(bins, 0) {
  if (!(hi > lo) || bins == 0) {
    throw std::invalid_argument("Histogram: need hi > lo and bins > 0");
  }
}

void Histogram::add(double x) {
  ++total_;
  if (x < lo_) {
    ++underflow_;
    return;
  }
  if (x >= hi_) {
    ++overflow_;
    return;
  }
  auto idx = static_cast<std::size_t>((x - lo_) / bin_width_);
  if (idx >= counts_.size()) idx = counts_.size() - 1;  // fp edge
  ++counts_[idx];
}

void Histogram::merge(const Histogram& other) {
  if (other.counts_.size() != counts_.size() || other.lo_ != lo_ ||
      other.hi_ != hi_) {
    throw std::invalid_argument("Histogram::merge: incompatible layout");
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  underflow_ += other.underflow_;
  overflow_ += other.overflow_;
  total_ += other.total_;
}

double Histogram::bin_low(std::size_t i) const {
  return lo_ + bin_width_ * static_cast<double>(i);
}

double Histogram::bin_high(std::size_t i) const {
  return lo_ + bin_width_ * static_cast<double>(i + 1);
}

double Histogram::quantile(double q) const {
  if (total_ == 0) return lo_;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(total_);
  double cum = static_cast<double>(underflow_);
  if (target <= cum) return lo_;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const double next = cum + static_cast<double>(counts_[i]);
    if (target <= next && counts_[i] > 0) {
      const double frac = (target - cum) / static_cast<double>(counts_[i]);
      return bin_low(i) + frac * bin_width_;
    }
    cum = next;
  }
  return hi_;
}

std::string Histogram::render(std::size_t width) const {
  std::uint64_t peak = 1;
  for (auto c : counts_) peak = std::max(peak, c);
  std::ostringstream out;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const auto bar =
        static_cast<std::size_t>(static_cast<double>(counts_[i]) /
                                 static_cast<double>(peak) *
                                 static_cast<double>(width));
    out << "[" << bin_low(i) << ", " << bin_high(i) << ") "
        << std::string(bar, '#') << " " << counts_[i] << "\n";
  }
  return out.str();
}

ReservoirSample::ReservoirSample(std::size_t capacity, std::uint64_t seed)
    : capacity_(capacity), rng_state_(seed ? seed : 1) {
  sample_.reserve(capacity);
}

std::uint64_t ReservoirSample::next_u64() {
  // SplitMix64: ample quality for reservoir index selection.
  rng_state_ += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = rng_state_;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

void ReservoirSample::merge(const ReservoirSample& other) {
  for (const double x : other.sample_) add(x);
  // The unretained remainder of the other population influenced which
  // samples it kept; credit it to seen() so acceptance odds keep scaling
  // with the true population size across repeated merges.
  seen_ += other.seen_ - other.sample_.size();
}

void ReservoirSample::add(double x) {
  ++seen_;
  if (sample_.size() < capacity_) {
    sample_.push_back(x);
    return;
  }
  const std::uint64_t j = next_u64() % seen_;
  if (j < capacity_) sample_[j] = x;
}

double ReservoirSample::quantile(double q) const {
  if (sample_.empty()) return 0.0;
  std::vector<double> sorted = sample_;
  std::sort(sorted.begin(), sorted.end());
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double pearson_correlation(const std::vector<double>& x,
                           const std::vector<double>& y) {
  if (x.size() != y.size() || x.size() < 2) return 0.0;
  const auto n = static_cast<double>(x.size());
  const double mx = std::accumulate(x.begin(), x.end(), 0.0) / n;
  const double my = std::accumulate(y.begin(), y.end(), 0.0) / n;
  double sxy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx == 0.0 || syy == 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

namespace {

// Average-of-ties ranks.
std::vector<double> ranks_of(const std::vector<double>& v) {
  std::vector<std::size_t> order(v.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return v[a] < v[b]; });
  std::vector<double> ranks(v.size());
  std::size_t i = 0;
  while (i < order.size()) {
    std::size_t j = i;
    while (j + 1 < order.size() && v[order[j + 1]] == v[order[i]]) ++j;
    const double rank = (static_cast<double>(i) + static_cast<double>(j)) / 2.0;
    for (std::size_t k = i; k <= j; ++k) ranks[order[k]] = rank;
    i = j + 1;
  }
  return ranks;
}

}  // namespace

double spearman_correlation(const std::vector<double>& x,
                            const std::vector<double>& y) {
  if (x.size() != y.size() || x.size() < 2) return 0.0;
  return pearson_correlation(ranks_of(x), ranks_of(y));
}

double improvement(double ours, double baseline) {
  // Degenerate inputs (zero baseline, NaN/inf from an empty or failed
  // cell) would yield NaN/±inf here and poison every downstream average;
  // report "no improvement" for them instead.
  if (!std::isfinite(ours) || !std::isfinite(baseline) || baseline == 0.0) {
    return 0.0;
  }
  return (baseline - ours) / baseline;
}

}  // namespace pr
