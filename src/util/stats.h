// stats.h — streaming statistics, histograms and quantile estimation for
// simulation metrics. All accumulators are single-pass and numerically
// stable (Welford) because a day-long trace run feeds ~1.5M samples.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace pr {

/// Single-pass mean/variance/min/max accumulator (Welford's algorithm).
class StreamingStats {
 public:
  void add(double x);
  void merge(const StreamingStats& other);
  void reset();

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] double mean() const { return count_ ? mean_ : 0.0; }
  /// Unbiased sample variance; 0 for fewer than two samples.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return count_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const { return sum_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Fixed-width linear histogram over [lo, hi) with overflow/underflow bins.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);
  void merge(const Histogram& other);

  [[nodiscard]] std::size_t bin_count() const { return counts_.size(); }
  [[nodiscard]] std::uint64_t bin(std::size_t i) const { return counts_[i]; }
  [[nodiscard]] std::uint64_t underflow() const { return underflow_; }
  [[nodiscard]] std::uint64_t overflow() const { return overflow_; }
  [[nodiscard]] std::uint64_t total() const { return total_; }
  [[nodiscard]] double bin_low(std::size_t i) const;
  [[nodiscard]] double bin_high(std::size_t i) const;

  /// Quantile estimate by linear interpolation inside the located bin.
  /// q in [0, 1]. Returns lo/hi bounds for out-of-range mass.
  [[nodiscard]] double quantile(double q) const;

  /// Multi-line ASCII rendering (for example programs / debugging).
  [[nodiscard]] std::string render(std::size_t width = 50) const;

 private:
  double lo_;
  double hi_;
  double bin_width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
  std::uint64_t total_ = 0;
};

/// Reservoir sampler for exact-ish quantiles of unbounded streams; keeps a
/// uniform random subset of at most `capacity` samples.
class ReservoirSample {
 public:
  explicit ReservoirSample(std::size_t capacity, std::uint64_t seed = 1);

  void add(double x);
  /// Deterministically fold another reservoir into this one: the other's
  /// retained samples are re-streamed through add() in their stored
  /// order, then the rest of its population is credited to seen(). Exact
  /// when the union fits in capacity, a deterministic approximation of a
  /// union reservoir otherwise. Merge order is part of the byte contract
  /// — fleet merges always fold in shard order.
  void merge(const ReservoirSample& other);
  [[nodiscard]] std::size_t seen() const { return seen_; }
  [[nodiscard]] std::size_t size() const { return sample_.size(); }

  /// Quantile (q in [0,1]) over the retained sample. Sorts a copy.
  [[nodiscard]] double quantile(double q) const;

 private:
  std::size_t capacity_;
  std::size_t seen_ = 0;
  std::uint64_t rng_state_;
  std::vector<double> sample_;

  std::uint64_t next_u64();
};

/// Pearson correlation of two equal-length series (0 if degenerate).
[[nodiscard]] double pearson_correlation(const std::vector<double>& x,
                                         const std::vector<double>& y);

/// Spearman rank correlation (0 if degenerate). Used by tests to check the
/// size/popularity anti-correlation the synthetic workload must exhibit.
[[nodiscard]] double spearman_correlation(const std::vector<double>& x,
                                          const std::vector<double>& y);

/// Relative improvement of `ours` over `baseline` for a lower-is-better
/// metric: (baseline − ours) / baseline. Positive = we are better.
/// Degenerate inputs — a zero baseline or any non-finite operand — return
/// 0.0 ("no improvement") instead of NaN/±inf, so sweep-level averages of
/// this quantity stay meaningful.
[[nodiscard]] double improvement(double ours, double baseline);

}  // namespace pr
