// Tests for workload/zipf.h, including parameterized sweeps over α — the
// paper assumes Zipf-like request popularity with α ∈ [0, 1] (§4).
#include "workload/zipf.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <tuple>
#include <vector>

namespace pr {
namespace {

TEST(Zipf, RejectsBadArguments) {
  EXPECT_THROW(ZipfDistribution(0, 0.8), std::invalid_argument);
  EXPECT_THROW(ZipfDistribution(10, -0.1), std::invalid_argument);
  EXPECT_THROW(ZipfDistribution(std::size_t{1} << 32, 0.8),
               std::invalid_argument);  // ranks no longer fit the guide
  EXPECT_THROW(ZipfDistribution(10, std::nan("")), std::invalid_argument);
  EXPECT_THROW(
      ZipfDistribution(10, std::numeric_limits<double>::infinity()),
      std::invalid_argument);
}

TEST(Zipf, PmfSumsToOne) {
  ZipfDistribution z(1000, 0.8);
  double sum = 0.0;
  for (std::size_t i = 0; i < z.size(); ++i) sum += z.pmf(i);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Zipf, PmfIsDecreasing) {
  ZipfDistribution z(100, 0.9);
  for (std::size_t i = 1; i < z.size(); ++i) {
    EXPECT_LE(z.pmf(i), z.pmf(i - 1));
  }
}

TEST(Zipf, PmfOutOfRangeIsZero) {
  ZipfDistribution z(10, 0.5);
  EXPECT_DOUBLE_EQ(z.pmf(10), 0.0);
  EXPECT_DOUBLE_EQ(z.pmf(9999), 0.0);
}

TEST(Zipf, AlphaZeroIsUniform) {
  ZipfDistribution z(8, 0.0);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_NEAR(z.pmf(i), 1.0 / 8.0, 1e-12);
  }
}

TEST(Zipf, CumulativeEndpoints) {
  ZipfDistribution z(50, 0.7);
  EXPECT_DOUBLE_EQ(z.cumulative(0), 0.0);
  EXPECT_DOUBLE_EQ(z.cumulative(50), 1.0);
  EXPECT_DOUBLE_EQ(z.cumulative(9999), 1.0);
  EXPECT_NEAR(z.cumulative(1), z.pmf(0), 1e-12);
}

TEST(Zipf, CumulativeMatchesPmfSum) {
  ZipfDistribution z(30, 0.85);
  double running = 0.0;
  for (std::size_t k = 1; k <= 30; ++k) {
    running += z.pmf(k - 1);
    EXPECT_NEAR(z.cumulative(k), running, 1e-9);
  }
}

TEST(Zipf, HarmonicKnownValues) {
  EXPECT_DOUBLE_EQ(ZipfDistribution::harmonic(1, 1.0), 1.0);
  EXPECT_NEAR(ZipfDistribution::harmonic(4, 1.0),
              1.0 + 0.5 + 1.0 / 3.0 + 0.25, 1e-12);
  EXPECT_DOUBLE_EQ(ZipfDistribution::harmonic(5, 0.0), 5.0);
}

TEST(Zipf, SamplesWithinRange) {
  ZipfDistribution z(37, 0.8);
  Rng rng(1);
  for (int i = 0; i < 10'000; ++i) {
    ASSERT_LT(z.sample(rng), 37u);
  }
}

TEST(Zipf, SamplingIsDeterministic) {
  ZipfDistribution z(100, 0.8);
  Rng a(5);
  Rng b(5);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(z.sample(a), z.sample(b));
  }
}

/// Parameterized sweep: empirical frequencies must converge to the pmf for
/// every exponent the paper's workload model admits.
class ZipfSamplingFidelity : public ::testing::TestWithParam<double> {};

TEST_P(ZipfSamplingFidelity, EmpiricalMatchesPmf) {
  const double alpha = GetParam();
  constexpr std::size_t kRanks = 50;
  constexpr int kSamples = 200'000;
  ZipfDistribution z(kRanks, alpha);
  Rng rng(42);
  std::vector<int> counts(kRanks, 0);
  for (int i = 0; i < kSamples; ++i) ++counts[z.sample(rng)];
  // Check the head ranks (rare tail ranks have high relative noise).
  for (std::size_t i = 0; i < 10; ++i) {
    const double expected = z.pmf(i);
    const double observed =
        static_cast<double>(counts[i]) / static_cast<double>(kSamples);
    EXPECT_NEAR(observed, expected, 5e-3)
        << "alpha=" << alpha << " rank=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AlphaSweep, ZipfSamplingFidelity,
                         ::testing::Values(0.0, 0.2, 0.5, 0.8, 1.0));

/// Differential check of the guide-table lookup: for every (n, α) the
/// rank must equal the full-range lower_bound over cumulative() — the
/// plain inverse CDF — on a million random draws through sample() and on
/// every edge uniform: each bucket edge j/K and the double just below it,
/// each cumulative weight and the double just below it, 0 and 1 − 2⁻⁵³.
class ZipfGuideExactness
    : public ::testing::TestWithParam<std::tuple<std::size_t, double>> {};

TEST_P(ZipfGuideExactness, MatchesFullRangeSearch) {
  const auto [n, alpha] = GetParam();
  const ZipfDistribution z(n, alpha);
  std::vector<double> cdf(n);
  for (std::size_t i = 0; i < n; ++i) cdf[i] = z.cumulative(i + 1);
  const auto reference = [&cdf](double u) {
    return static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
  };

  std::size_t mismatches = 0;
  double first_bad = -1.0;
  const auto expect_rank = [&](double u, std::size_t rank) {
    if (rank != reference(u) && mismatches++ == 0) first_bad = u;
  };

  Rng guided(2026);
  Rng plain(2026);
  for (int i = 0; i < 1'000'000; ++i) {
    const std::size_t rank = z.sample(guided);
    expect_rank(plain.uniform(), rank);
  }

  const auto edge = [&](double u) {
    if (0.0 <= u && u < 1.0) expect_rank(u, z.rank_at(u));
  };
  const std::size_t buckets = std::bit_ceil(2 * n);
  for (std::size_t j = 0; j < buckets; ++j) {
    const double u = static_cast<double>(j) / static_cast<double>(buckets);
    edge(u);
    edge(u - 0x1.0p-53);
  }
  for (const double c : cdf) {
    edge(c);
    edge(std::nextafter(c, 0.0));
  }
  edge(1.0 - 0x1.0p-53);

  EXPECT_EQ(mismatches, 0u) << "n=" << n << " alpha=" << alpha
                            << " first mismatch at u=" << std::hexfloat
                            << first_bad;
}

INSTANTIATE_TEST_SUITE_P(
    SizeByAlpha, ZipfGuideExactness,
    ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{3}, std::size_t{400},
                                         std::size_t{4079},
                                         std::size_t{40'000},
                                         std::size_t{100'000}),
                       ::testing::Values(0.0, 0.3, 0.8, 1.0, 2.5)));

/// The paper's motivating skew property: with α near 1, a small fraction
/// of ranks captures most of the probability mass.
TEST(Zipf, HeadCapturesMassAtHighAlpha) {
  ZipfDistribution z(4079, 1.0);
  EXPECT_GT(z.cumulative(408), 0.55);  // top 10% of files
  ZipfDistribution uniform(4079, 0.0);
  EXPECT_NEAR(uniform.cumulative(408), 0.1, 0.01);
}

}  // namespace
}  // namespace pr
