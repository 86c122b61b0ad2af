// Tests for util/units.h: quantity arithmetic, literals, conversions.
#include "util/units.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>

#include "util/rng.h"

namespace pr {
namespace {

TEST(Units, LiteralsProduceSeconds) {
  EXPECT_DOUBLE_EQ((5_s).value(), 5.0);
  EXPECT_DOUBLE_EQ((2.5_s).value(), 2.5);
  EXPECT_DOUBLE_EQ((250_ms).value(), 0.25);
  EXPECT_DOUBLE_EQ((58.4_ms).value(), 0.0584);
}

TEST(Units, AdditionAndSubtraction) {
  const Seconds a{3.0};
  const Seconds b{1.5};
  EXPECT_DOUBLE_EQ((a + b).value(), 4.5);
  EXPECT_DOUBLE_EQ((a - b).value(), 1.5);
  Seconds c{1.0};
  c += Seconds{2.0};
  EXPECT_DOUBLE_EQ(c.value(), 3.0);
  c -= Seconds{0.5};
  EXPECT_DOUBLE_EQ(c.value(), 2.5);
}

TEST(Units, ScalarMultiplicationAndDivision) {
  const Seconds a{4.0};
  EXPECT_DOUBLE_EQ((a * 2.0).value(), 8.0);
  EXPECT_DOUBLE_EQ((2.0 * a).value(), 8.0);
  EXPECT_DOUBLE_EQ((a / 4.0).value(), 1.0);
}

TEST(Units, RatioOfLikeQuantitiesIsScalar) {
  const Seconds a{10.0};
  const Seconds b{4.0};
  const double ratio = a / b;
  EXPECT_DOUBLE_EQ(ratio, 2.5);
}

TEST(Units, Comparisons) {
  EXPECT_LT(Seconds{1.0}, Seconds{2.0});
  EXPECT_GE(Seconds{2.0}, Seconds{2.0});
  EXPECT_EQ(Joules{3.0}, Joules{3.0});
}

// --- comparisons agree with raw doubles -------------------------------------

/// Index of the operand `got` refers to (0, 1 or 2), or -1 for none.
template <typename T>
int operand(const T& got, const T& a, const T& b, const T& c) {
  if (&got == &a) return 0;
  if (&got == &b) return 1;
  if (&got == &c) return 2;
  return -1;
}

/// Every comparison, std::max and std::min on Seconds{x}, Seconds{y} must
/// give the raw-double answer and return the same operand.
void expect_pair_matches(double x, double y) {
  const Seconds a{x};
  const Seconds b{y};
  const Seconds none{0.0};
  const double dnone = 0.0;
  SCOPED_TRACE(testing::Message() << x << " vs " << y);
  EXPECT_EQ(a == b, x == y);
  EXPECT_EQ(a != b, x != y);
  EXPECT_EQ(a < b, x < y);
  EXPECT_EQ(a <= b, x <= y);
  EXPECT_EQ(a > b, x > y);
  EXPECT_EQ(a >= b, x >= y);
  EXPECT_EQ(operand(std::max(a, b), a, b, none),
            operand(std::max(x, y), x, y, dnone));
  EXPECT_EQ(operand(std::min(a, b), a, b, none),
            operand(std::min(x, y), x, y, dnone));
}

/// std::clamp(v, lo, hi) on Seconds returns the operand the raw-double
/// call returns. Skips bounds with hi < lo (clamp's precondition).
void expect_clamp_matches(double v, double lo, double hi) {
  if (hi < lo) return;
  const Seconds sv{v};
  const Seconds slo{lo};
  const Seconds shi{hi};
  SCOPED_TRACE(testing::Message() << v << " in [" << lo << ", " << hi << "]");
  EXPECT_EQ(operand(std::clamp(sv, slo, shi), sv, slo, shi),
            operand(std::clamp(v, lo, hi), v, lo, hi));
}

constexpr std::array<double, 8> kEdgeValues{
    -std::numeric_limits<double>::infinity(),
    -1.0,
    -0.0,
    0.0,
    std::numeric_limits<double>::denorm_min(),
    1.0,
    std::numeric_limits<double>::infinity(),
    std::numeric_limits<double>::quiet_NaN()};

TEST(Units, ComparisonsMatchRawDoublesOnEdgeValues) {
  for (const double x : kEdgeValues) {
    for (const double y : kEdgeValues) {
      expect_pair_matches(x, y);
      for (const double z : kEdgeValues) expect_clamp_matches(x, y, z);
    }
  }
}

TEST(Units, ComparisonsMatchRawDoublesOnRandomValues) {
  // Random bit patterns cover NaN payloads, infinities and subnormals; every
  // fourth pair repeats x (a tie) and every fourth flips its sign bit.
  Rng rng(20);
  for (int i = 0; i < 100'000; ++i) {
    const double x = std::bit_cast<double>(rng());
    double y = std::bit_cast<double>(rng());
    const double z = std::bit_cast<double>(rng());
    if (i % 4 == 1) y = x;
    if (i % 4 == 2) y = -x;
    expect_pair_matches(x, y);
    expect_clamp_matches(x, std::min(y, z), std::max(y, z));
  }
}

TEST(Units, ComparisonEdgeCasesSpelledOut) {
  const Seconds nan{std::numeric_limits<double>::quiet_NaN()};
  const Seconds one{1.0};
  EXPECT_FALSE(nan < one);
  EXPECT_FALSE(nan <= one);
  EXPECT_FALSE(nan > one);
  EXPECT_FALSE(nan >= one);
  EXPECT_FALSE(nan == nan);
  EXPECT_TRUE(nan != nan);
  EXPECT_TRUE(Seconds{-0.0} == Seconds{0.0});
  // std::max and std::min return their first operand on ties.
  const Seconds neg_zero{-0.0};
  const Seconds pos_zero{0.0};
  EXPECT_EQ(&std::max(neg_zero, pos_zero), &neg_zero);
  EXPECT_EQ(&std::min(pos_zero, neg_zero), &pos_zero);
  static_assert(Joules{1.0} < Joules{2.0});
  static_assert(!(Watts{2.0} <= Watts{1.0}));
  static_assert(Celsius{-0.0} == Celsius{0.0});
}

TEST(Units, PowerTimesTimeIsEnergy) {
  const Watts p{10.0};
  const Seconds t{60.0};
  EXPECT_DOUBLE_EQ((p * t).value(), 600.0);
  EXPECT_DOUBLE_EQ((t * p).value(), 600.0);
}

TEST(Units, ByteHelpers) {
  EXPECT_EQ(kKiB, 1024u);
  EXPECT_EQ(kMiB, 1024u * 1024u);
  EXPECT_EQ(kGiB, 1024u * 1024u * 1024u);
  EXPECT_DOUBLE_EQ(to_mib(2 * kMiB), 2.0);
  EXPECT_DOUBLE_EQ(to_mib(512 * kKiB), 0.5);
}

TEST(Units, PaperKelvinConversion) {
  // §3.4 uses 273.16 + °C (and we follow the paper, not the exact 273.15).
  EXPECT_DOUBLE_EQ(to_kelvin_paper(Celsius{50.0}), 323.16);
  EXPECT_DOUBLE_EQ(to_kelvin_paper(Celsius{0.0}), 273.16);
}

TEST(Units, DayAndYearConstants) {
  EXPECT_DOUBLE_EQ(kSecondsPerDay.value(), 86'400.0);
  EXPECT_DOUBLE_EQ(kSecondsPerYear.value(), 365.0 * 86'400.0);
}

TEST(Units, NeverTimeIsLaterThanEverything) {
  EXPECT_GT(kNeverTime, Seconds{1e18});
}

}  // namespace
}  // namespace pr
