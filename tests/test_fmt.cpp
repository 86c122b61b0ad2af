// Differential test of util/fmt.h's `%.17g` integer fast path against
// std::to_chars(general, 17), the reference it must match byte for byte:
// seeded random bit patterns plus the edge families where a digit kernel
// goes wrong (powers of ten, the fast-path band edges, the %g fixed /
// exponential switch, round-half-even ties, signed zero and non-finite
// values).
#include "util/fmt.h"

#include <gtest/gtest.h>

#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace pr {
namespace {

std::string reference(double v, int precision = 17) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v,
                                 std::chars_format::general, precision);
  return std::string(buf, res.ptr);
}

std::string kernel17(double v) {
  std::string out;
  append_double(out, v, 17);
  return out;
}

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Compares every value, reporting at most a handful of mismatches by
/// value and bit pattern; returns the mismatch count.
std::size_t mismatches(const std::vector<double>& values) {
  std::size_t bad = 0;
  for (const double v : values) {
    const std::string got = kernel17(v);
    const std::string want = reference(v);
    if (got == want) continue;
    if (++bad <= 5) {
      ADD_FAILURE() << "bits 0x" << std::hex << std::bit_cast<std::uint64_t>(v)
                    << ": append_double gave '" << got << "', to_chars '"
                    << want << "'";
    }
  }
  return bad;
}

std::vector<double> with_negatives(std::vector<double> values) {
  const std::size_t n = values.size();
  for (std::size_t i = 0; i < n; ++i) values.push_back(-values[i]);
  return values;
}

TEST(FormatDouble17, MatchesToCharsOnRandomBitPatterns) {
  // Uniform 64-bit patterns cover every exponent (NaN payloads, subnormals
  // and out-of-band magnitudes included) but land in the fast-path band
  // only ~5 % of the time, so a second set draws the exponent field from
  // the band (2^-54 .. 2^57) with random sign and mantissa bits.
  constexpr std::size_t kUniform = 4'000'000;
  constexpr std::size_t kInBand = 6'000'000;
  std::uint64_t state = 20080414;
  std::size_t bad = 0;
  std::vector<double> batch;
  batch.reserve(1'000'000);
  const auto flush = [&] {
    bad += mismatches(batch);
    batch.clear();
  };
  for (std::size_t i = 0; i < kUniform; ++i) {
    batch.push_back(std::bit_cast<double>(splitmix64(state)));
    if (batch.size() == batch.capacity()) flush();
  }
  for (std::size_t i = 0; i < kInBand; ++i) {
    const std::uint64_t r = splitmix64(state);
    const std::uint64_t biased = 1023 - 54 + (r >> 52) % 112;
    const std::uint64_t bits = (r & 0x800f'ffff'ffff'ffffULL) | (biased << 52);
    batch.push_back(std::bit_cast<double>(bits));
    if (batch.size() == batch.capacity()) flush();
  }
  flush();
  EXPECT_EQ(bad, 0u) << "of " << kUniform + kInBand << " random values";
}

TEST(FormatDouble17, ZeroSubnormalsAndNonFinite) {
  const double denorm_min = std::numeric_limits<double>::denorm_min();
  const std::vector<double> values = with_negatives({
      0.0, denorm_min, 2 * denorm_min, 12345 * denorm_min,
      std::numeric_limits<double>::min() - denorm_min,
      std::numeric_limits<double>::min(), std::numeric_limits<double>::max(),
      std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN()});
  EXPECT_EQ(mismatches(values), 0u);
  EXPECT_EQ(kernel17(-0.0), "-0");
  EXPECT_EQ(kernel17(std::numeric_limits<double>::infinity()), "inf");
}

TEST(FormatDouble17, PowersOfTenAndNeighbours) {
  std::vector<double> values;
  for (int k = -20; k <= 20; ++k) {
    const double p = std::pow(10.0, k);
    values.push_back(std::nextafter(p, 0.0));
    values.push_back(p);
    values.push_back(std::nextafter(p, HUGE_VAL));
  }
  EXPECT_EQ(mismatches(with_negatives(values)), 0u);
  EXPECT_EQ(kernel17(1.0), "1");
  EXPECT_EQ(kernel17(1e16), "10000000000000000");
  EXPECT_EQ(kernel17(0.1), "0.10000000000000001");
}

TEST(FormatDouble17, BandEdgesAndFixedExponentialSwitch) {
  std::vector<double> values;
  for (const double edge : {1e-16, 0x1p-53, 1e17, 1e-4, 1e-5}) {
    double below = edge;
    double above = edge;
    for (int i = 0; i < 64; ++i) {
      below = std::nextafter(below, 0.0);
      above = std::nextafter(above, HUGE_VAL);
      values.push_back(below);
      values.push_back(above);
    }
    values.push_back(edge);
  }
  // Values whose 17-digit rounding carries into a new decade: the decimal
  // exponent moves after rounding, which decides fixed vs. exponential.
  values.push_back(9.99999999999999999e-5);
  values.push_back(99999999999999999.0);
  values.push_back(0.99999999999999999);
  EXPECT_EQ(mismatches(with_negatives(values)), 0u);
  EXPECT_EQ(kernel17(1e-4), "0.0001");
  EXPECT_EQ(kernel17(1e-5), "1.0000000000000001e-05");
  EXPECT_EQ(kernel17(1e17), "1e+17");
}

TEST(FormatDouble17, RoundHalfEvenTies) {
  // 18 significant digits ending in 5 are exact ties at 17 digits. With m
  // in [2^52, 2^53), m/4 (16 integer digits) carries two fractional bits
  // and m/8 (15 integer digits below 1e15) three, so odd m gives ties.
  std::vector<double> values = {1234567890123456.25, 1234567890123456.75,
                                2345678901234567.5, 2345678901234568.5};
  std::uint64_t state = 7;
  for (int i = 0; i < 100'000; ++i) {
    const std::uint64_t m = (std::uint64_t{1} << 52) +
                            splitmix64(state) % (std::uint64_t{1} << 52);
    values.push_back(static_cast<double>(m) / 4.0);
    values.push_back(static_cast<double>(m) / 8.0);
  }
  EXPECT_EQ(mismatches(with_negatives(values)), 0u);
  EXPECT_EQ(kernel17(1234567890123456.25), "1234567890123456.2");
  EXPECT_EQ(kernel17(1234567890123456.75), "1234567890123456.8");
}

TEST(FormatDouble17, OtherPrecisionsStillUseToChars) {
  for (const double v : {0.5, 1.0 / 3.0, 123456.789, 1e-7, -2.5e20}) {
    EXPECT_EQ(format_double(v, 6), reference(v, 6));
  }
}

}  // namespace
}  // namespace pr
