// Differential test of util/fmt.h's `%.Pg` kernel against
// std::to_chars(general, P), the reference it must match byte for byte.
// write_double17 (P = 17, the round-trip format) gets the deepest sweep:
// seeded random bit patterns plus the edge families where a digit kernel
// goes wrong (powers of ten, the exact-path band edges, the %g fixed /
// exponential switch, round-half-even ties, signed zero and non-finite
// values, every binade's decade threshold). write_double is swept at every
// precision in [1, 17] over random and in-band patterns, powers of ten,
// exact ties and the roundings that carry into exponential form. The test
// also recomputes the kernel's exponent table independently and checks
// that the kernel writes nothing past the pointer it returns.
#include "util/fmt.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
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
  char buf[kDouble17MaxChars];
  return std::string(buf, write_double17(buf, v));
}

std::string kernel(double v, int precision) {
  char buf[kDouble17MaxChars];
  return std::string(buf, write_double(buf, v, precision));
}

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Compares every value, reporting at most a handful of mismatches by
/// value and bit pattern; returns the mismatch count. Precision 17 goes
/// through write_double17, the entry every JSONL emitter calls; the others
/// through write_double.
std::size_t mismatches(const std::vector<double>& values,
                       int precision = 17) {
  std::size_t bad = 0;
  for (const double v : values) {
    const std::string got =
        precision == 17 ? kernel17(v) : kernel(v, precision);
    const std::string want = reference(v, precision);
    if (got == want) continue;
    if (++bad <= 5) {
      ADD_FAILURE() << "bits 0x" << std::hex << std::bit_cast<std::uint64_t>(v)
                    << std::dec << " at %." << precision << "g: kernel gave '"
                    << got << "', to_chars '" << want << "'";
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

constexpr int kMinE = detail::kDouble17MinExponent;
constexpr int kMaxE = detail::kDouble17MaxExponent;
constexpr std::uint64_t kHidden = std::uint64_t{1} << 52;

/// m * 2^(e - 52), exact for a 53-bit mantissa m.
double from_mantissa(std::uint64_t m, int e) {
  return std::ldexp(static_cast<double>(m), e - 52);
}

/// floor(log10 |v|) read off v's exact decimal expansion: every double of
/// the band has at most 17 integer and 105 fraction digits, so 200
/// significant digits in scientific form are exact, never rounded up.
int decimal_exponent(double v) {
  char buf[256];
  const auto res = std::to_chars(buf, buf + sizeof buf, v,
                                 std::chars_format::scientific, 200);
  EXPECT_EQ(res.ec, std::errc{});
  const std::string text(buf, res.ptr);
  return std::atoi(text.c_str() + text.find('e') + 1);
}

TEST(FormatDouble17, DecadeEstimateIsFloorOfELog10Two) {
  for (int e = kMinE; e <= kMaxE; ++e) {
    const int expected = decimal_exponent(std::ldexp(1.0, e));
    EXPECT_EQ(detail::decade_estimate(e), expected) << "E = " << e;
    EXPECT_EQ(expected,
              static_cast<int>(std::floor(e * std::log10(2.0L))))
        << "E = " << e;
  }
}

TEST(FormatDouble17, ExponentTableMatchesBisectionOverExactExpansions) {
  // The threshold is the smallest mantissa whose value reaches the next
  // decade; the decimal exponent only grows with m inside a binade, so a
  // bisection over exact expansions finds it without the kernel's
  // arithmetic.
  for (int e = kMinE; e <= kMaxE; ++e) {
    const int next_decade = detail::decade_estimate(e) + 1;
    std::uint64_t lo = kHidden;      // always below the next decade
    std::uint64_t hi = 2 * kHidden;  // "never" when nothing reaches it
    while (hi - lo > 1) {
      const std::uint64_t mid = lo + (hi - lo) / 2;
      if (decimal_exponent(from_mantissa(mid, e)) >= next_decade) {
        hi = mid;
      } else {
        lo = mid;
      }
    }
    if (decimal_exponent(from_mantissa(lo, e)) >= next_decade) hi = lo;
    EXPECT_EQ(detail::decade_threshold(e), hi) << "E = " << e;
  }
}

TEST(FormatDouble17, EveryBinadeAroundItsThresholdAndEdges) {
  std::vector<double> values;
  for (int e = kMinE; e <= kMaxE; ++e) {
    const std::uint64_t t = detail::decade_threshold(e);
    for (const std::uint64_t m : {t - 1, t, t + 1}) {
      if (m >= kHidden && m < 2 * kHidden) {
        values.push_back(from_mantissa(m, e));
      }
    }
    values.push_back(std::ldexp(1.0, e));                        // 2^E
    values.push_back(from_mantissa(2 * kHidden - 1, e));         // 2^(E+1)-ulp
  }
  // The binades just outside the table take the fallback.
  values.push_back(std::ldexp(1.0, kMinE - 1));
  values.push_back(from_mantissa(2 * kHidden - 1, kMinE - 1));
  values.push_back(std::ldexp(1.0, kMaxE + 1));
  EXPECT_EQ(mismatches(with_negatives(values)), 0u);
}

/// 10^k for k in [0, 19].
std::uint64_t pow10(int k) {
  std::uint64_t p = 1;
  for (; k > 0; --k) p *= 10;
  return p;
}

/// A random pattern whose exponent field lies in the exact band at
/// `precision`: 2^-54 up to the first binade past 10^precision.
double in_band(std::uint64_t& state, int precision) {
  const std::uint64_t r = splitmix64(state);
  // ceil(precision * log2 10) + 2 binades above 2^0.
  const auto above = static_cast<std::uint64_t>(precision * 3322 / 1000 + 3);
  const std::uint64_t biased = 1023 - 54 + (r >> 52) % (54 + above);
  return std::bit_cast<double>((r & 0x800f'ffff'ffff'ffffULL) |
                               (biased << 52));
}

TEST(FormatDouble, MatchesToCharsAtEveryPrecision) {
  // Sized so the 16 precisions below 17 cost about what the 17-digit
  // sweep above costs; write_double at 17 is checked on random patterns
  // in WritesNothingPastItsReturnedPointer.
  constexpr std::size_t kUniform = 40'000;
  constexpr std::size_t kInBand = 240'000;
  std::uint64_t state = 20080415;
  for (int precision = 1; precision <= 16; ++precision) {
    std::vector<double> values;
    values.reserve(kUniform + kInBand);
    for (std::size_t i = 0; i < kUniform; ++i) {
      values.push_back(std::bit_cast<double>(splitmix64(state)));
    }
    for (std::size_t i = 0; i < kInBand; ++i) {
      values.push_back(in_band(state, precision));
    }
    EXPECT_EQ(mismatches(values, precision), 0u) << "at %." << precision
                                                  << "g";
  }
}

TEST(FormatDouble, PowersOfTenAndNeighboursAtEveryPrecision) {
  // 10^k - 1 ulp rounds up to 10^k below 17 digits: the 9s rollover that
  // moves the decimal exponent after rounding.
  std::vector<double> values;
  for (int k = -20; k <= 20; ++k) {
    const double p = std::pow(10.0, k);
    values.push_back(std::nextafter(p, 0.0));
    values.push_back(p);
    values.push_back(std::nextafter(p, HUGE_VAL));
  }
  values = with_negatives(values);
  for (int precision = 1; precision <= 17; ++precision) {
    EXPECT_EQ(mismatches(values, precision), 0u) << "at %." << precision
                                                 << "g";
  }
}

TEST(FormatDouble, RoundHalfEvenTiesAtEveryPrecision) {
  // N / 2^j has the decimal digits of N * 5^j, which end in 5 for odd N;
  // with N * 5^j in [10^P, 10^(P+1)) it is an exact tie at precision P.
  std::uint64_t state = 11;
  for (int precision = 1; precision <= 17; ++precision) {
    std::vector<double> values;
    std::uint64_t pow5 = 1;
    for (int j = 1; j <= 20; ++j) {
      pow5 *= 5;
      const std::uint64_t first = (pow10(precision) + pow5 - 1) / pow5;
      const std::uint64_t last = (pow10(precision + 1) - 1) / pow5;
      if (first > last || last >= (std::uint64_t{1} << 53)) continue;
      for (int i = 0; i < 2'000; ++i) {
        std::uint64_t n = first + splitmix64(state) % (last - first + 1);
        if (n % 2 == 0) n = n + 1 <= last ? n + 1 : n - 1;
        if (n < first) continue;
        values.push_back(std::ldexp(static_cast<double>(n), -j));
      }
    }
    EXPECT_FALSE(values.empty()) << "at %." << precision << "g";
    EXPECT_EQ(mismatches(with_negatives(values), precision), 0u)
        << "at %." << precision << "g";
  }
  EXPECT_EQ(kernel(0.125, 2), "0.12");
  EXPECT_EQ(kernel(0.375, 2), "0.38");
  EXPECT_EQ(kernel(2.5, 1), "2");
}

TEST(FormatDouble, RoundingCarriesIntoExponentialForm) {
  // The digits round up to 10^P, so the decimal exponent becomes P and %g
  // switches to exponential form.
  EXPECT_EQ(kernel(9.5, 1), "1e+01");
  EXPECT_EQ(kernel(999.5, 3), "1e+03");
  EXPECT_EQ(kernel(99999.5, 5), "1e+05");
  EXPECT_EQ(kernel(-999.5, 3), "-1e+03");
  // A carry that stays in fixed form.
  EXPECT_EQ(kernel(9.96875, 2), "10");
  for (const double v : {9.5, 999.5, 99999.5, 9.96875, 0.9990234375}) {
    for (int precision = 1; precision <= 17; ++precision) {
      EXPECT_EQ(kernel(v, precision), reference(v, precision))
          << v << " at %." << precision << "g";
      EXPECT_EQ(kernel(-v, precision), reference(-v, precision))
          << -v << " at %." << precision << "g";
    }
  }
}

TEST(FormatDouble, FormatDoubleAndAppendDoubleAtEveryPrecision) {
  for (const double v : {0.5, 1.0 / 3.0, 123456.789, 1e-7, -2.5e20, 86399.125,
                         5e-324}) {
    for (int precision = 1; precision <= 24; ++precision) {
      EXPECT_EQ(format_double(v, precision), reference(v, precision))
          << v << " at %." << precision << "g";
    }
    std::string appended = "x";
    append_double(appended, v, 9);
    EXPECT_EQ(appended.substr(1), reference(v, 9));
    EXPECT_EQ(appended.front(), 'x');
  }
}

constexpr char kSentinel = '\x7f';
constexpr std::size_t kPad = 16;

TEST(FormatDouble, WritesNothingPastItsReturnedPointer) {
  std::vector<double> edges = with_negatives(
      {0.0, 1.0, 0.1, 1e-4, 1e-5, 1e16, 1e17, 99999999999999999.0,
       1234567890123456.25, 0.5, 9.5, 999.5, 99999.5, 5e-324,
       2.2250738585072009e-308, std::numeric_limits<double>::max(),
       std::numeric_limits<double>::infinity(),
       std::numeric_limits<double>::quiet_NaN()});
  for (int e = kMinE - 2; e <= kMaxE + 2; ++e) {
    edges.push_back(std::ldexp(1.0, e));
    edges.push_back(-from_mantissa(2 * kHidden - 1, e));
  }
  // write_double17 at 17, write_double at every precision.
  const auto check = [&](int precision, auto write, std::size_t randoms) {
    std::vector<double> values = edges;
    std::uint64_t state = static_cast<std::uint64_t>(precision);
    for (std::size_t i = 0; i < randoms; ++i) {
      values.push_back(std::bit_cast<double>(splitmix64(state)));
    }
    const auto bound = static_cast<std::size_t>(precision) + 7;
    std::size_t longest = 0;
    std::size_t bad = 0;
    for (const double v : values) {
      std::array<char, kPad + kDouble17MaxChars + kPad> buf;
      buf.fill(kSentinel);
      char* const first = buf.data() + kPad;
      char* const end = write(first, v);
      const auto n = static_cast<std::size_t>(end - first);
      longest = std::max(longest, n);
      const bool clean =
          n <= bound &&
          std::all_of(buf.begin(), buf.begin() + kPad,
                      [](char c) { return c == kSentinel; }) &&
          std::all_of(buf.begin() + static_cast<std::ptrdiff_t>(kPad + n),
                      buf.end(), [](char c) { return c == kSentinel; }) &&
          std::string(first, end) == reference(v, precision);
      if (!clean && ++bad <= 5) {
        ADD_FAILURE() << "bits 0x" << std::hex
                      << std::bit_cast<std::uint64_t>(v) << " at %."
                      << std::dec << precision << "g: wrote " << n
                      << " bytes '" << std::string(first, end)
                      << "' or touched bytes outside them";
      }
    }
    EXPECT_EQ(bad, 0u) << "at %." << precision << "g";
    // One digit has no point: "-1e-308".
    EXPECT_EQ(longest, precision == 1 ? bound - 1 : bound)
        << "at %." << precision << "g";
  };
  check(17, [](char* out, double v) { return write_double17(out, v); },
        100'000);
  for (int precision = 1; precision <= 17; ++precision) {
    check(precision,
          [precision](char* out, double v) {
            return write_double(out, v, precision);
          },
          20'000);
  }
  EXPECT_EQ(kDouble17MaxChars, static_cast<std::size_t>(kDoubleMaxPrecision) + 7);
}

}  // namespace
}  // namespace pr
