#include "util/fmt.h"

#include <array>
#include <bit>
#include <charconv>
#include <cstdint>
#include <system_error>

#include "util/contracts.h"

namespace pr {

namespace {

__extension__ typedef unsigned __int128 U128;

constexpr std::uint64_t k1e8 = 100'000'000ULL;
constexpr std::uint64_t k1e16 = 10'000'000'000'000'000ULL;
constexpr std::uint64_t k1e17 = 100'000'000'000'000'000ULL;

/// 5^p for p in [0, 32]; 5^32 * 2^53 < 2^128, so m * 5^p never overflows.
constexpr std::array<U128, 33> kPow5 = [] {
  std::array<U128, 33> pow{};
  pow[0] = 1;
  for (std::size_t p = 1; p < pow.size(); ++p) pow[p] = pow[p - 1] * 5;
  return pow;
}();

constexpr char kDigitPairs[] =
    "00010203040506070809101112131415161718192021222324252627282930313233343536"
    "37383940414243444546474849505152535455565758596061626364656667686970717273"
    "7475767778798081828384858687888990919293949596979899";

/// Writes the 8 decimal digits of `v` (< 10^8, zero-padded) to `out`.
void write_8_digits(std::uint32_t v, char* out) {
  for (int i = 6; i >= 0; i -= 2) {
    const std::uint32_t pair = (v % 100) * 2;
    v /= 100;
    out[i] = kDigitPairs[pair];
    out[i + 1] = kDigitPairs[pair + 1];
  }
}

/// `%.17g` for a normal double with |v| in [2^-53, 1e17), or false when `v`
/// is outside that band (the caller then uses std::to_chars).
///
/// With v = m * 2^e (m < 2^53) and decimal exponent X, the 17 significant
/// digits are D = round(|v| * 10^p), p = 16 - X, which is
/// m * 5^p * 2^(e + p): an exact 128-bit product followed by a shift whose
/// shifted-out bits decide round-half-even. The band keeps p in [0, 32]:
/// its lower edge 2^-53 (~1.1e-16) is where the first exponent estimate
/// below can reach X = -16.
bool append_double17_exact(std::string& out, double v) {
  const auto bits = std::bit_cast<std::uint64_t>(v);
  const int biased = static_cast<int>((bits >> 52) & 0x7ff);
  // Zero, subnormals, infinities and NaN.
  if (biased == 0 || biased == 0x7ff) return false;
  const bool negative = (bits >> 63) != 0;
  const double mag = negative ? -v : v;
  if (!(mag >= 0x1p-53 && mag < 1e17)) return false;

  const std::uint64_t m = (bits & ((std::uint64_t{1} << 52) - 1)) |
                          (std::uint64_t{1} << 52);
  const int e = biased - 1075;
  // |v| is in [2^(e+52), 2^(e+53)), so X is floor((e + 52) * log10(2)) or
  // one more; 78913 / 2^18 approximates log10(2) closely enough here, and
  // the loop corrects the estimate either way. The p bounds check only
  // guards the table index: inside the band it never fails.
  int x = ((e + 52) * 78913) >> 18;
  std::uint64_t digits = 0;
  bool round_up = false;
  for (;;) {
    const int p = 16 - x;
    if (p < 0 || p > 32) return false;
    const U128 n = kPow5[static_cast<std::size_t>(p)] * m;
    const int shift = e + p;
    U128 truncated = 0;
    if (shift >= 0) {
      // m >= 2^52, so a left shift of 7 or more already passes 10^17.
      truncated = (shift < 7 && n < k1e17) ? n << shift : U128{k1e17};
      round_up = false;
    } else {
      const int right = -shift;
      if (right >= 128) return false;
      truncated = n >> right;
      const U128 half = U128{1} << (right - 1);
      const U128 rem = n & ((half << 1) - 1);
      round_up = rem > half || (rem == half && (truncated & 1) != 0);
    }
    if (truncated < k1e16) {
      --x;
    } else if (truncated >= k1e17) {
      ++x;
    } else {
      digits = static_cast<std::uint64_t>(truncated);
      break;
    }
  }
  if (round_up && ++digits == k1e17) {
    digits = k1e16;
    ++x;
  }

  // digits is in [10^16, 10^17): the leading digit is never 0.
  char d[17];
  d[0] = static_cast<char>('0' + digits / k1e16);
  const std::uint64_t rest = digits % k1e16;
  write_8_digits(static_cast<std::uint32_t>(rest / k1e8), d + 1);
  write_8_digits(static_cast<std::uint32_t>(rest % k1e8), d + 9);
  int len = 17;
  while (d[len - 1] == '0') --len;

  // Longest result: "-0.000" + 17 digits, or "-d." + 16 digits + "e-16".
  char buf[32];
  char* p = buf;
  if (negative) *p++ = '-';
  if (x >= -4 && x < 17) {
    if (x >= 0) {
      for (int i = 0; i <= x; ++i) *p++ = d[i];
      if (len > x + 1) {
        *p++ = '.';
        for (int i = x + 1; i < len; ++i) *p++ = d[i];
      }
    } else {
      *p++ = '0';
      *p++ = '.';
      for (int i = 0; i < -x - 1; ++i) *p++ = '0';
      for (int i = 0; i < len; ++i) *p++ = d[i];
    }
  } else {
    *p++ = d[0];
    if (len > 1) {
      *p++ = '.';
      for (int i = 1; i < len; ++i) *p++ = d[i];
    }
    // The band keeps |x| <= 16, so the exponent always has two digits.
    const int ax = x < 0 ? -x : x;
    *p++ = 'e';
    *p++ = x < 0 ? '-' : '+';
    *p++ = static_cast<char>('0' + ax / 10);
    *p++ = static_cast<char>('0' + ax % 10);
  }
  out.append(buf, p);
  return true;
}

}  // namespace

void append_double(std::string& out, double v, int precision) {
  PR_PRECONDITION(precision > 0, "format_double: precision must be positive");
  if (precision == 17 && append_double17_exact(out, v)) return;
  // 17 significant digits + sign + decimal point + "e+308" exponent fits
  // comfortably; 64 leaves slack for any sane precision.
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v,
                                 std::chars_format::general, precision);
  PR_ASSERT(res.ec == std::errc{}, "format_double: to_chars overflow");
  out.append(buf, res.ptr);
}

std::string format_double(double v, int precision) {
  std::string out;
  append_double(out, v, precision);
  return out;
}

}  // namespace pr
