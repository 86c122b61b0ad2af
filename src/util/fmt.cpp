#include "util/fmt.h"

#include <array>
#include <bit>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <system_error>

#include "util/contracts.h"

namespace pr {

namespace {

__extension__ typedef unsigned __int128 U128;

constexpr std::uint64_t k1e8 = 100'000'000ULL;
constexpr std::uint64_t k1e16 = 10'000'000'000'000'000ULL;
constexpr std::uint64_t kHidden = std::uint64_t{1} << 52;

constexpr int kMinE = detail::kDouble17MinExponent;
constexpr int kMaxE = detail::kDouble17MaxExponent;

constexpr U128 pow10(int n) {
  U128 r = 1;
  for (; n > 0; --n) r *= 10;
  return r;
}

/// kThreshold[E - kMinE] is detail::decade_threshold(E). With
/// a = decade_estimate(E) + 1, m * 2^(E-52) >= 10^a is m >= 10^a * 2^(52-E),
/// taken as an exact ceiling of num / den; every product fits in 2^106.
constexpr std::array<std::uint64_t, kMaxE - kMinE + 1> kThreshold = [] {
  std::array<std::uint64_t, kMaxE - kMinE + 1> table{};
  for (int e = kMinE; e <= kMaxE; ++e) {
    const int a = detail::decade_estimate(e) + 1;
    const int s = 52 - e;
    const U128 num = pow10(a > 0 ? a : 0) << (s > 0 ? s : 0);
    const U128 den = pow10(a < 0 ? -a : 0) << (s < 0 ? -s : 0);
    const U128 m = (num + den - 1) / den;
    table[static_cast<std::size_t>(e - kMinE)] =
        m < 2 * kHidden ? static_cast<std::uint64_t>(m) : 2 * kHidden;
  }
  return table;
}();

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

/// The 8 decimal digits of v < 10^8 (zero-padded) as byte values 0..9,
/// the most significant in byte 0. Two 4-digit halves go into 32-bit lanes,
/// then 2-digit halves into 16-bit lanes, then digits into bytes; each
/// lane's quotient is a multiply-shift whose product stays inside the lane.
constexpr std::uint64_t digits8(std::uint32_t v) {
  std::uint64_t x = (v / 10'000) | (std::uint64_t{v % 10'000} << 32);
  std::uint64_t q = ((x * 10'486) >> 20) & 0x0000'007f'0000'007fULL;
  x = q | ((x - q * 100) << 16);
  q = ((x * 103) >> 10) & 0x000f'000f'000f'000fULL;
  return q | ((x - q * 10) << 8);
}

constexpr bool lane_division_is_exact() {
  for (std::uint64_t x = 0; x < 10'000; ++x) {
    if (((x * 10'486) >> 20) != x / 100) return false;
  }
  for (std::uint64_t x = 0; x < 100; ++x) {
    if (((x * 103) >> 10) != x / 10) return false;
  }
  return true;
}
static_assert(lane_division_is_exact());
static_assert(digits8(12'345'678) == 0x0807'0605'0403'0201ULL);

constexpr std::uint64_t kAsciiZeros = 0x3030'3030'3030'3030ULL;

/// Stores `word` so that its byte i lands at out[i].
void store8(char* out, std::uint64_t word) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out, &word, 8);
  } else {
    for (int i = 0; i < 8; ++i) out[i] = static_cast<char>(word >> (8 * i));
  }
}

/// Copies n <= 32 bytes as two fixed-size, possibly overlapping, copies
/// of the largest size class that fits; it touches only [src, src + n)
/// and [dst, dst + n).
void copy_short(char* dst, const char* src, std::size_t n) {
  if (n >= 16) {
    std::memcpy(dst, src, 16);
    std::memcpy(dst + n - 16, src + n - 16, 16);
  } else if (n >= 8) {
    std::memcpy(dst, src, 8);
    std::memcpy(dst + n - 8, src + n - 8, 8);
  } else if (n >= 4) {
    std::memcpy(dst, src, 4);
    std::memcpy(dst + n - 4, src + n - 4, 4);
  } else if (n >= 2) {
    std::memcpy(dst, src, 2);
    std::memcpy(dst + n - 2, src + n - 2, 2);
  } else if (n == 1) {
    *dst = *src;
  }
}

/// 10^k for k in [0, 17].
constexpr std::array<std::uint64_t, 18> kPow10 = [] {
  std::array<std::uint64_t, 18> pow{};
  pow[0] = 1;
  for (std::size_t k = 1; k < pow.size(); ++k) pow[k] = pow[k - 1] * 10;
  return pow;
}();

/// std::to_chars for everything outside the exact path. It formats into a
/// local buffer because to_chars may use its whole output range.
[[gnu::noinline]] char* write_double_fallback(char* out, double v,
                                              int precision) {
  char buf[kDouble17MaxChars];
  const auto res = std::to_chars(buf, buf + sizeof buf, v,
                                 std::chars_format::general, precision);
  PR_ASSERT(res.ec == std::errc{}, "write_double: to_chars overflow");
  const auto n = static_cast<std::size_t>(res.ptr - buf);
  std::memcpy(out, buf, n);
  return out + n;
}

/// `%.{precision}g` for precision in [1, 17]. Always inlined into its two
/// entries, so write_double17 runs with the precision folded away.
[[gnu::always_inline]] inline char* write_double_kernel(char* out, double v,
                                                        const int precision) {
  const auto bits = std::bit_cast<std::uint64_t>(v);
  const bool negative = (bits >> 63) != 0;
  if ((bits << 1) == 0) {
    if (negative) *out++ = '-';
    *out++ = '0';
    return out;
  }
  const int biased = static_cast<int>((bits >> 52) & 0x7ff);
  const int e = biased - 1023;
  // Subnormals, infinities, NaN and binades outside the table.
  if (biased == 0 || e < kMinE || e > kMaxE) {
    return write_double_fallback(out, v, precision);
  }
  const std::uint64_t m = (bits & (kHidden - 1)) | kHidden;
  int x = detail::decade_estimate(e) +
          (m >= kThreshold[static_cast<std::size_t>(e - kMinE)] ? 1 : 0);
  // |v| >= 10^precision: p would be negative.
  if (x >= precision) return write_double_fallback(out, v, precision);

  // 10^x <= |v| < 10^(x+1), so D = |v| * 10^p, p = precision - 1 - x, lies
  // in [10^(precision-1), 10^precision) before rounding;
  // |v| * 10^p = m * 5^p * 2^(e-52+p).
  const int p = precision - 1 - x;
  const U128 n = kPow5[static_cast<std::size_t>(p)] * m;
  const int shift = e - 52 + p;
  std::uint64_t digits = 0;
  if (shift >= 0) {
    digits = static_cast<std::uint64_t>(n << shift);
  } else {
    // The band keeps -shift in [1, 89].
    const int right = -shift;
    digits = static_cast<std::uint64_t>(n >> right);
    const U128 rem = n & ((U128{1} << right) - 1);
    const U128 half = U128{1} << (right - 1);
    if ((rem > half || (rem == half && (digits & 1) != 0)) &&
        ++digits == kPow10[static_cast<std::size_t>(precision)]) {
      // Rounding carried into the next decade; x may now equal precision,
      // which the %g layout below writes in exponential form.
      digits = kPow10[static_cast<std::size_t>(precision - 1)];
      ++x;
    }
  }
  // Scaled to 17 digits, [10^16, 10^17), so that one layout serves every
  // precision; the scaling only appends zeros, which the trim drops.
  digits *= kPow10[static_cast<std::size_t>(17 - precision)];

  // One head digit and two 8-digit blocks; len counts the digits left
  // once trailing zeros go. A block's last digit is its highest byte, so
  // its trailing zero digits are its leading zero bytes.
  const std::uint64_t head = digits / k1e16;
  const std::uint64_t rest = digits - head * k1e16;
  const std::uint64_t hi = digits8(static_cast<std::uint32_t>(rest / k1e8));
  const std::uint64_t lo = digits8(static_cast<std::uint32_t>(rest % k1e8));
  std::size_t len = 1;
  if (lo != 0) {
    len = 17 - static_cast<std::size_t>(std::countl_zero(lo)) / 8;
  } else if (hi != 0) {
    len = 9 - static_cast<std::size_t>(std::countl_zero(hi)) / 8;
  }
  char d[17];
  d[0] = static_cast<char>('0' + head);
  store8(d + 1, hi + kAsciiZeros);
  store8(d + 9, lo + kAsciiZeros);

  if (negative) *out++ = '-';
  if (x >= 0 && x < precision) {
    // Fixed, integer part only or with a fraction.
    const auto int_len = static_cast<std::size_t>(x) + 1;
    copy_short(out, d, int_len);
    if (len <= int_len) return out + int_len;
    out[int_len] = '.';
    copy_short(out + int_len + 1, d + int_len, len - int_len);
    return out + len + 1;
  }
  if (x < 0 && x >= -4) {
    // Fixed below 1: "0." and -x-1 zeros, then the digits.
    const auto lead = static_cast<std::size_t>(1 - x);
    // Padded to 17 bytes so that no size class copy_short could pick
    // reads past the array, as far as the compiler can tell.
    constexpr char kZeroPoint[17] = "0.000";
    copy_short(out, kZeroPoint, lead);
    copy_short(out + lead, d, len);
    return out + lead + len;
  }
  // Exponential; the band keeps |x| <= 17, so the exponent has two digits.
  *out++ = d[0];
  if (len > 1) {
    *out = '.';
    copy_short(out + 1, d + 1, len - 1);
    out += len;
  }
  const auto ax = static_cast<std::size_t>(x < 0 ? -x : x);
  const char exponent[4] = {'e', x < 0 ? '-' : '+', kDigitPairs[2 * ax],
                            kDigitPairs[2 * ax + 1]};
  std::memcpy(out, exponent, 4);
  return out + 4;
}

}  // namespace

std::uint64_t detail::decade_threshold(int e) {
  PR_PRECONDITION(e >= kMinE && e <= kMaxE,
                  "decade_threshold: exponent outside the exact band");
  return kThreshold[static_cast<std::size_t>(e - kMinE)];
}

char* write_double17(char* out, double v) {
  return write_double_kernel(out, v, 17);
}

char* write_double(char* out, double v, int precision) {
  PR_PRECONDITION(precision >= 1 && precision <= kDoubleMaxPrecision,
                  "write_double: precision outside [1, 17]");
  return write_double_kernel(out, v, precision);
}

void append_double(std::string& out, double v, int precision) {
  PR_PRECONDITION(precision > 0, "format_double: precision must be positive");
  char buf[64];
  if (precision <= kDoubleMaxPrecision) {
    out.append(buf, write_double(buf, v, precision));
    return;
  }
  // 64 bytes hold any sane precision's digits, sign, point and exponent.
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
