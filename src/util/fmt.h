// fmt.h — locale-independent numeric text via std::to_chars.
//
// Every byte-deterministic emitter (CSV, JSONL, report JSON) must produce
// the same output no matter what std::locale::global(...) an embedding
// application installed. iostream `<<` on floating values consults the
// stream's imbued locale (a German global locale turns 0.5 into "0,5" and
// corrupts every CSV), so output paths route through these helpers
// instead. std::to_chars with an explicit precision is specified to match
// printf("%.{precision}g") in the "C" locale — byte-identical to what the
// default-locale ostream code it replaces produced.
//
// Every precision P in [1, 17] goes through one exact kernel that writes
// in place and is byte-identical to std::to_chars(general, P); precision
// 17 is the round-trip format every JSONL/report emitter uses, 9 is the
// CSV trace's arrival format. write_double17 is the kernel with P = 17
// folded in at compile time; write_double takes P at run time.
//   - ±0 is written directly as "0" / "-0";
//   - a normal double v = m * 2^(E-52) with E = floor(log2 |v|) in
//     [-53, 56] and |v| < 10^P takes an exact integer path. Its decimal
//     exponent X is fixed up front: floor(E * log10 2), plus one when
//     m reaches that binade's threshold mantissa (a 110-entry table built
//     at compile time with exact 128-bit arithmetic), so there is no
//     retry. The P digits are D = round-half-even of m * 5^p * 2^(E-52+p),
//     p = P - 1 - X, one 128-bit product and shift. A carry to 10^P moves
//     X up by one, which can switch the value to exponential form
//     ("999.5" at P = 3 is "1e+03"). D * 10^(17-P) is then laid out as 17
//     digits: one head digit plus two 8-digit blocks, trailing zeros
//     trimmed by word compares, and the %g layout assembled with
//     fixed-size copies;
//   - subnormals, inf/NaN and magnitudes outside that band fall back to
//     std::to_chars, which stays the reference, as it does for P > 17 in
//     format_double / append_double. tests/test_fmt.cpp checks the kernel
//     against it byte for byte at every precision.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace pr {

/// Upper bound on the bytes write_double17 writes, e.g.
/// "-2.2250738585072014e-308". write_double at precision P writes at most
/// P + 7 bytes, so this bounds every precision too.
inline constexpr std::size_t kDouble17MaxChars = 24;

/// The highest precision write_double takes.
inline constexpr int kDoubleMaxPrecision = 17;

/// Writes `%.17g` of `v` (C locale) at `out` and returns one past the last
/// byte written. It writes at most kDouble17MaxChars bytes and touches
/// nothing at or past the returned pointer.
char* write_double17(char* out, double v);

/// Writes `%.{precision}g` of `v` (C locale), precision in
/// [1, kDoubleMaxPrecision], at `out` and returns one past the last byte
/// written. It writes at most precision + 7 bytes and touches nothing at
/// or past the returned pointer.
char* write_double(char* out, double v, int precision);

/// `%.{precision}g`-style text for `v` in the C locale. precision 17
/// round-trips every finite double; 6 matches the default ostream
/// formatting the figure benches historically emitted.
[[nodiscard]] std::string format_double(double v, int precision = 17);

/// Append form of format_double for string-building emitters; precisions
/// up to kDoubleMaxPrecision go through write_double.
void append_double(std::string& out, double v, int precision = 17);

namespace detail {

/// The binary exponents E = floor(log2 |v|) of the kernel's exact path.
inline constexpr int kDouble17MinExponent = -53;
inline constexpr int kDouble17MaxExponent = 56;

/// floor(E * log10 2) for E in [kDouble17MinExponent, kDouble17MaxExponent]:
/// 78913 / 2^18 approximates log10 2 closely enough over that range.
constexpr int decade_estimate(int e) { return (e * 78913) >> 18; }

/// The smallest mantissa m in [2^52, 2^53) with
/// m * 2^(E-52) >= 10^(decade_estimate(E) + 1), or 2^53 when no mantissa
/// of binade E reaches that decade. Exposed for tests/test_fmt.cpp.
[[nodiscard]] std::uint64_t decade_threshold(int e);

}  // namespace detail

}  // namespace pr
