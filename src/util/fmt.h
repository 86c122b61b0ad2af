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
// Precision 17 (the round-trip format every emitter uses) has an exact
// integer fast path for normal doubles with |v| in [2^-53, 1e17), that is
// from about 1.1e-16: the 17 digits are one 128-bit product m * 5^p
// shifted by a power of two and rounded half-to-even from the shifted-out
// bits, then laid out by the %g rules. Zero, subnormals, inf/NaN, magnitudes outside that band and
// every other precision go to std::to_chars, which stays the reference;
// tests/test_fmt.cpp checks the two agree byte for byte.
#pragma once

#include <string>

namespace pr {

/// `%.{precision}g`-style text for `v` in the C locale. precision 17
/// round-trips every finite double; 6 matches the default ostream
/// formatting the figure benches historically emitted.
[[nodiscard]] std::string format_double(double v, int precision = 17);

/// Append form of format_double for string-building emitters; it
/// allocates nothing beyond `out`'s own growth.
void append_double(std::string& out, double v, int precision = 17);

}  // namespace pr
