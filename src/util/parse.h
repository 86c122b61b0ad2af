// parse.h — strict full-token parsing of numeric/boolean text. std::stoul
// and friends accept trailing garbage ("8x" parses as 8) and silently wrap
// negative input into huge unsigned values; every CLI flag, scenario-file
// value and ParamMap knob goes through these instead, so a typo fails with
// an error naming the flag/key rather than running the wrong experiment.
#pragma once

#include <cstdint>
#include <string_view>

namespace pr {

/// Parse `text` as an unsigned 64-bit integer. The whole token must be
/// consumed; leading '-'/'+'/whitespace and trailing characters are
/// rejected. `what` names the flag/key in the std::invalid_argument.
[[nodiscard]] std::uint64_t parse_u64(std::string_view text,
                                      std::string_view what);

/// parse_u64 narrowed to std::size_t (range-checked on 32-bit targets).
[[nodiscard]] std::size_t parse_size(std::string_view text,
                                     std::string_view what);

/// parse_u64 narrowed to std::uint32_t: a value above 2^32 - 1 is an
/// error naming `what`, never a silent wrap (4294967296 is not 0).
[[nodiscard]] std::uint32_t parse_u32(std::string_view text,
                                      std::string_view what);

/// Parse `text` as a finite double. Whole token must be consumed;
/// "inf"/"nan" are rejected (no knob wants them).
[[nodiscard]] double parse_double(std::string_view text,
                                  std::string_view what);

/// Parse a boolean: true/false, 1/0, yes/no, on/off (case-insensitive).
[[nodiscard]] bool parse_bool(std::string_view text, std::string_view what);

}  // namespace pr
