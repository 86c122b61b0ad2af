#include "util/parse.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace pr {

namespace {

[[noreturn]] void fail(std::string_view what, std::string_view kind,
                       std::string_view text) {
  std::string message(what);
  message += ": invalid ";
  message += kind;
  message += " '";
  message += text;
  message += "'";
  throw std::invalid_argument(message);
}

}  // namespace

std::uint64_t parse_u64(std::string_view text, std::string_view what) {
  std::uint64_t value = 0;
  const char* first = text.data();
  const char* last = text.data() + text.size();
  // from_chars is already strict about sign/whitespace; we only add the
  // full-token requirement (ptr must reach the end).
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc{} || ptr != last || text.empty()) {
    fail(what, "unsigned integer", text);
  }
  return value;
}

std::size_t parse_size(std::string_view text, std::string_view what) {
  const std::uint64_t value = parse_u64(text, what);
  if (value > std::numeric_limits<std::size_t>::max()) {
    fail(what, "unsigned integer (out of range)", text);
  }
  return static_cast<std::size_t>(value);
}

std::uint32_t parse_u32(std::string_view text, std::string_view what) {
  const std::uint64_t value = parse_u64(text, what);
  if (value > std::numeric_limits<std::uint32_t>::max()) {
    fail(what, "unsigned integer (out of range)", text);
  }
  return static_cast<std::uint32_t>(value);
}

double parse_double(std::string_view text, std::string_view what) {
  double value = 0.0;
  const char* first = text.data();
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc{} || ptr != last || text.empty() ||
      !std::isfinite(value)) {
    fail(what, "number", text);
  }
  return value;
}

bool parse_bool(std::string_view text, std::string_view what) {
  std::string lower(text);
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  if (lower == "true" || lower == "1" || lower == "yes" || lower == "on") {
    return true;
  }
  if (lower == "false" || lower == "0" || lower == "no" || lower == "off") {
    return false;
  }
  fail(what, "boolean", text);
}

}  // namespace pr
