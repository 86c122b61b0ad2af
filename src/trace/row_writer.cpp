#include "trace/row_writer.h"

#include <array>
#include <charconv>
#include <cstddef>
#include <cstring>
#include <ostream>

#include "util/contracts.h"
#include "util/fmt.h"

namespace pr::detail {

namespace {

/// Rows accumulate in one block of this size before a write().
constexpr std::size_t kBlockBytes = 16 * 1024;

/// Room kept for the next row; the longest is a JSONL row:
/// 5 + 24 (arrival) + 8 + 10 (file) + 9 + 20 (bytes) + 8 + 1 + 3 = 88.
constexpr std::size_t kMaxRowBytes = 128;
static_assert(5 + kDouble17MaxChars + 8 + 10 + 9 + 20 + 8 + 1 + 3 <=
              kMaxRowBytes);

/// Copies a string literal without its terminating NUL.
template <std::size_t N>
char* put(char* out, const char (&literal)[N]) {
  std::memcpy(out, literal, N - 1);
  return out + N - 1;
}

/// Decimal text of an unsigned integer; 20 digits hold any 64-bit value.
template <typename Unsigned>
char* put_integer(char* out, Unsigned v) {
  return std::to_chars(out, out + 20, v).ptr;
}

char op_char(RequestKind kind) {
  return kind == RequestKind::kRead ? 'R' : 'W';
}

char* put_csv_row(char* out, const Request& r) {
  out = write_double(out, r.arrival.value(), 9);
  *out++ = ',';
  out = put_integer(out, r.file);
  *out++ = ',';
  out = put_integer(out, r.size);
  *out++ = ',';
  *out++ = op_char(r.kind);
  *out++ = '\n';
  return out;
}

char* put_jsonl_row(char* out, const Request& r) {
  out = put(out, "{\"t\":");
  out = write_double17(out, r.arrival.value());
  out = put(out, ",\"file\":");
  out = put_integer(out, r.file);
  out = put(out, ",\"bytes\":");
  out = put_integer(out, r.size);
  out = put(out, ",\"op\":\"");
  *out++ = op_char(r.kind);
  return put(out, "\"}\n");
}

}  // namespace

void write_trace_rows(RequestSource& source, std::ostream& out,
                      TraceRowFormat format, std::string_view header) {
  std::array<char, kBlockBytes> block{};
  PR_PRECONDITION(header.size() <= block.size() - kMaxRowBytes,
                  "write_trace_rows: header longer than a block");
  char* const first = block.data();
  char* const full = first + block.size() - kMaxRowBytes;
  char* cursor = first + header.copy(first, header.size());
  const auto write_block = [&] {
    out.write(first, cursor - first);
    cursor = first;
  };
  Request r;
  while (true) {
    bool more = false;
    try {
      more = source.next(r);
    } catch (...) {
      // The rows produced so far reach the stream before the source's
      // exception does; a write that throws here replaces it.
      write_block();
      throw;
    }
    if (!more) break;
    cursor = format == TraceRowFormat::kCsv ? put_csv_row(cursor, r)
                                            : put_jsonl_row(cursor, r);
    if (cursor > full) write_block();
  }
  write_block();
}

}  // namespace pr::detail
