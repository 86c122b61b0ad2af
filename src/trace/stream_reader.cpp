#include "trace/stream_reader.h"

#include <algorithm>
#include <cfloat>
#include <cstdint>
#include <istream>
#include <iterator>
#include <stdexcept>

#include "trace/row_writer.h"
#include "util/contracts.h"
#include "util/csv.h"
#include "util/parse.h"

namespace pr {

namespace {

constexpr const char* kCsvHeader = "time_s,file_id,bytes,op";
/// Refill granularity; the effective chunk shrinks near the buffer bound.
constexpr std::size_t kReadChunk = 64 * 1024;

// The fast path's arrival is one IEEE division of two exact doubles; that
// is only correctly rounded when the division is evaluated in double
// precision and not rewritten as a multiplication by a reciprocal.
static_assert(FLT_EVAL_METHOD == 0,
              "the CSV fast path needs double-precision evaluation");
#ifdef __FAST_MATH__
#error "the CSV fast path's exact arrival division breaks under -ffast-math"
#endif

/// 10^k for k <= 22: every entry is an exact double (5^22 < 2^53).
constexpr double kExactPow10[] = {
    1e0,  1e1,  1e2,  1e3,  1e4,  1e5,  1e6,  1e7,  1e8,  1e9,  1e10, 1e11,
    1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22};
/// Largest mantissa whose conversion to double is exact.
constexpr std::uint64_t kMaxExactMantissa = std::uint64_t{1} << 53;
/// Longest digit run that cannot wrap a u64 (10^19 - 1 < 2^64).
constexpr std::ptrdiff_t kMaxDigits = 19;

/// Append the decimal digit run starting at `p` to `value`; returns the
/// first non-digit. Past kMaxDigits the value wraps (unsigned, so defined),
/// and every caller rejects such runs by their length.
const char* accumulate_digits(const char* p, const char* end,
                              std::uint64_t& value) {
  for (; p != end; ++p) {
    const unsigned digit = static_cast<unsigned char>(*p) - unsigned{'0'};
    if (digit > 9) break;
    value = value * 10 + digit;
  }
  return p;
}

/// Scan `<digits>,` (1..kMaxDigits digits) at `p`; returns the position
/// after the comma, or nullptr.
const char* scan_integer_field(const char* p, const char* end,
                               std::uint64_t& value) {
  const char* const stop = accumulate_digits(p, end, value);
  if (stop == p || stop - p > kMaxDigits || stop == end || *stop != ',') {
    return nullptr;
  }
  return stop + 1;
}

/// The fast path: one forward pass over the canonical row shape (see
/// stream_reader.h). Returns false, leaving `out` untouched, for any row it
/// cannot convert exactly; the caller then takes the strict slow path.
bool scan_csv_row(std::string_view row, Request& out) {
  const char* p = row.data();
  const char* const end = p + row.size();

  // Arrival: every significant digit into m, k = fraction digits.
  const char* const first = p;
  while (p != end && *p == '0') ++p;  // leading zeros carry no value
  std::uint64_t m = 0;
  const char* significant = p;
  p = accumulate_digits(p, end, m);
  if (p == first) return false;
  std::ptrdiff_t digits = p - significant;
  std::ptrdiff_t k = 0;
  if (p != end && *p == '.') {
    const char* const fraction = ++p;
    if (digits == 0) {
      while (p != end && *p == '0') ++p;
    }
    significant = p;
    p = accumulate_digits(p, end, m);
    k = p - fraction;
    digits += p - significant;
    if (k == 0) return false;
  }
  if (digits > kMaxDigits || k >= std::ssize(kExactPow10) ||
      m > kMaxExactMantissa || p == end || *p != ',') {
    return false;
  }

  std::uint64_t file = 0;
  std::uint64_t bytes = 0;
  p = scan_integer_field(p + 1, end, file);
  if (p == nullptr || file >= kInvalidFile) return false;
  p = scan_integer_field(p, end, bytes);
  if (p == nullptr || end - p != 1 || (*p != 'R' && *p != 'W')) return false;

  out.arrival = Seconds{static_cast<double>(m) / kExactPow10[k]};
  out.file = static_cast<FileId>(file);
  out.size = bytes;
  out.kind = *p == 'R' ? RequestKind::kRead : RequestKind::kWrite;
  return true;
}

/// The slow path: any row shape split_csv_line understands, parsed by the
/// strict full-token parsers. Kept out of line so the fast path stays small.
[[gnu::noinline]] Request parse_csv_row_strict(std::string_view row) {
  const auto fields = split_csv_line(row);
  if (fields.size() != 4) {
    throw std::invalid_argument(
        "expected 4 fields (time_s,file_id,bytes,op), got " +
        std::to_string(fields.size()));
  }
  Request r;
  r.arrival = Seconds{parse_double(fields[0], "time_s")};
  const std::uint64_t file = parse_u64(fields[1], "file_id");
  r.size = parse_u64(fields[2], "bytes");
  if (file >= kInvalidFile) throw std::invalid_argument("file_id out of range");
  r.file = static_cast<FileId>(file);
  if (fields[3] == "R") {
    r.kind = RequestKind::kRead;
  } else if (fields[3] == "W") {
    r.kind = RequestKind::kWrite;
  } else {
    throw std::invalid_argument("bad op '" + fields[3] +
                                "', expected R or W");
  }
  return r;
}

std::string_view trim_ws(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

/// Lines of `in` from its current position that are not `blank` once one
/// trailing CR is stripped; rewinds `in` to that position. nullopt when
/// `in` cannot tell its position (a pipe or terminal).
template <class Blank>
std::optional<std::size_t> count_rows(std::istream& in, Blank blank) {
  const std::streampos start = in.tellg();
  if (start == std::streampos(-1)) return std::nullopt;
  std::size_t rows = 0;
  std::string line;
  while (std::getline(in, line)) {
    std::string_view view = line;
    if (!view.empty() && view.back() == '\r') view.remove_suffix(1);
    if (!blank(view)) ++rows;
  }
  if (in.bad()) throw std::runtime_error("count_rows: read error");
  in.clear();
  if (!in.seekg(start)) throw std::runtime_error("count_rows: cannot rewind");
  return rows;
}

}  // namespace

LineStreamSource::LineStreamSource(std::istream& in, std::string source,
                                   StreamReaderOptions options)
    : in_(&in), source_(std::move(source)), options_(options) {
  if (options_.buffer_bytes == 0) {
    throw std::invalid_argument("stream_reader: buffer_bytes == 0");
  }
}

LineStreamSource::LineStreamSource(const std::string& path,
                                   StreamReaderOptions options)
    : owned_(path, std::ios::binary), in_(&owned_), source_(path),
      options_(options) {
  if (!owned_) {
    throw std::runtime_error("stream_reader: cannot open " + path);
  }
  if (options_.buffer_bytes == 0) {
    throw std::invalid_argument("stream_reader: buffer_bytes == 0");
  }
}

void LineStreamSource::fail(const std::string& message) const {
  throw std::invalid_argument(source_ + ":" + std::to_string(line_no_) +
                              ": " + message);
}

void LineStreamSource::check_sorted(Seconds arrival) {
  if (have_last_ && arrival < last_arrival_) fail("arrivals not sorted");
  last_arrival_ = arrival;
  have_last_ = true;
}

void LineStreamSource::refill() {
  // Compact the delivered prefix in one move per refill (amortized O(1)
  // per byte) instead of erasing it per line.
  if (consumed_ > 0) {
    buffer_.erase(0, consumed_);
    scan_from_ -= consumed_;
    consumed_ = 0;
  }
  const std::size_t room = options_.buffer_bytes - buffer_.size();
  const std::size_t chunk = std::min(room, kReadChunk);
  const std::size_t old = buffer_.size();
  buffer_.resize(old + chunk);
  in_->read(buffer_.data() + old,
            static_cast<std::streamsize>(chunk));
  const auto got = static_cast<std::size_t>(in_->gcount());
  buffer_.resize(old + got);
  if (in_->bad()) {
    throw std::runtime_error(source_ + ": read error");
  }
  if (got == 0) exhausted_ = true;
  // The bound is the reader's whole memory contract; a violation here
  // means the framing logic is broken, not that the input is bad.
  PR_INVARIANT(buffer_.size() <= options_.buffer_bytes,
               "stream reader buffered more bytes than the configured bound");
  high_water_ = std::max(high_water_, buffer_.size());
}

bool LineStreamSource::next_line(std::string_view& line) {
  for (;;) {
    const std::size_t nl = buffer_.find('\n', scan_from_);
    if (nl != std::string::npos) {
      line = std::string_view(buffer_).substr(consumed_, nl - consumed_);
      consumed_ = nl + 1;
      scan_from_ = consumed_;
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      ++line_no_;
      return true;
    }
    scan_from_ = buffer_.size();
    if (exhausted_) {
      if (consumed_ >= buffer_.size()) return false;
      // Bytes after the final newline: a truncated/garbled tail must be
      // an error, not a silently dropped request.
      ++line_no_;
      fail("truncated line at end of stream (missing trailing newline)");
    }
    if (buffer_.size() - consumed_ >= options_.buffer_bytes) {
      ++line_no_;
      fail("line exceeds the " + std::to_string(options_.buffer_bytes) +
           "-byte buffer bound");
    }
    refill();
  }
}

bool LineStreamSource::poll(Request& out) {
  std::string_view line;
  while (next_line(line)) {
    if (parse_line(line, out)) return true;
  }
  return false;
}

// ------------------------------------------------------------------ CSV

CsvStreamSource::CsvStreamSource(std::istream& in, std::string source,
                                 StreamReaderOptions options)
    : LineStreamSource(in, std::move(source), options) {
  consume_header();
}

CsvStreamSource::CsvStreamSource(const std::string& path,
                                 StreamReaderOptions options)
    : LineStreamSource(path, options) {
  consume_header();
}

void CsvStreamSource::consume_header() {
  std::string_view line;
  if (!next_line(line)) {
    throw std::invalid_argument(describe() + ":1: empty input, expected '" +
                                std::string(kCsvHeader) + "' header");
  }
  if (line != kCsvHeader) {
    fail("bad header '" + std::string(line) + "', expected '" + kCsvHeader +
         "'");
  }
}

Request parse_csv_row(std::string_view row) {
  Request r;
  if (!scan_csv_row(row, r)) r = parse_csv_row_strict(row);
  return r;
}

bool CsvStreamSource::parse_line(std::string_view line, Request& out) {
  if (line.empty()) return false;  // blank separator, same as the batch reader
  Request r;
  try {
    r = parse_csv_row(line);
  } catch (const std::invalid_argument& e) {
    fail(e.what());
  }
  check_sorted(r.arrival);
  out = r;
  return true;
}

// ---------------------------------------------------------------- JSONL

JsonlStreamSource::JsonlStreamSource(std::istream& in, std::string source,
                                     StreamReaderOptions options)
    : LineStreamSource(in, std::move(source), options) {}

JsonlStreamSource::JsonlStreamSource(const std::string& path,
                                     StreamReaderOptions options)
    : LineStreamSource(path, options) {}

bool JsonlStreamSource::parse_line(std::string_view line, Request& out) {
  std::string_view body = trim_ws(line);
  if (body.empty()) return false;
  if (body.front() != '{' || body.back() != '}') {
    fail("expected a JSON object");
  }
  body = trim_ws(body.substr(1, body.size() - 2));

  Request r;
  bool have_t = false;
  bool have_file = false;
  bool have_bytes = false;
  // The schema's values are numbers and one-character strings, so a flat
  // comma split is an exact tokenizer for well-formed lines (and malformed
  // ones fail the per-pair checks below).
  std::size_t start = 0;
  while (start <= body.size()) {
    std::size_t comma = body.find(',', start);
    if (comma == std::string_view::npos) comma = body.size();
    const std::string_view pair =
        trim_ws(body.substr(start, comma - start));
    start = comma + 1;
    if (pair.empty()) {
      if (body.empty()) break;
      fail("empty key/value pair");
    }
    const std::size_t colon = pair.find(':');
    if (colon == std::string_view::npos) fail("expected \"key\":value");
    std::string_view key = trim_ws(pair.substr(0, colon));
    const std::string_view value = trim_ws(pair.substr(colon + 1));
    if (key.size() < 2 || key.front() != '"' || key.back() != '"') {
      fail("expected a quoted key");
    }
    key = key.substr(1, key.size() - 2);
    try {
      if (key == "t") {
        r.arrival = Seconds{pr::parse_double(value, "t")};
        have_t = true;
      } else if (key == "file") {
        const std::uint64_t file = parse_u64(value, "file");
        if (file >= kInvalidFile) fail("file out of range");
        r.file = static_cast<FileId>(file);
        have_file = true;
      } else if (key == "bytes") {
        r.size = parse_u64(value, "bytes");
        have_bytes = true;
      } else if (key == "op") {
        if (value == "\"R\"") {
          r.kind = RequestKind::kRead;
        } else if (value == "\"W\"") {
          r.kind = RequestKind::kWrite;
        } else {
          fail("bad op " + std::string(value) +
               ", expected \"R\" or \"W\"");
        }
      } else {
        fail("unknown key '" + std::string(key) +
             "'; valid: t, file, bytes, op");
      }
    } catch (const std::invalid_argument& e) {
      // Wrap bare value-parse errors (util/parse.h) with file:line
      // context; fail() messages already carry it.
      const std::string prefix = describe() + ":";
      if (std::string_view(e.what()).rfind(prefix, 0) == 0) throw;
      fail(e.what());
    }
  }
  if (!have_t) fail("missing key \"t\"");
  if (!have_file) fail("missing key \"file\"");
  if (!have_bytes) fail("missing key \"bytes\"");
  check_sorted(r.arrival);
  out = r;
  return true;
}

// The blank rules are the ones the readers' parse_line skips by.
std::optional<std::size_t> count_csv_rows(std::istream& in) {
  return count_rows(in, [](std::string_view line) { return line.empty(); });
}

std::optional<std::size_t> count_jsonl_rows(std::istream& in) {
  return count_rows(in,
                    [](std::string_view line) { return trim_ws(line).empty(); });
}

void write_jsonl_trace(const Trace& trace, std::ostream& out) {
  TraceSource source(trace);
  detail::write_trace_rows(source, out, detail::TraceRowFormat::kJsonl);
}

void write_jsonl_trace_file(const Trace& trace, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw std::runtime_error("write_jsonl_trace_file: cannot open " + path);
  }
  write_jsonl_trace(trace, out);
  if (!out) {
    throw std::runtime_error("write_jsonl_trace_file: write failed " + path);
  }
}

}  // namespace pr
