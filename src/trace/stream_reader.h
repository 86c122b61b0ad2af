// stream_reader.h — bounded-memory streaming trace readers: RequestSource
// implementations that parse text formats (CSV, JSONL) line by line from a
// file, pipe or inherited fd (/dev/fd/N, or '-' = stdin via the istream
// constructor) without ever materializing the trace.
//
// Memory contract: a reader holds at most `StreamReaderOptions::buffer_bytes`
// of undelivered input — one refill chunk's worth of pending lines. A line
// longer than the buffer is a hard error (it cannot be scanned within the
// bound), and a contracts check (util/contracts.h) asserts the bound is
// never exceeded. Because RequestSource is pull-based, this bound is also
// the backpressure story: nothing is read from the underlying stream until
// the simulator asks for the next request and the pending lines run out.
//
// Error contract: malformed input throws std::invalid_argument with
// "<source>:<line>: message" context — the same style as the scenario
// parser (src/exp/scenario.cpp) — including garbled fields, unsorted
// arrivals, and a truncated trailing line (bytes after the final newline at
// end of stream are rejected, never silently dropped).
//
// Formats:
//   CSV   — the interchange format of csv_trace.h: header
//           `time_s,file_id,bytes,op`, rows `<seconds>,<id>,<bytes>,<R|W>`.
//   JSONL — one object per line, {"t":<seconds>,"file":<id>,
//           "bytes":<n>,"op":"R"|"W"} ("op" optional, default "R"); keys in
//           any order. write_jsonl_trace emits it at full precision
//           (format_double 17), so a JSONL round trip is byte-exact in the
//           arrival doubles — unlike CSV's historical precision-9 rows.
//
// CSV rows: one parser, two speeds. parse_csv_row() is the only row parser
// of the CSV format; CsvStreamSource and read_csv_trace (csv_trace.h) both
// call it, so they accept the same rows and build the same Requests.
//   * Fast path: one forward pass that accepts exactly the shape
//     `<digits>[.<digits>],<digits>,<digits>,<R|W>` up to the end of the
//     row — the shape write_csv_trace emits whenever `%.9g` prints the
//     arrival without a sign or an exponent. Each integer field takes at
//     most 19 digits (10^19 − 1 < 2^64, so accumulation cannot wrap), and
//     the file id must stay below kInvalidFile.
//   * Exactness (Clinger's fast path): the arrival's digits, leading zeros
//     dropped, form an integer m with k fraction digits. When m has at
//     most 19 digits, m ≤ 2^53 and k ≤ 22, both double(m) and 10^k are
//     exact doubles (5^22 < 2^53), so double(m) / 10^k is one correctly
//     rounded IEEE division of the exact value m / 10^k — bit-identical to
//     std::from_chars. This needs double-precision evaluation with no
//     reciprocal rewriting; stream_reader.cpp asserts FLT_EVAL_METHOD == 0
//     and refuses to build under -ffast-math.
//   * Fallback rule: any other shape or value — a sign, an exponent,
//     quotes, padding, a missing fraction digit, more digits, a larger
//     mantissa, more fraction digits, an out-of-range id, a malformed
//     field — goes to the strict slow path: split_csv_line plus
//     util/parse.h's full-token, finite-only parse_double/parse_u64. The
//     slow path is the only place that builds error messages.
#pragma once

#include <cstddef>
#include <fstream>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "trace/request.h"
#include "trace/request_source.h"

namespace pr {

struct StreamReaderOptions {
  /// Upper bound on buffered undelivered input, in bytes. Also the
  /// longest admissible line.
  std::size_t buffer_bytes = 1 << 20;
};

/// Shared line-framing machinery: chunked reads into a bounded buffer,
/// newline scanning, CR stripping, line accounting and the truncated-tail
/// check. Subclasses implement parse_line() for their format.
class LineStreamSource : public RequestSource {
 public:
  [[nodiscard]] std::string describe() const override { return source_; }
  [[nodiscard]] bool streaming() const override { return true; }

  /// High-water mark of buffered undelivered bytes — always <= the
  /// configured bound (tests assert this on multi-GB synthetic pipes).
  [[nodiscard]] std::size_t buffer_high_water() const { return high_water_; }
  [[nodiscard]] const StreamReaderOptions& options() const { return options_; }

 protected:
  /// Read from a caller-owned stream (pipe, stdin, string stream). `source`
  /// names it in errors.
  LineStreamSource(std::istream& in, std::string source,
                   StreamReaderOptions options);
  /// Open `path` (binary). Throws std::runtime_error when it cannot be
  /// opened.
  LineStreamSource(const std::string& path, StreamReaderOptions options);

  bool poll(Request& out) override;

  /// Parse one complete line (CR/LF already stripped) into `out`. Return
  /// false to skip the line (blank separators). Throw via fail() for
  /// malformed content.
  virtual bool parse_line(std::string_view line, Request& out) = 0;

  /// Frame the next complete line as a view into the internal buffer
  /// (valid until the next next_line() call). Returns false at a clean
  /// end of stream. Subclass constructors use this to consume headers.
  bool next_line(std::string_view& line);

  /// Throw std::invalid_argument("<source>:<line>: message").
  [[noreturn]] void fail(const std::string& message) const;

  /// 1-based number of the line most recently returned by next_line().
  [[nodiscard]] std::size_t line_number() const { return line_no_; }

  /// Enforce non-decreasing arrivals with a file:line diagnostic.
  void check_sorted(Seconds arrival);

 private:
  void refill();

  std::ifstream owned_;
  std::istream* in_;
  std::string source_;
  StreamReaderOptions options_;
  std::string buffer_;  // undelivered tail <= options_.buffer_bytes
  /// Delivered prefix of buffer_ (compacted away in one move at the next
  /// refill, so line consumption is O(line), not O(buffer)).
  std::size_t consumed_ = 0;
  std::size_t scan_from_ = 0;  // no '\n' in [consumed_, scan_from_)
  std::size_t high_water_ = 0;
  std::size_t line_no_ = 0;
  bool exhausted_ = false;
  bool have_last_ = false;
  Seconds last_arrival_{0.0};
};

/// Parse one data row of the csv_trace.h format (line terminator already
/// stripped) — the row parser both CSV readers share (see the header
/// comment). Throws std::invalid_argument with a bare message; each reader
/// adds its own source/line context. Arrival order is the caller's check.
[[nodiscard]] Request parse_csv_row(std::string_view row);

/// Streaming reader for the csv_trace.h interchange format. The header is
/// consumed (and validated) at construction, so a malformed file fails at
/// open time, not mid-simulation.
class CsvStreamSource final : public LineStreamSource {
 public:
  CsvStreamSource(std::istream& in, std::string source,
                  StreamReaderOptions options = {});
  explicit CsvStreamSource(const std::string& path,
                           StreamReaderOptions options = {});

 protected:
  bool parse_line(std::string_view line, Request& out) override;

 private:
  void consume_header();
};

/// Streaming reader for the JSONL ingestion schema documented above.
class JsonlStreamSource final : public LineStreamSource {
 public:
  JsonlStreamSource(std::istream& in, std::string source,
                    StreamReaderOptions options = {});
  explicit JsonlStreamSource(const std::string& path,
                             StreamReaderOptions options = {});

 protected:
  bool parse_line(std::string_view line, Request& out) override;
};

/// Rows left in `in` that the matching reader would deliver: the lines
/// that are not blank once one trailing CR is stripped, where blank means
/// empty for CSV and only spaces and tabs for JSONL. A CSV header must
/// already be consumed. Used to size a materialized trace before filling
/// it, so the vector ends with capacity() == size() and the load never
/// holds a grown copy beside its predecessor. Only a seekable stream is
/// counted, and it is rewound to where it started; a pipe or terminal
/// returns nullopt, because it cannot be counted without buffering it.
/// Throws std::runtime_error when the stream fails to read or rewind.
[[nodiscard]] std::optional<std::size_t> count_csv_rows(std::istream& in);
[[nodiscard]] std::optional<std::size_t> count_jsonl_rows(std::istream& in);

/// Write `trace` in the JSONL ingestion schema, arrivals at full precision
/// (17 significant digits round-trip every finite double, so reading the
/// output back reproduces the trace bit-exactly).
void write_jsonl_trace(const Trace& trace, std::ostream& out);
void write_jsonl_trace_file(const Trace& trace, const std::string& path);

}  // namespace pr
