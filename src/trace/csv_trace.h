// csv_trace.h — portable text trace format: one request per line,
// `time_s,file_id,bytes,op` with op in {R, W}. This is the interchange
// format for the examples and for importing externally prepared traces.
#pragma once

#include <iosfwd>
#include <string>

#include "trace/request.h"
#include "trace/request_source.h"

namespace pr {

/// Write `trace` as CSV (with header) to `out`.
void write_csv_trace(const Trace& trace, std::ostream& out);
/// Drain `source` to CSV without materializing a Trace — the streaming
/// sibling (same header/row bytes as the Trace overload).
void write_csv_trace(RequestSource& source, std::ostream& out);
/// Write to a file; throws std::runtime_error on I/O failure.
void write_csv_trace_file(const Trace& trace, const std::string& path);

/// Parse a CSV trace. Requires the canonical header; rows must be sorted by
/// time (throws std::runtime_error otherwise, since the simulator assumes
/// ordered arrivals). Rows go through parse_csv_row (stream_reader.h), the
/// parser CsvStreamSource uses, so both readers accept the same rows; only
/// this reader also accepts a final row without a trailing newline. A
/// seekable stream (any file) is counted before it is parsed, so the trace
/// ends with capacity() == size(); a pipe grows as it is read.
[[nodiscard]] Trace read_csv_trace(std::istream& in);
[[nodiscard]] Trace read_csv_trace_file(const std::string& path);

}  // namespace pr
