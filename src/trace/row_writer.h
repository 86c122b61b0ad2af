// row_writer.h — the trace exporters' shared row builder. write_csv_trace
// (both overloads, csv_trace.h) and write_jsonl_trace (stream_reader.h)
// build their rows in place in one fixed block, through write_double
// (util/fmt.h), std::to_chars integers and fixed-size literal copies, and
// hand the block to the stream in block-sized write()s. No row passes
// through an ostream `<<`, so the caller's stream locale is neither
// consulted nor changed.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string_view>

#include "trace/request_source.h"

namespace pr::detail {

enum class TraceRowFormat : std::uint8_t {
  kCsv,    // `<seconds>,<file>,<bytes>,<R|W>`, arrival at %.9g
  kJsonl,  // `{"t":<seconds>,"file":..,"bytes":..,"op":"R"}`, arrival at %.17g
};

/// Writes `header`, then one `format` row per request `source` yields, to
/// `out`. When the source throws, the rows it produced before the throw are
/// written first and its exception propagates; if that write throws (a
/// failing stream with exceptions() set), the stream's exception does. No
/// destructor writes to the stream.
void write_trace_rows(RequestSource& source, std::ostream& out,
                      TraceRowFormat format, std::string_view header = {});

}  // namespace pr::detail
