#include "trace/csv_trace.h"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "trace/row_writer.h"
#include "trace/stream_reader.h"

namespace pr {

namespace {
constexpr const char* kHeader = "time_s,file_id,bytes,op";
constexpr std::string_view kHeaderLine = "time_s,file_id,bytes,op\n";
}

void write_csv_trace(const Trace& trace, std::ostream& out) {
  TraceSource source(trace);
  write_csv_trace(source, out);
}

void write_csv_trace(RequestSource& source, std::ostream& out) {
  detail::write_trace_rows(source, out, detail::TraceRowFormat::kCsv,
                           kHeaderLine);
}

void write_csv_trace_file(const Trace& trace, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("write_csv_trace_file: cannot open " + path);
  write_csv_trace(trace, out);
  if (!out) throw std::runtime_error("write_csv_trace_file: write failed " + path);
}

Trace read_csv_trace(std::istream& in) {
  std::string line;
  if (!std::getline(in, line)) {
    throw std::runtime_error("read_csv_trace: empty input");
  }
  if (!line.empty() && line.back() == '\r') line.pop_back();
  if (line != kHeader) {
    throw std::runtime_error("read_csv_trace: bad header '" + line +
                             "', expected '" + kHeader + "'");
  }
  Trace trace;
  // A file is counted first, so the vector is allocated once at its final
  // size; a pipe cannot be counted and grows as it is read.
  if (const auto rows = count_csv_rows(in)) trace.requests.reserve(*rows);
  std::size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    // The same framing as CsvStreamSource: one trailing CR is part of the
    // line terminator, and blank lines are separators.
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    Request r;
    try {
      r = parse_csv_row(line);
    } catch (const std::invalid_argument& e) {
      throw std::runtime_error("read_csv_trace: line " +
                               std::to_string(line_no) + ": " + e.what());
    }
    if (!trace.requests.empty() && r.arrival < trace.requests.back().arrival) {
      throw std::runtime_error("read_csv_trace: line " +
                               std::to_string(line_no) +
                               ": arrivals not sorted");
    }
    trace.requests.push_back(r);
  }
  return trace;
}

Trace read_csv_trace_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("read_csv_trace_file: cannot open " + path);
  return read_csv_trace(in);
}

}  // namespace pr
