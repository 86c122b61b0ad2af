#include "trace/trace_reader.h"

#include <algorithm>
#include <array>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>

#include "trace/clf.h"
#include "trace/csv_trace.h"
#include "trace/wc98.h"

namespace pr::trace {

namespace {

constexpr std::array<const char*, 4> kFormats = {"clf", "csv", "jsonl",
                                                 "wc98"};

bool known_format(std::string_view name) {
  return std::find(kFormats.begin(), kFormats.end(), name) != kFormats.end();
}

std::string infer_format(const std::string& path) {
  const std::size_t dot = path.rfind('.');
  const std::size_t slash = path.find_last_of('/');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash)) {
    throw std::invalid_argument(
        "trace::open: cannot infer format of '" + path +
        "' (no extension); use an explicit '<format>:' prefix, formats: " +
        format_names());
  }
  const std::string ext = path.substr(dot + 1);
  if (ext == "csv") return "csv";
  if (ext == "jsonl" || ext == "ndjson") return "jsonl";
  if (ext == "log") return "clf";
  if (ext == "wc98") return "wc98";
  throw std::invalid_argument(
      "trace::open: unknown extension '." + ext + "' in '" + path +
      "'; use an explicit '<format>:' prefix, formats: " + format_names());
}

/// Drain `source`, reserving `rows` up front (0 when they are unknown).
Trace drain(RequestSource& source, std::size_t rows) {
  Trace trace;
  trace.requests.reserve(rows);
  Request r;
  while (source.next(r)) trace.requests.push_back(r);
  return trace;
}

}  // namespace

const std::string& format_names() {
  static const std::string names = [] {
    std::string joined;
    for (const char* f : kFormats) {
      if (!joined.empty()) joined += ", ";
      joined += f;
    }
    return joined;
  }();
  return names;
}

ResolvedSpec resolve_spec(const std::string& spec) {
  if (spec.empty()) {
    throw std::invalid_argument("trace::open: empty spec");
  }
  const std::size_t colon = spec.find(':');
  if (colon != std::string::npos && known_format(spec.substr(0, colon))) {
    const std::string path = spec.substr(colon + 1);
    if (path.empty()) {
      throw std::invalid_argument("trace::open: empty path in '" + spec +
                                  "'");
    }
    return {spec.substr(0, colon), path};
  }
  if (spec == "-") return {"csv", "-"};
  return {infer_format(spec), spec};
}

std::unique_ptr<RequestSource> open(const std::string& spec,
                                    StreamReaderOptions options) {
  const ResolvedSpec resolved = resolve_spec(spec);
  const bool from_stdin = resolved.path == "-";
  if (resolved.format == "csv") {
    if (from_stdin) {
      return std::make_unique<CsvStreamSource>(std::cin, "<stdin>", options);
    }
    return std::make_unique<CsvStreamSource>(resolved.path, options);
  }
  if (resolved.format == "jsonl") {
    if (from_stdin) {
      return std::make_unique<JsonlStreamSource>(std::cin, "<stdin>",
                                                 options);
    }
    return std::make_unique<JsonlStreamSource>(resolved.path, options);
  }
  if (resolved.format == "clf") {
    auto records = from_stdin ? read_clf_records(std::cin)
                              : read_clf_records_file(resolved.path);
    return std::make_unique<TraceSource>(clf_to_trace(records));
  }
  auto records = from_stdin ? read_wc98_records(std::cin)
                            : read_wc98_records_file(resolved.path);
  return std::make_unique<TraceSource>(wc98_to_trace(records));
}

Trace open_trace(const std::string& spec, StreamReaderOptions options) {
  // Every branch allocates the trace once at its final size, except input
  // that cannot be counted without buffering it (stdin, pipes).
  const ResolvedSpec resolved = resolve_spec(spec);
  const bool from_stdin = resolved.path == "-";
  if (resolved.format == "csv") {
    // The whole-file reader keeps the error text and behaviour legacy
    // call sites shipped with.
    return from_stdin ? read_csv_trace(std::cin)
                      : read_csv_trace_file(resolved.path);
  }
  if (resolved.format == "jsonl") {
    if (from_stdin) {
      JsonlStreamSource source(std::cin, "<stdin>", options);
      return drain(source, 0);
    }
    std::ifstream in(resolved.path, std::ios::binary);
    if (!in) {
      throw std::runtime_error("stream_reader: cannot open " + resolved.path);
    }
    const std::optional<std::size_t> rows = count_jsonl_rows(in);
    JsonlStreamSource source(in, resolved.path, options);
    return drain(source, rows.value_or(0));
  }
  // The whole-file formats convert into a vector reserved to their record
  // count; it is returned as is rather than copied through a TraceSource.
  if (resolved.format == "clf") {
    return clf_to_trace(from_stdin ? read_clf_records(std::cin)
                                   : read_clf_records_file(resolved.path));
  }
  return wc98_to_trace(from_stdin ? read_wc98_records(std::cin)
                                  : read_wc98_records_file(resolved.path));
}

}  // namespace pr::trace
