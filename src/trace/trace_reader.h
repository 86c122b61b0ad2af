// trace_reader.h — one front door for every trace format the repo can
// ingest. Callers say *what* they have ("csv:traces/day1.csv", "-",
// "access.log") and get back a RequestSource; the per-format readers
// (csv_trace.h, stream_reader.h, clf.h, wc98.h) become implementation
// details behind this registry instead of per-call-site dispatch in
// run_experiment and the benches.
//
// Spec grammar: `[format:]path` with format in {csv, jsonl, clf, wc98}.
// Without a prefix the format is inferred from the extension (.csv, .jsonl/
// .ndjson, .log → clf, .wc98). `-` is stdin (csv unless prefixed). A
// prefix is only treated as a format when it names a registered one, so
// bare paths containing ':' keep working.
//
// Line formats (csv, jsonl) open as bounded-memory streaming readers; the
// whole-file binary/log formats (wc98, clf) are inherently two-pass
// (densified file ids, in-second spreading) and open as TraceSource
// adapters over the byte-identical legacy loaders.
#pragma once

#include <memory>
#include <string>

#include "trace/request_source.h"
#include "trace/stream_reader.h"

namespace pr::trace {

/// A spec split into its resolved format name and path ("-" for stdin).
struct ResolvedSpec {
  std::string format;
  std::string path;
};

/// Resolve `[format:]path` against the registry. Throws
/// std::invalid_argument for unknown formats or uninferrable extensions.
[[nodiscard]] ResolvedSpec resolve_spec(const std::string& spec);

/// Open `spec` as a RequestSource. Streaming formats honour `options`;
/// whole-file formats load eagerly and adapt. Throws std::runtime_error
/// when the path cannot be opened, std::invalid_argument for bad specs.
[[nodiscard]] std::unique_ptr<RequestSource> open(
    const std::string& spec, StreamReaderOptions options = {});

/// Open and fully materialize `spec` (legacy call sites and the stats
/// pass). Byte-identical to the per-format readers this replaces. The
/// trace is allocated once, at its final size (capacity() == size()):
/// CSV and JSONL files are counted before they are parsed, and wc98/clf
/// convert into a vector reserved to their record count. Only input that
/// cannot be counted without buffering it (stdin, a pipe) grows as read.
[[nodiscard]] Trace open_trace(const std::string& spec,
                               StreamReaderOptions options = {});

/// Comma-separated registered format names, for help text and errors.
[[nodiscard]] const std::string& format_names();

}  // namespace pr::trace
