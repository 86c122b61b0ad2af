// Streaming-ingestion tests: RequestSource semantics, the bounded-memory
// line readers (CSV/JSONL), the trace::open registry, and — the load-bearing
// part — byte-identity between the materialized-vector simulation path and
// the streaming path for READ/MAID/PDC.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <locale>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <vector>

#include "core/registry.h"
#include "core/report_io.h"
#include "core/session.h"
#include "exp/scenario.h"
#include "exp/scenario_engine.h"
#include "exp/scenario_report.h"
#include "golden_dump.h"
#include "obs/jsonl_writer.h"
#include "obs/time_series.h"
#include "sim/fleet_sim.h"
#include "trace/csv_trace.h"
#include "trace/stream_reader.h"
#include "trace/trace_reader.h"
#include "trace/trace_stats.h"
#include "trace/wc98.h"
#include "util/fmt.h"
#include "workload/synthetic.h"

namespace pr {
namespace {

// ------------------------------------------------------------ fixtures

/// A compressed skewed day, small enough for exhaustive cross-path runs.
SyntheticWorkloadConfig golden_workload_config() {
  SyntheticWorkloadConfig c;
  c.file_count = 400;
  c.request_count = 8'000;
  c.mean_interarrival = Seconds{0.35};
  c.zipf_alpha = 0.9;
  c.diurnal_depth = 0.5;
  c.seed = 20260805;
  return c;
}

Trace tiny_trace() {
  Trace t;
  for (int i = 0; i < 3; ++i) {
    Request r;
    r.arrival = Seconds{0.5 * i};
    r.file = static_cast<FileId>(i);
    r.size = 1024;
    r.kind = RequestKind::kRead;
    t.requests.push_back(r);
  }
  return t;
}

std::vector<Request> drain(RequestSource& source) {
  std::vector<Request> out;
  Request r;
  while (source.next(r)) out.push_back(r);
  return out;
}

void expect_same_requests(const std::vector<Request>& a,
                          const std::vector<Request>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Bitwise arrival equality: the streaming readers must take the exact
    // parse path the materialized readers take.
    EXPECT_EQ(a[i].arrival.value(), b[i].arrival.value()) << "request " << i;
    EXPECT_EQ(a[i].file, b[i].file) << "request " << i;
    EXPECT_EQ(a[i].size, b[i].size) << "request " << i;
    EXPECT_EQ(a[i].kind, b[i].kind) << "request " << i;
  }
}

// -------------------------------------------------- RequestSource basics

TEST(TraceSourceTest, DrainsBorrowedTraceAndSticksAtEnd) {
  const Trace t = tiny_trace();
  TraceSource source(t);
  EXPECT_FALSE(source.streaming());
  EXPECT_EQ(source.describe(), "trace[3]");
  EXPECT_EQ(source.produced(), 0u);

  const auto out = drain(source);
  expect_same_requests(out, t.requests);
  EXPECT_EQ(source.produced(), 3u);

  // End of stream is sticky and leaves `out` untouched.
  Request sentinel;
  sentinel.file = 777;
  EXPECT_FALSE(source.next(sentinel));
  EXPECT_FALSE(source.next(sentinel));
  EXPECT_EQ(sentinel.file, 777u);
  EXPECT_EQ(source.produced(), 3u);
}

TEST(TraceSourceTest, OwningOverloadKeepsTheTraceAlive) {
  auto source = std::make_unique<TraceSource>(tiny_trace());
  EXPECT_EQ(source->trace().size(), 3u);
  EXPECT_EQ(drain(*source).size(), 3u);
}

// ------------------------------------------------- streaming CSV reader

TEST(CsvStreamTest, MatchesTheMaterializedCsvReader) {
  const auto workload = generate_workload(golden_workload_config());
  std::ostringstream text;
  write_csv_trace(workload.trace, text);

  std::istringstream for_batch(text.str());
  const Trace batch = read_csv_trace(for_batch);

  std::istringstream for_stream(text.str());
  CsvStreamSource source(for_stream, "golden.csv");
  EXPECT_TRUE(source.streaming());
  EXPECT_EQ(source.describe(), "golden.csv");
  expect_same_requests(drain(source), batch.requests);
}

TEST(CsvStreamTest, SkipsBlankSeparatorLines) {
  std::istringstream in(
      "time_s,file_id,bytes,op\n"
      "0.5,1,100,R\n"
      "\n"
      "1.5,2,200,W\n");
  CsvStreamSource source(in, "blanks.csv");
  const auto out = drain(source);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[1].kind, RequestKind::kWrite);
}

// ------------------------------------------- CSV row parser exactness

/// What std::from_chars makes of a whole arrival token, when it accepts it
/// as a finite double — the reference parse_csv_row must match bit for bit.
std::optional<double> from_chars_arrival(std::string_view token) {
  double value = 0.0;
  const char* last = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), last, value);
  if (ec != std::errc{} || ptr != last || token.empty() ||
      !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

/// Read a one-row CSV through both readers. Returns the row's request, or
/// nullopt when both reject it (a reader that disagrees fails the test).
std::optional<Request> read_one_row(const std::string& row) {
  const std::string text = "time_s,file_id,bytes,op\n" + row + "\n";
  std::optional<Request> streamed;
  try {
    std::istringstream in(text);
    CsvStreamSource source(in, "edge.csv");
    Request r;
    if (source.next(r)) streamed = r;
  } catch (const std::invalid_argument&) {
  }
  std::optional<Request> batch;
  try {
    std::istringstream in(text);
    const Trace trace = read_csv_trace(in);
    if (!trace.requests.empty()) batch = trace.requests.front();
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(streamed.has_value(), batch.has_value()) << row;
  if (streamed && batch) expect_same_requests({*streamed}, {*batch});
  return streamed;
}

TEST(CsvRowExactnessTest, EveryArrivalOfAWc98HeavyDayMatchesFromChars) {
  SyntheticSource day(worldcup98_heavy_config(42));
  std::ostringstream rendered;
  write_csv_trace(day, rendered);
  const std::string text = std::move(rendered).str();

  std::istringstream in(text);
  CsvStreamSource source(in, "wc98-heavy.csv");
  std::size_t line_start = text.find('\n') + 1;  // past the header
  std::size_t rows = 0;
  std::size_t mismatches = 0;
  Request r;
  while (source.next(r)) {
    const std::size_t comma = text.find(',', line_start);
    const auto expected = from_chars_arrival(
        std::string_view(text).substr(line_start, comma - line_start));
    ASSERT_TRUE(expected.has_value()) << "row " << rows;
    if (std::bit_cast<std::uint64_t>(r.arrival.value()) !=
        std::bit_cast<std::uint64_t>(*expected)) {
      ++mismatches;
    }
    line_start = text.find('\n', line_start) + 1;
    ++rows;
  }
  EXPECT_EQ(line_start, text.size());
  EXPECT_GT(rows, 1'000'000u);
  EXPECT_EQ(mismatches, 0u);
}

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// A finite double from one of four families: raw bit patterns (signs,
/// exponents, subnormals: almost all take the slow path), day-scale
/// arrivals, log-uniform magnitudes across the fixed-notation band, and
/// short decimals m / 10^k right at the fast path's limits.
double random_finite(std::uint64_t& state) {
  const std::uint64_t bits = splitmix64(state);
  const double unit = static_cast<double>(bits >> 11) * 0x1p-53;
  switch (bits & 3U) {
    case 0: {
      double v = std::bit_cast<double>(splitmix64(state));
      while (!std::isfinite(v)) v = std::bit_cast<double>(splitmix64(state));
      return v;
    }
    case 1:
      return unit * 86'400.0;
    case 2:
      return std::pow(10.0, -4.0 + 13.0 * unit);
    default: {
      const std::uint64_t m = splitmix64(state) >> (11 + (bits >> 60));
      return static_cast<double>(m) / std::pow(10.0, (bits >> 2) % 23);
    }
  }
}

TEST(CsvRowExactnessTest, TenMillionRandomDoublesAtNineAndSeventeenDigits) {
  constexpr std::size_t kValues = 10'000'000;
  constexpr std::size_t kChunk = 500'000;  // rows must be sorted per file
  std::uint64_t state = 0x5eedc5f0ULL;
  std::vector<double> values;
  std::vector<double> expected;
  std::size_t mismatches = 0;
  std::string first_mismatch;
  for (std::size_t done = 0; done < kValues; done += kChunk) {
    values.clear();
    while (values.size() < kChunk) values.push_back(random_finite(state));
    // Rounding to fewer digits is monotone, so sorted values render as
    // sorted rows at either precision.
    std::sort(values.begin(), values.end());
    for (const int precision : {9, 17}) {
      std::string text = "time_s,file_id,bytes,op\n";
      expected.clear();
      for (const double v : values) {
        char token[64];
        const std::string_view rendered(
            token, std::to_chars(token, token + sizeof token, v,
                                 std::chars_format::general, precision)
                       .ptr);
        const auto value = from_chars_arrival(rendered);
        ASSERT_TRUE(value.has_value()) << rendered;
        expected.push_back(*value);
        text += rendered;
        text += ",1,1,R\n";
      }
      std::istringstream in(text);
      CsvStreamSource source(in, "random.csv");
      std::size_t i = 0;
      Request r;
      while (source.next(r)) {
        ASSERT_LT(i, expected.size());
        if (std::bit_cast<std::uint64_t>(r.arrival.value()) !=
                std::bit_cast<std::uint64_t>(expected[i]) &&
            mismatches++ == 0) {
          first_mismatch = format_double(expected[i], precision);
        }
        ++i;
      }
      ASSERT_EQ(i, expected.size());
    }
  }
  EXPECT_EQ(mismatches, 0u) << "first: " << first_mismatch;
}

TEST(CsvRowExactnessTest, EdgeArrivalsMatchFromChars) {
  const std::vector<std::string> tokens = {
      // Mantissas 2^53 (exact) and 2^53 + 1 (double rounding if converted
      // first: 90071992547409.93 is the first such decimal above 2^53).
      "9007199254740992", "9007199254740993", "90071992547409.92",
      "90071992547409.93", "0.9007199254740992", "0.9007199254740993",
      // 22 fraction digits (10^22 exact) and 23 (it is not).
      "0.0000000000000000000001", "0.0000000000000000000007",
      "0.00000000000000000000001", "0.00000000000000000000007",
      "0.1234567890123456789012", "1.0000000000000000000001",
      // 19- and 20-digit integers.
      "1234567890123456789", "9999999999999999999", "12345678901234567890",
      "1234567890.123456789", "123456789.0123456789",
      // Leading zeros.
      "000123.4500", "0000", "0.000", "007", "00000000000000000000001.5",
      "0.00000000000000000000000000001",
      // Shapes only the slow path takes.
      "1.", ".5", "-0", "-1.5", "+1", "1e3", "1E-3", "0x10", "inf", "nan",
      "1e400", " 1", "1 ", "", "1..5", "1.5.", "--1"};
  for (const std::string& token : tokens) {
    const auto expected = from_chars_arrival(token);
    const auto got = read_one_row(token + ",7,100,R");
    ASSERT_EQ(got.has_value(), expected.has_value()) << "'" << token << "'";
    if (got) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got->arrival.value()),
                std::bit_cast<std::uint64_t>(*expected))
          << "'" << token << "'";
    }
  }
}

TEST(CsvRowExactnessTest, EdgeFileIdsAndSizes) {
  const auto largest = read_one_row("0.5,4294967294,1,R");
  ASSERT_TRUE(largest.has_value());
  EXPECT_EQ(largest->file, 4294967294U);
  EXPECT_FALSE(read_one_row("0.5,4294967295,1,R").has_value());  // kInvalidFile
  EXPECT_FALSE(read_one_row("0.5,99999999999999999999,1,R").has_value());

  for (const std::uint64_t bytes :
       {std::uint64_t{0}, std::uint64_t{9'999'999'999'999'999'999U},
        std::uint64_t{10'000'000'000'000'000'000U},
        std::numeric_limits<std::uint64_t>::max()}) {
    const auto row = read_one_row("0.5,3," + std::to_string(bytes) + ",W");
    ASSERT_TRUE(row.has_value()) << bytes;
    EXPECT_EQ(row->size, bytes);
    EXPECT_EQ(row->kind, RequestKind::kWrite);
  }
  EXPECT_FALSE(read_one_row("0.5,3,18446744073709551616,R").has_value());
  const auto padded =
      read_one_row("0.5,0000000000000000000042,0000000000000000000001,R");
  ASSERT_TRUE(padded.has_value());
  EXPECT_EQ(padded->file, 42U);
  EXPECT_EQ(padded->size, 1U);
}

// ------------------------------------------------------- JSONL round trip

TEST(JsonlStreamTest, RoundTripIsBitExact) {
  const auto workload = generate_workload(golden_workload_config());
  std::ostringstream text;
  write_jsonl_trace(workload.trace, text);

  std::istringstream in(text.str());
  JsonlStreamSource source(in, "golden.jsonl");
  const auto out = drain(source);
  expect_same_requests(out, workload.trace.requests);

  // Writing the re-read requests again reproduces the original bytes.
  Trace again;
  again.requests = out;
  std::ostringstream text2;
  write_jsonl_trace(again, text2);
  EXPECT_EQ(text.str(), text2.str());
}

TEST(JsonlStreamTest, AcceptsReorderedKeysAndDefaultsOp) {
  std::istringstream in(
      "{\"file\":7,\"t\":1.25,\"bytes\":4096}\n"
      "{\"op\":\"W\",\"bytes\":8,\"t\":2.5,\"file\":9}\n");
  JsonlStreamSource source(in, "keys.jsonl");
  const auto out = drain(source);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].file, 7u);
  EXPECT_EQ(out[0].kind, RequestKind::kRead);
  EXPECT_EQ(out[1].kind, RequestKind::kWrite);
  EXPECT_EQ(out[1].arrival.value(), 2.5);
}

// ------------------------------------------------------- export bytes

/// A seeded 200k-request wc98-light day, the exporters' golden input.
Trace export_golden_day() {
  SyntheticWorkloadConfig config = worldcup98_light_config(42);
  config.request_count = 200'000;
  return generate_workload(config).trace;
}

std::string csv_text(const Trace& trace) {
  std::ostringstream out;
  write_csv_trace(trace, out);
  return std::move(out).str();
}

#if defined(__x86_64__) || defined(_M_X64)

// FNV-1a-64 of the CSV and JSONL renders of export_golden_day(), captured
// from the ostream-based exporters before rows were built in a block
// buffer. Like the generator golden, the arrivals are x86-64 libm
// artifacts, so the comparison is gated on the platform.
TEST(TraceExportGolden, CsvAndJsonlBytesOfALightDay) {
  const Trace day = export_golden_day();
  std::ostringstream jsonl;
  write_jsonl_trace(day, jsonl);
  EXPECT_EQ(golden::fnv1a(csv_text(day)), 182396913419656208ULL);
  EXPECT_EQ(golden::fnv1a(jsonl.str()), 11000944632890649871ULL);
}

#endif

TEST(TraceExportTest, SourceOverloadWritesTheTraceOverloadsBytes) {
  const Trace day = export_golden_day();
  TraceSource source(day);
  std::ostringstream streamed;
  write_csv_trace(source, streamed);
  EXPECT_EQ(streamed.str(), csv_text(day));
}

/// Yields the first `limit` requests of a trace, then throws.
class ThrowingSource final : public RequestSource {
 public:
  ThrowingSource(const Trace& trace, std::size_t limit)
      : trace_(trace), limit_(limit) {}
  [[nodiscard]] std::string describe() const override { return "throwing"; }
  [[nodiscard]] bool streaming() const override { return true; }

 protected:
  bool poll(Request& out) override {
    if (cursor_ == limit_) throw std::runtime_error("source failed");
    out = trace_.requests.at(cursor_++);
    return true;
  }

 private:
  const Trace& trace_;
  std::size_t limit_;
  std::size_t cursor_ = 0;
};

TEST(TraceExportTest, RowsBeforeASourceThrowsReachTheStream) {
  const Trace day = export_golden_day();
  // 0 rows, one row, and enough rows to fill several output blocks.
  for (const std::size_t rows : {std::size_t{0}, std::size_t{1},
                                 std::size_t{20'000}}) {
    Trace head;
    head.requests.assign(day.requests.begin(),
                         day.requests.begin() +
                             static_cast<std::ptrdiff_t>(rows));
    ThrowingSource source(day, rows);
    std::ostringstream out;
    EXPECT_THROW(write_csv_trace(source, out), std::runtime_error);
    EXPECT_EQ(out.str(), csv_text(head)) << rows << " rows";
  }
}

/// Accepts no bytes, so every write to a stream over it fails.
class RefusingBuffer final : public std::streambuf {
 protected:
  std::streamsize xsputn(const char*, std::streamsize) override { return 0; }
  int overflow(int) override { return traits_type::eof(); }
};

TEST(TraceExportTest, FailingStreamWithExceptionsSetThrowsInsteadOfTerminating) {
  const Trace trace = tiny_trace();
  RefusingBuffer refusing;
  std::ostream out(&refusing);
  out.exceptions(std::ios::badbit);
  EXPECT_THROW(write_csv_trace(trace, out), std::ios_base::failure);
  out.clear();
  EXPECT_THROW(write_jsonl_trace(trace, out), std::ios_base::failure);
  // The source's rows are written first; that write's failure is what
  // propagates.
  out.clear();
  ThrowingSource source(trace, 2);
  EXPECT_THROW(write_csv_trace(source, out), std::ios_base::failure);
}

/// Groups thousands with '.' and uses ',' as the decimal point, so any
/// number formatted through the stream's locale would show it.
class GroupingPunct final : public std::numpunct<char> {
 protected:
  char do_decimal_point() const override { return ','; }
  char do_thousands_sep() const override { return '.'; }
  std::string do_grouping() const override { return "\3"; }
};

TEST(TraceExportTest, ExportersLeaveTheCallersLocaleAlone) {
  Trace trace;
  trace.requests = {
      {.arrival = Seconds{1234.5678}, .file = 1'234'567, .size = 9'876'543},
      {.arrival = Seconds{86399.125},
       .file = 42,
       .kind = RequestKind::kWrite,
       .size = 1'000'000'000'000}};
  const std::locale custom(std::locale::classic(), new GroupingPunct);
  std::ostringstream classic_jsonl;
  write_jsonl_trace(trace, classic_jsonl);

  std::ostringstream csv;
  csv.imbue(custom);
  write_csv_trace(trace, csv);
  EXPECT_EQ(csv.str(), csv_text(trace));
  EXPECT_TRUE(csv.getloc() == custom);

  TraceSource source(trace);
  std::ostringstream streamed;
  streamed.imbue(custom);
  write_csv_trace(source, streamed);
  EXPECT_EQ(streamed.str(), csv_text(trace));
  EXPECT_TRUE(streamed.getloc() == custom);

  std::ostringstream jsonl;
  jsonl.imbue(custom);
  write_jsonl_trace(trace, jsonl);
  EXPECT_EQ(jsonl.str(), classic_jsonl.str());
  EXPECT_TRUE(jsonl.getloc() == custom);
  // The caller's own numbers still go through its locale.
  jsonl << 1234567;
  EXPECT_EQ(jsonl.str(), classic_jsonl.str() + "1.234.567");
}

TEST(ReportExportTest, EmittersLeaveTheCallersLocaleAlone) {
  auto wc = worldcup98_light_config(7);
  wc.file_count = 200;
  wc.request_count = 5'000;
  const auto workload = generate_workload(wc);
  SystemConfig config;
  config.sim.disk_count = 4;
  config.sim.epoch = Seconds{600.0};
  TimeSeriesRecorder recorder{Seconds{600.0}};
  const SystemReport report = SimulationSession(config)
                                  .with_workload(workload)
                                  .with_policy("read")
                                  .with_observer(recorder)
                                  .run();
  const FleetTimeSeries fleet = merge_time_series({&recorder}, 4);

  ScenarioSpec spec;
  spec.seeds = {7};
  spec.disks = {4};
  spec.epochs = {600.0};
  ScenarioWorkload small;
  small.files = 200;
  small.requests = 5'000;
  spec.workloads = {small};
  spec.policies = {{"read", "READ", {}}};
  const ScenarioResult scenario = run_scenario(spec);

  // Every emitter's integers reach the thousands (5,000 requests, joules),
  // so a grouping locale left in force would show in the bytes.
  const std::locale custom(std::locale::classic(), new GroupingPunct);
  const auto check = [&custom](const char* what, const auto& emit) {
    SCOPED_TRACE(what);
    std::ostringstream classic;
    emit(classic);
    std::ostringstream out;
    out.imbue(custom);
    emit(out);
    EXPECT_EQ(out.str(), classic.str());
    EXPECT_TRUE(out.getloc() == custom);
    out << 1234567;
    EXPECT_EQ(out.str(), classic.str() + "1.234.567");
  };
  check("TimeSeriesRecorder::write_csv",
        [&](std::ostream& o) { recorder.write_csv(o); });
  check("FleetTimeSeries::write_csv",
        [&](std::ostream& o) { fleet.write_csv(o); });
  check("write_json", [&](std::ostream& o) { write_json(report, o); });
  check("write_scenario_json", [&](std::ostream& o) {
    write_scenario_json(scenario, o, /*include_reports=*/true);
  });
}

// ----------------------------------------------------- error diagnostics

/// Expect an invalid_argument whose message starts with "<source>:<line>:"
/// and mentions `detail`.
template <typename Fn>
void expect_stream_error(Fn&& fn, const std::string& prefix,
                         const std::string& detail) {
  try {
    fn();
    FAIL() << "expected std::invalid_argument (" << prefix << " " << detail
           << ")";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind(prefix, 0), 0u) << what;
    EXPECT_NE(what.find(detail), std::string::npos) << what;
  }
}

TEST(StreamErrorTest, TruncatedTrailingLineIsRejected) {
  expect_stream_error(
      [] {
        std::istringstream in("time_s,file_id,bytes,op\n0.5,1,100,R");
        CsvStreamSource source(in, "trunc.csv");
        Request r;
        while (source.next(r)) {
        }
      },
      "trunc.csv:2:", "truncated");
}

TEST(StreamErrorTest, BadCsvHeader) {
  expect_stream_error(
      [] {
        std::istringstream in("when,who,what,why\n");
        CsvStreamSource source(in, "h.csv");
      },
      "h.csv:1:", "bad header");
}

TEST(StreamErrorTest, EmptyCsvInput) {
  expect_stream_error(
      [] {
        std::istringstream in("");
        CsvStreamSource source(in, "empty.csv");
      },
      "empty.csv:1:", "empty input");
}

TEST(StreamErrorTest, BadOpAndGarbledFields) {
  expect_stream_error(
      [] {
        std::istringstream in("time_s,file_id,bytes,op\n0.5,1,100,X\n");
        CsvStreamSource source(in, "op.csv");
        Request r;
        source.next(r);
      },
      "op.csv:2:", "bad op");
  expect_stream_error(
      [] {
        std::istringstream in("time_s,file_id,bytes,op\n0.5,one,100,R\n");
        CsvStreamSource source(in, "num.csv");
        Request r;
        source.next(r);
      },
      "num.csv:2:", "file_id");
}

TEST(StreamErrorTest, UnsortedArrivals) {
  expect_stream_error(
      [] {
        std::istringstream in(
            "time_s,file_id,bytes,op\n2,1,100,R\n1,1,100,R\n");
        CsvStreamSource source(in, "sort.csv");
        Request r;
        while (source.next(r)) {
        }
      },
      "sort.csv:3:", "not sorted");
}

TEST(StreamErrorTest, UnknownJsonlKey) {
  expect_stream_error(
      [] {
        std::istringstream in("{\"t\":1,\"file\":1,\"bytes\":1,\"nope\":2}\n");
        JsonlStreamSource source(in, "k.jsonl");
        Request r;
        source.next(r);
      },
      "k.jsonl:1:", "unknown key");
}

TEST(StreamErrorTest, LineLongerThanTheBufferBound) {
  StreamReaderOptions options;
  options.buffer_bytes = 64;
  std::string text = "time_s,file_id,bytes,op\n0.5,1,";
  text.append(200, '9');  // one absurd row, longer than the whole bound
  text += ",R\n";
  expect_stream_error(
      [&] {
        std::istringstream in(text);
        CsvStreamSource source(in, "long.csv", options);
        Request r;
        while (source.next(r)) {
        }
      },
      "long.csv:2:", "buffer bound");
}

// -------------------------------------------------- bounded buffering

/// A streambuf that *generates* CSV rows on demand — the trace exists only
/// as the few bytes currently buffered, so draining it proves the reader
/// never needs the whole input resident.
class GeneratedCsvBuf : public std::streambuf {
 public:
  explicit GeneratedCsvBuf(std::size_t rows) : rows_(rows) {
    pending_ = "time_s,file_id,bytes,op\n";
    setg(pending_.data(), pending_.data(), pending_.data() + pending_.size());
  }

 protected:
  int_type underflow() override {
    if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
    if (next_row_ >= rows_) return traits_type::eof();
    pending_ = format_double(0.001 * static_cast<double>(next_row_), 9);
    pending_ += ',';
    pending_ += std::to_string(next_row_ % 97);
    pending_ += ",4096,R\n";
    ++next_row_;
    setg(pending_.data(), pending_.data(), pending_.data() + pending_.size());
    return traits_type::to_int_type(*gptr());
  }

 private:
  std::size_t rows_;
  std::size_t next_row_ = 0;
  std::string pending_;
};

TEST(BoundedBufferTest, HighWaterStaysUnderTheConfiguredBound) {
  constexpr std::size_t kRows = 200'000;  // ~5 MB of text, never resident
  GeneratedCsvBuf buf(kRows);
  std::istream in(&buf);
  StreamReaderOptions options;
  options.buffer_bytes = 4096;
  CsvStreamSource source(in, "generated.csv", options);
  Request r;
  std::uint64_t count = 0;
  while (source.next(r)) ++count;
  EXPECT_EQ(count, kRows);
  EXPECT_LE(source.buffer_high_water(), options.buffer_bytes);
  EXPECT_GT(source.buffer_high_water(), 0u);
}

TEST(BoundedBufferTest, ZeroBufferIsRejectedAtConstruction) {
  StreamReaderOptions options;
  options.buffer_bytes = 0;
  std::istringstream in("time_s,file_id,bytes,op\n");
  EXPECT_THROW(CsvStreamSource(in, "z.csv", options), std::invalid_argument);
}

// ----------------------------------------- adversarial refill boundaries

/// Fixed CSV fixture: a 23-byte header plus three 11-byte rows. Small
/// enough that a buffer-size sweep crosses every split alignment — comma
/// at a refill boundary, newline at a refill boundary, record straddling
/// two refills.
constexpr const char* kTinyCsv =
    "time_s,file_id,bytes,op\n"
    "0.5,1,100,R\n"
    "1.5,2,200,W\n"
    "2.5,3,300,R\n";

std::vector<Request> drain_csv(const std::string& text, std::size_t buffer) {
  StreamReaderOptions options;
  options.buffer_bytes = buffer;
  std::istringstream in(text);
  CsvStreamSource source(in, "adversarial.csv", options);
  return drain(source);
}

std::size_t max_line_length(const std::string& text) {
  std::size_t longest = 0;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t nl = text.find('\n', start);
    if (nl == std::string::npos) nl = text.size();
    longest = std::max(longest, nl - start);
    start = nl + 1;
  }
  return longest;
}

/// Every buffer size from the minimum that frames the header (header
/// length + newline) up past several record multiples must parse the
/// same requests the batch reader parses from the same bytes.
TEST(BufferRefillTest, CsvIdentityAcrossEveryTinyBufferSize) {
  std::istringstream for_batch(kTinyCsv);
  const Trace batch = read_csv_trace(for_batch);
  ASSERT_EQ(batch.requests.size(), 3u);
  const std::size_t min_buffer = max_line_length(kTinyCsv) + 1;  // 24
  for (std::size_t buffer = min_buffer; buffer <= 64; ++buffer) {
    expect_same_requests(drain_csv(kTinyCsv, buffer), batch.requests);
  }
}

/// A line of length L needs L+1 buffered bytes (the newline must land in
/// the window to frame it). One byte under the header's need is a
/// deterministic buffer-bound error at line 1, never a hang or a
/// silently split record; the exact minimum succeeds.
TEST(BufferRefillTest, HeaderLengthPlusMinusOneByte) {
  const std::size_t header_len = max_line_length(kTinyCsv);  // 23
  expect_stream_error([&] { (void)drain_csv(kTinyCsv, header_len); },
                      "adversarial.csv:1:", "buffer bound");
  expect_same_requests(drain_csv(kTinyCsv, header_len + 1),
                       drain_csv(kTinyCsv, 4096));
}

/// Tiny pathological buffers (1 and 7 bytes — smaller than any line) fail
/// fast with the bound diagnostic instead of looping on refill.
TEST(BufferRefillTest, TinyBuffersFailFastNotForever) {
  for (const std::size_t buffer : {std::size_t{1}, std::size_t{7}}) {
    expect_stream_error([&] { (void)drain_csv(kTinyCsv, buffer); },
                        "adversarial.csv:1:", "buffer bound");
    expect_stream_error(
        [&] {
          StreamReaderOptions options;
          options.buffer_bytes = buffer;
          std::istringstream in("{\"t\":0.5,\"file\":7,\"bytes\":64}\n");
          JsonlStreamSource source(in, "tiny.jsonl", options);
          Request r;
          (void)source.next(r);
        },
        "tiny.jsonl:1:", "buffer bound");
  }
}

/// Record-length ±1 around a single JSONL record (no header, so the
/// record alone sets the minimum): length+1 parses it, length exactly is
/// the bound error.
TEST(BufferRefillTest, RecordLengthPlusMinusOne) {
  const std::string line = "{\"t\":0.5,\"file\":7,\"bytes\":64}";
  StreamReaderOptions options;
  options.buffer_bytes = line.size() + 1;
  std::istringstream in(line + "\n");
  JsonlStreamSource source(in, "edge.jsonl", options);
  const auto out = drain(source);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].arrival.value(), 0.5);
  EXPECT_EQ(out[0].file, 7u);
  EXPECT_EQ(out[0].size, 64u);

  expect_stream_error(
      [&] {
        StreamReaderOptions tight;
        tight.buffer_bytes = line.size();
        std::istringstream tight_in(line + "\n");
        JsonlStreamSource tight_source(tight_in, "edge.jsonl", tight);
        Request r;
        (void)tight_source.next(r);
      },
      "edge.jsonl:1:", "buffer bound");
}

/// CRLF line endings with the terminator split across refills: the '\r'
/// can land at the end of one refill chunk with the '\n' in the next, at
/// every alignment the sweep produces. Parsed requests must match the
/// batch parse of the LF text (the streaming reader strips '\r' after
/// framing, so the split can never leak into a field).
TEST(BufferRefillTest, CrlfSplitAcrossRefillBoundaries) {
  std::istringstream for_batch(kTinyCsv);
  const Trace batch = read_csv_trace(for_batch);

  std::string crlf;
  for (const char c : std::string(kTinyCsv)) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  // Blank CRLF separator line mid-stream, same skip rule as blank LF.
  const std::size_t second_row = crlf.find("1.5");
  crlf.insert(second_row, "\r\n");

  const std::size_t min_buffer = max_line_length(crlf) + 1;  // 25
  for (std::size_t buffer = min_buffer; buffer <= 64; ++buffer) {
    expect_same_requests(drain_csv(crlf, buffer), batch.requests);
  }
}

/// The final line missing its newline is an error at every buffer size,
/// including ones where the truncated tail arrives split across refills.
TEST(BufferRefillTest, FinalLineWithoutNewlineAtEveryBufferSize) {
  std::string truncated(kTinyCsv);
  truncated.pop_back();
  for (std::size_t buffer = 24; buffer <= 48; ++buffer) {
    expect_stream_error([&] { (void)drain_csv(truncated, buffer); },
                        "adversarial.csv:4:", "truncated");
  }
}

/// The full golden workload (8k machine-written rows) at the tightest
/// legal buffer and at coprime-ish odd sizes: byte-identity with the
/// materialized reader, for both formats.
TEST(BufferRefillTest, GoldenWorkloadIdentityAtAdversarialSizes) {
  const auto workload = generate_workload(golden_workload_config());
  std::ostringstream csv_text;
  write_csv_trace(workload.trace, csv_text);
  std::istringstream for_batch(csv_text.str());
  const Trace batch = read_csv_trace(for_batch);

  const std::size_t longest = max_line_length(csv_text.str());
  for (const std::size_t buffer :
       {longest + 1, longest + 2, longest + 9, 2 * longest + 1}) {
    expect_same_requests(drain_csv(csv_text.str(), buffer), batch.requests);
  }

  std::ostringstream jsonl_text;
  write_jsonl_trace(workload.trace, jsonl_text);
  StreamReaderOptions options;
  options.buffer_bytes = max_line_length(jsonl_text.str()) + 1;
  std::istringstream jsonl_in(jsonl_text.str());
  JsonlStreamSource jsonl(jsonl_in, "golden.jsonl", options);
  expect_same_requests(drain(jsonl), workload.trace.requests);
}

// ----------------------------------------------------- SyntheticSource

TEST(SyntheticSourceTest, MatchesTheMaterializedGenerator) {
  const auto config = golden_workload_config();
  const auto workload = generate_workload(config);

  SyntheticSource source(config);
  EXPECT_TRUE(source.streaming());
  EXPECT_EQ(source.files().size(), workload.files.size());
  for (std::size_t i = 0; i < workload.files.size(); ++i) {
    EXPECT_EQ(source.files()[i].size, workload.files[i].size) << i;
    EXPECT_EQ(source.files()[i].access_rate, workload.files[i].access_rate)
        << i;
  }
  expect_same_requests(drain(source), workload.trace.requests);
}

// ----------------------------------------------- TraceStatsAccumulator

TEST(TraceStatsAccumulatorTest, MatchesBatchComputation) {
  const auto workload = generate_workload(golden_workload_config());
  const TraceStats batch = compute_trace_stats(workload.trace);

  TraceStatsAccumulator acc;
  for (const Request& r : workload.trace.requests) acc.add(r);
  const TraceStats incremental = acc.finalize();

  EXPECT_EQ(incremental.request_count, batch.request_count);
  EXPECT_EQ(incremental.file_count, batch.file_count);
  EXPECT_EQ(incremental.total_bytes, batch.total_bytes);
  EXPECT_EQ(incremental.duration.value(), batch.duration.value());
  EXPECT_EQ(incremental.mean_interarrival.value(),
            batch.mean_interarrival.value());
  EXPECT_EQ(incremental.mean_request_bytes, batch.mean_request_bytes);
  EXPECT_EQ(incremental.theta, batch.theta);
  EXPECT_EQ(incremental.top_fraction_accesses, batch.top_fraction_accesses);
  EXPECT_EQ(incremental.zipf_alpha, batch.zipf_alpha);
  EXPECT_EQ(incremental.access_counts, batch.access_counts);
  EXPECT_EQ(acc.last_arrival().value(),
            workload.trace.requests.back().arrival.value());
}

// ------------------------------------------------------- trace::open

TEST(TraceReaderTest, ResolvesSpecsAndInfersFormats) {
  EXPECT_EQ(trace::resolve_spec("csv:weird.bin").format, "csv");
  EXPECT_EQ(trace::resolve_spec("csv:weird.bin").path, "weird.bin");
  EXPECT_EQ(trace::resolve_spec("a/b.csv").format, "csv");
  EXPECT_EQ(trace::resolve_spec("day.jsonl").format, "jsonl");
  EXPECT_EQ(trace::resolve_spec("day.ndjson").format, "jsonl");
  EXPECT_EQ(trace::resolve_spec("access.log").format, "clf");
  EXPECT_EQ(trace::resolve_spec("day66.wc98").format, "wc98");
  EXPECT_EQ(trace::resolve_spec("-").format, "csv");
  EXPECT_EQ(trace::resolve_spec("-").path, "-");
  EXPECT_EQ(trace::resolve_spec("jsonl:-").format, "jsonl");
  // A prefix is only a format when registered; bare ':' paths keep working.
  EXPECT_EQ(trace::resolve_spec("weird:path.csv").path, "weird:path.csv");
  EXPECT_THROW((void)trace::resolve_spec(""), std::invalid_argument);
  EXPECT_THROW((void)trace::resolve_spec("no_extension"),
               std::invalid_argument);
  EXPECT_THROW((void)trace::resolve_spec("file.xyz"), std::invalid_argument);
  EXPECT_THROW((void)trace::resolve_spec("csv:"), std::invalid_argument);
}

TEST(TraceReaderTest, OpenTraceMatchesTheLegacyCsvReader) {
  const auto workload = generate_workload(golden_workload_config());
  const std::string path = testing::TempDir() + "stream_golden.csv";
  write_csv_trace_file(workload.trace, path);

  const Trace legacy = read_csv_trace_file(path);
  const Trace unified = trace::open_trace(path);
  expect_same_requests(unified.requests, legacy.requests);

  auto source = trace::open(path);
  EXPECT_TRUE(source->streaming());
  expect_same_requests(drain(*source), legacy.requests);
  std::remove(path.c_str());
}

/// open_trace(path) must equal a drain of open(path), request by request,
/// and hold no growth slack.
void expect_materialized_equals_streamed(const std::string& path) {
  SCOPED_TRACE(path);
  const Trace loaded = trace::open_trace(path);
  auto source = trace::open(path);
  const std::vector<Request> streamed = drain(*source);
  ASSERT_EQ(loaded.size(), streamed.size());
  for (std::size_t i = 0; i < streamed.size(); ++i) {
    ASSERT_TRUE(loaded.requests[i] == streamed[i]) << "request " << i;
  }
  EXPECT_EQ(loaded.requests.capacity(), loaded.size());
}

TEST(TraceReaderTest, MaterializedLoadEqualsItsStreamingTwinWithNoSlack) {
  SyntheticWorkloadConfig config = golden_workload_config();
  config.request_count = 20'000;
  const auto workload = generate_workload(config);
  const std::string csv = testing::TempDir() + "materialized_twin.csv";
  const std::string jsonl = testing::TempDir() + "materialized_twin.jsonl";
  write_csv_trace_file(workload.trace, csv);
  write_jsonl_trace_file(workload.trace, jsonl);
  expect_materialized_equals_streamed(csv);
  expect_materialized_equals_streamed(jsonl);
  EXPECT_EQ(trace::open_trace(csv).size(), 20'000u);
  std::remove(csv.c_str());
  std::remove(jsonl.c_str());
}

TEST(TraceReaderTest, Wc98LoadsHoldNoSlack) {
  std::vector<Wc98Record> records;
  for (std::uint32_t i = 0; i < 1'000; ++i) {
    Wc98Record r;
    r.timestamp = 894'000'000u + (i * 7919u) % 300u;  // out of order
    r.object_id = i % 53;
    r.size = i % 11 == 0 ? kWc98UnknownSize : 100 + i;
    records.push_back(r);
  }
  const Trace converted = wc98_to_trace(records);
  EXPECT_EQ(converted.size(), records.size());
  EXPECT_EQ(converted.requests.capacity(), converted.size());

  const std::string path = testing::TempDir() + "no_slack.wc98";
  {
    std::ofstream out(path, std::ios::binary);
    write_wc98_records(records, out);
  }
  expect_materialized_equals_streamed(path);
  std::remove(path.c_str());
}

TEST(TraceReaderTest, RowCountsSkipBlankLinesAndRewind) {
  // The counts follow the readers' blank rules: CSV skips empty lines (one
  // trailing CR stripped), JSONL also lines of spaces and tabs.
  std::istringstream csv(
      "0,1,10,R\r\n\r\n\n1,2,20,W\n \n2,3,30,R");  // " " is a row
  ASSERT_EQ(count_csv_rows(csv), std::optional<std::size_t>{4});
  std::string first;
  std::getline(csv, first);
  EXPECT_EQ(first, "0,1,10,R\r");  // rewound to where it started

  std::istringstream jsonl(
      "{\"t\":0,\"file\":1,\"bytes\":1}\n \t\r\n\r\n"
      "{\"t\":1,\"file\":1,\"bytes\":1}\n");
  EXPECT_EQ(count_jsonl_rows(jsonl), std::optional<std::size_t>{2});
  JsonlStreamSource source(jsonl, "jsonl");
  EXPECT_EQ(drain(source).size(), 2u);

  // A CSV file with separators still loads with no slack.
  const std::string path = testing::TempDir() + "blank_rows.csv";
  {
    std::ofstream out(path, std::ios::binary);
    out << "time_s,file_id,bytes,op\r\n0,1,10,R\r\n\r\n\n1,2,20,W";
  }
  const Trace loaded = trace::open_trace(path);
  EXPECT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded.requests.capacity(), 2u);
  std::remove(path.c_str());
}

TEST(TraceReaderTest, UnseekableInputIsNotCountedButStillLoads) {
  GeneratedCsvBuf counted(10);
  std::istream probe(&counted);
  EXPECT_EQ(count_csv_rows(probe), std::nullopt);

  GeneratedCsvBuf buf(1'000);
  std::istream in(&buf);
  const Trace loaded = read_csv_trace(in);
  EXPECT_EQ(loaded.size(), 1'000u);
}

// -------------------------------------- streaming / materialized identity

struct SessionRun {
  std::string report_json;
  std::string events;
};

SessionRun run_with_workload(const SystemConfig& config,
                             const std::string& policy, const FileSet& files,
                             const Trace& trace) {
  std::ostringstream events;
  JsonlTraceWriter writer(events);
  SessionRun out;
  out.report_json = to_json(SimulationSession(config)
                                .with_workload(files, trace)
                                .with_policy(policy)
                                .with_observer(writer)
                                .run());
  out.events = events.str();
  return out;
}

SessionRun run_with_source(const SystemConfig& config,
                           const std::string& policy, const FileSet& files,
                           RequestSource& source) {
  std::ostringstream events;
  JsonlTraceWriter writer(events);
  SessionRun out;
  out.report_json = to_json(SimulationSession(config)
                                .with_source(files, source)
                                .with_policy(policy)
                                .with_observer(writer)
                                .run());
  out.events = events.str();
  return out;
}

SystemConfig identity_config() {
  SystemConfig config;
  config.sim.disk_count = 8;
  config.sim.epoch = Seconds{600.0};
  return config;
}

/// READ/MAID/PDC: the vector path, the TraceSource adapter, the JSONL
/// stream (bit-exact arrivals) and the CSV stream (precision-9 arrivals,
/// compared against a trace materialized from the same bytes) must agree
/// on the full report and event stream.
TEST(StreamingIdentityTest, SourceRunsMatchVectorRunsExactly) {
  const auto workload = generate_workload(golden_workload_config());

  std::ostringstream jsonl_text;
  write_jsonl_trace(workload.trace, jsonl_text);
  std::ostringstream csv_text;
  write_csv_trace(workload.trace, csv_text);
  std::istringstream csv_for_batch(csv_text.str());
  const Trace csv_trace = read_csv_trace(csv_for_batch);
  const FileSet csv_files =
      FileSet::from_trace_stats(compute_trace_stats(csv_trace));

  const SystemConfig config = identity_config();
  for (const std::string policy : {"read", "maid", "pdc"}) {
    const SessionRun golden =
        run_with_workload(config, policy, workload.files, workload.trace);

    TraceSource adapter(workload.trace);
    const SessionRun via_adapter =
        run_with_source(config, policy, workload.files, adapter);
    EXPECT_EQ(via_adapter.report_json, golden.report_json) << policy;
    EXPECT_EQ(via_adapter.events, golden.events) << policy;

    std::istringstream jsonl_in(jsonl_text.str());
    JsonlStreamSource jsonl(jsonl_in, "golden.jsonl");
    const SessionRun via_jsonl =
        run_with_source(config, policy, workload.files, jsonl);
    EXPECT_EQ(via_jsonl.report_json, golden.report_json) << policy;
    EXPECT_EQ(via_jsonl.events, golden.events) << policy;

    const SessionRun csv_golden =
        run_with_workload(config, policy, csv_files, csv_trace);
    std::istringstream csv_in(csv_text.str());
    CsvStreamSource csv(csv_in, "golden.csv");
    const SessionRun via_csv =
        run_with_source(config, policy, csv_files, csv);
    EXPECT_EQ(via_csv.report_json, csv_golden.report_json) << policy;
    EXPECT_EQ(via_csv.events, csv_golden.events) << policy;
  }
}

// ------------------------------------------------------- online READ

TEST(OnlineReadTest, DeterministicAcrossSources) {
  const auto workload = generate_workload(golden_workload_config());
  std::ostringstream jsonl_text;
  write_jsonl_trace(workload.trace, jsonl_text);

  const SystemConfig config = identity_config();
  std::ostringstream events;
  JsonlTraceWriter writer(events);
  const SystemReport golden = SimulationSession(config)
                                  .with_workload(workload)
                                  .with_policy("online-read")
                                  .with_observer(writer)
                                  .run();
  std::istringstream jsonl_in(jsonl_text.str());
  JsonlStreamSource jsonl(jsonl_in, "golden.jsonl");
  const SessionRun streamed =
      run_with_source(config, "online-read", workload.files, jsonl);
  EXPECT_EQ(streamed.report_json, to_json(golden));
  EXPECT_EQ(streamed.events, events.str());
}

TEST(OnlineReadTest, PromotesBetweenEpochBoundaries) {
  const auto workload = generate_workload(golden_workload_config());
  SystemConfig config;
  config.sim.disk_count = 8;
  config.sim.epoch = Seconds{300.0};
  const SystemReport report = SimulationSession(config)
                                  .with_workload(workload)
                                  .with_policy("online-read")
                                  .run();
  ASSERT_NE(report.sim.counters.find("online.promotions"),
            report.sim.counters.end());
  ASSERT_NE(report.sim.counters.find("online.demotions"),
            report.sim.counters.end());
  EXPECT_GT(report.sim.counters.at("online.promotions"), 0u);
  // The batch policies must NOT intern the online counters (counter
  // hygiene: zero-valued registered counters would widen their snapshots).
  const SystemReport batch = SimulationSession(config)
                                 .with_workload(workload)
                                 .with_policy("read")
                                 .run();
  EXPECT_EQ(batch.sim.counters.find("online.promotions"),
            batch.sim.counters.end());
}

TEST(OnlineReadTest, RegistryExposesTheKnobs) {
  ASSERT_TRUE(policies::contains("online-read"));
  const auto names = policies::param_names("online-read");
  EXPECT_NE(std::find(names.begin(), names.end(), "promote_margin"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "decay_shift"),
            names.end());
  auto policy = policies::make(
      "online-read", ParamMap{{"promote_margin", "2"}, {"decay_shift", "0"}})();
  EXPECT_EQ(policy->name(), "READ-online");
  EXPECT_THROW((void)policies::make("online-read",
                                    ParamMap{{"decay_shift", "64"}})(),
               std::invalid_argument);
}

// -------------------------------------------------- scenario [source]

TEST(ScenarioSourceTest, StreamedCellsMatchMaterializedCellsAcrossThreads) {
  auto config = golden_workload_config();
  config.request_count = 3'000;  // keep the 2x2 grid quick
  const auto workload = generate_workload(config);
  const std::string path = testing::TempDir() + "scenario_source.csv";
  write_csv_trace_file(workload.trace, path);

  ScenarioSpec materialized;
  materialized.name = "replay";
  materialized.threads = 1;
  materialized.disks = {4, 8};
  materialized.epochs = {600.0};
  ScenarioWorkload w;
  w.name = "day";
  w.kind = "trace";
  w.path = path;
  materialized.workloads = {w};
  materialized.policies.push_back({"read", "READ", ParamMap{}});
  materialized.policies.push_back({"pdc", "PDC", ParamMap{}});

  ScenarioSpec streamed = materialized;
  streamed.workloads[0].kind = "source";
  streamed.workloads[0].buffer = 8192;

  auto csv_of = [](const ScenarioResult& result) {
    std::ostringstream out;
    write_scenario_csv(result, out);
    return out.str();
  };

  const std::string golden = csv_of(run_scenario(materialized));
  EXPECT_EQ(csv_of(run_scenario(streamed)), golden);

  // Thread count must never leak into results (the cells re-open the
  // source independently, in deterministic cell order).
  streamed.threads = 4;
  EXPECT_EQ(csv_of(run_scenario(streamed)), golden);
  std::remove(path.c_str());
}

TEST(ScenarioSourceTest, ParserSupportsTheSourceSection) {
  const ScenarioSpec spec = parse_scenario(
      "[source replay]\n"
      "spec = jsonl:day.jl\n"
      "buffer = 65536\n"
      "[policy read]\n");
  ASSERT_EQ(spec.workloads.size(), 1u);
  EXPECT_EQ(spec.workloads[0].name, "replay");
  EXPECT_EQ(spec.workloads[0].kind, "source");
  EXPECT_EQ(spec.workloads[0].path, "jsonl:day.jl");
  ASSERT_TRUE(spec.workloads[0].buffer.has_value());
  EXPECT_EQ(*spec.workloads[0].buffer, 65536u);

  // stdin cannot back a grid (cells re-run the source).
  EXPECT_THROW((void)parse_scenario("[source s]\nspec = -\n[policy read]\n"),
               std::invalid_argument);
  // Unresolvable specs fail at validation, not mid-sweep.
  EXPECT_THROW(
      (void)parse_scenario("[source s]\nspec = day.xyz\n[policy read]\n"),
      std::invalid_argument);
}

}  // namespace
}  // namespace pr
