// Seeded mutation fuzzer for the text trace readers, run inside gtest with
// no external engine. Valid CSV and JSONL traces are byte-mutated — bytes
// replaced or inserted from the alphabet the formats are made of, bytes
// deleted, the tail truncated — and every mutant goes through the readers.
//
// Neither reader may crash, hang or throw outside its error contract. For
// CSV, the streaming reader (CsvStreamSource) and the batch reader
// (read_csv_trace) must return identical requests or both reject the
// input — the stream reader with "<source>:<line>:" std::invalid_argument,
// the batch reader with std::runtime_error — and on the same line. Both
// must also agree with an independent reference built from split_csv_line
// and util/parse.h alone, so a fast-path row that parses differently from
// the strict path fails here. The one documented difference: the batch
// reader accepts a final row without a trailing newline, so an input that
// lacks one must be rejected by the stream reader and is otherwise
// compared against the stream reader's view of the input plus "\n".
//
// The whole-file formats go through trace::open the way a user's file
// does: a rendered Common Log Format log (mutated from the characters CLF
// is made of) and WC98 binary logs (mutated with arbitrary bytes). Each
// mutant must either throw a std::exception or yield a sorted trace whose
// densified file ids are all below its distinct-file count.
#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "trace/csv_trace.h"
#include "trace/stream_reader.h"
#include "trace/trace_reader.h"
#include "trace/wc98.h"
#include "util/csv.h"
#include "util/parse.h"
#include "workload/synthetic.h"

namespace pr {
namespace {

constexpr std::string_view kAlphabet = "0123456789,.-+e\"\r\n RWx";
constexpr std::string_view kClfAlphabet =
    "0123456789 -+/:[]\"\r\nGETPOSHTP.OctJan";
constexpr int kCsvCases = 20'000;
constexpr int kJsonlCases = 10'000;
constexpr int kClfCases = 5'000;
constexpr int kWc98Cases = 5'000;
/// Wall-time cap on a whole fuzz loop; a pathologically slow reader fails
/// the test instead of stalling the suite.
constexpr auto kTimeCap = std::chrono::seconds(120);

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::size_t below(std::uint64_t& state, std::size_t n) {
  return static_cast<std::size_t>(splitmix64(state) % n);
}

/// One to six byte-level edits of `text`, drawing new bytes from
/// `alphabet`.
std::string mutate(std::string text, std::uint64_t& state,
                   std::string_view alphabet = kAlphabet) {
  const std::size_t edits = 1 + below(state, 6);
  for (std::size_t e = 0; e < edits; ++e) {
    const char byte = alphabet[below(state, alphabet.size())];
    switch (below(state, 8)) {
      case 0:
      case 1:
      case 2:
        if (!text.empty()) text[below(state, text.size())] = byte;
        break;
      case 3:
      case 4:
        text.insert(text.begin() + static_cast<std::ptrdiff_t>(
                                       below(state, text.size() + 1)),
                    byte);
        break;
      case 5:
      case 6:
        if (!text.empty()) {
          text.erase(below(state, text.size()), 1);
        }
        break;
      default:
        text.resize(below(state, text.size() + 1));
        break;
    }
  }
  return text;
}

std::string printable(std::string_view text) {
  std::string out;
  for (const char c : text) {
    if (c == '\n') {
      out += "\\n";
    } else if (c == '\r') {
      out += "\\r";
    } else {
      out += c;
    }
  }
  return out;
}

/// A reader's verdict on one input: the requests, or the 1-based line it
/// rejected (0 when its message names no line).
struct Outcome {
  bool accepted = false;
  std::vector<Request> requests;
  std::size_t line = 0;
  std::string error;
};

std::size_t number_after(std::string_view text, std::string_view marker) {
  const std::size_t at = text.find(marker);
  if (at == std::string_view::npos) return 0;
  std::size_t line = 0;
  for (std::size_t i = at + marker.size();
       i < text.size() && text[i] >= '0' && text[i] <= '9'; ++i) {
    line = line * 10 + static_cast<std::size_t>(text[i] - '0');
  }
  return line;
}

/// Drain a streaming reader over `text`. A rejection must be an
/// invalid_argument carrying the "<source>:<line>:" prefix; anything else
/// propagates and fails the test.
template <typename Reader>
Outcome stream_outcome(const std::string& text, const std::string& source) {
  Outcome outcome;
  try {
    std::istringstream in(text);
    Reader reader(in, source);
    Request r;
    while (reader.next(r)) outcome.requests.push_back(r);
    outcome.accepted = true;
  } catch (const std::invalid_argument& e) {
    outcome.error = e.what();
    outcome.line = number_after(outcome.error, source + ":");
    EXPECT_GE(outcome.line, 1U) << outcome.error;
  }
  return outcome;
}

Outcome batch_outcome(const std::string& text) {
  Outcome outcome;
  try {
    std::istringstream in(text);
    outcome.requests = read_csv_trace(in).requests;
    outcome.accepted = true;
  } catch (const std::runtime_error& e) {
    outcome.error = e.what();
    outcome.line = number_after(outcome.error, "line ");
  }
  return outcome;
}

/// The oracle: the CSV format read with nothing but split_csv_line and the
/// strict full-token parsers — no fast path, no buffering.
std::optional<std::vector<Request>> reference_csv(std::string_view text) {
  std::vector<std::string_view> lines;
  for (std::size_t start = 0; start < text.size();) {
    std::size_t nl = text.find('\n', start);
    if (nl == std::string_view::npos) nl = text.size();
    std::string_view line = text.substr(start, nl - start);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    lines.push_back(line);
    start = nl + 1;
  }
  if (lines.empty() || lines.front() != "time_s,file_id,bytes,op") {
    return std::nullopt;
  }
  std::vector<Request> out;
  try {
    for (std::size_t i = 1; i < lines.size(); ++i) {
      if (lines[i].empty()) continue;
      const auto fields = split_csv_line(lines[i]);
      if (fields.size() != 4 || (fields[3] != "R" && fields[3] != "W")) {
        return std::nullopt;
      }
      Request r;
      r.arrival = Seconds{parse_double(fields[0], "time_s")};
      const std::uint64_t file = parse_u64(fields[1], "file_id");
      r.size = parse_u64(fields[2], "bytes");
      if (file >= kInvalidFile) return std::nullopt;
      if (!out.empty() && r.arrival < out.back().arrival) return std::nullopt;
      r.file = static_cast<FileId>(file);
      r.kind = fields[3] == "R" ? RequestKind::kRead : RequestKind::kWrite;
      out.push_back(r);
    }
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
  return out;
}

bool same_requests(const std::vector<Request>& a,
                   const std::vector<Request>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i].arrival.value()) !=
            std::bit_cast<std::uint64_t>(b[i].arrival.value()) ||
        a[i].file != b[i].file || a[i].size != b[i].size ||
        a[i].kind != b[i].kind) {
      return false;
    }
  }
  return true;
}

Trace small_trace(std::uint64_t seed) {
  SyntheticWorkloadConfig config;
  config.file_count = 50;
  config.request_count = 24;
  config.mean_interarrival = Seconds{7.5};
  config.seed = seed;
  return generate_workload(config).trace;
}

std::vector<std::string> csv_corpus() {
  std::vector<std::string> corpus;
  for (const std::uint64_t seed : {1U, 2U, 3U}) {
    std::ostringstream out;
    write_csv_trace(small_trace(seed), out);
    corpus.push_back(out.str());
  }
  // The slow path's shapes: CRLF, blank lines, quoting, exponents, signs,
  // the largest id and size.
  corpus.push_back(
      "time_s,file_id,bytes,op\r\n"
      "-1.5,0,0,R\r\n"
      "\r\n"
      "0,\"7\",4096,W\r\n"
      "1e1,4294967294,18446744073709551615,R\r\n"
      "\"12.25\",3,\"1\"\"0\",W\n"
      "90071992547409.92,12,9999999999999999999,R\n");
  return corpus;
}

std::vector<std::string> jsonl_corpus() {
  std::vector<std::string> corpus;
  for (const std::uint64_t seed : {1U, 2U}) {
    std::ostringstream out;
    write_jsonl_trace(small_trace(seed), out);
    corpus.push_back(out.str());
  }
  corpus.push_back(
      "{\"file\":7,\"t\":1.25,\"bytes\":4096}\n"
      "  { \"op\" : \"W\" , \"bytes\" : 8 , \"t\" : 2.5e0 , \"file\" : 9 }\r\n"
      "\n"
      "{\"t\":3,\"file\":4294967294,\"bytes\":18446744073709551615}\n");
  return corpus;
}

std::vector<std::string> clf_corpus() {
  std::vector<std::string> corpus;
  for (const std::uint64_t seed : {1U, 2U}) {
    std::string log;
    const Trace trace = small_trace(seed);
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const Request& r = trace.requests[i];
      const auto t = static_cast<int>(r.arrival.value());
      char stamp[64];
      std::snprintf(stamp, sizeof stamp, "%02d/Oct/2000:%02d:%02d:%02d",
                    10 + t / 86400, t / 3600 % 24, t / 60 % 60, t % 60);
      log += "10.0.0." + std::to_string(i % 7) + " - - [" + stamp +
             " -0700] \"" + (i % 5 == 4 ? "POST" : "GET") + " /f" +
             std::to_string(r.file) + ".html HTTP/1.0\" " +
             (i % 6 == 5 ? "404" : "200") + " " +
             (i % 4 == 3 ? std::string("-") : std::to_string(r.size)) + "\n";
    }
    corpus.push_back(log);
  }
  // Combined format extras, CRLF, a blank line and a malformed line.
  corpus.push_back(
      "host - - [10/Oct/2000:13:55:36 -0700] \"GET /a.html HTTP/1.0\" 200 "
      "2326 \"http://x/\" \"agent\"\r\n"
      "\n"
      "host - - [10/Oct/2000:13:55:35 +0100] \"GET /b\" 200 -\n"
      "garbage line\n"
      "host - - [31/Dec/1999:23:59:60 -0000] \"PUT /a.html HTTP/1.1\" 201 "
      "9\n");
  return corpus;
}

std::vector<std::string> wc98_corpus() {
  std::vector<std::string> corpus;
  {
    std::ifstream in(std::string(WC98_FIXTURE_DIR) + "/disorder.wc98",
                     std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    corpus.push_back(bytes.str());
  }
  std::vector<Wc98Record> records;
  for (const Request& r : small_trace(3).requests) {
    Wc98Record record;
    record.timestamp =
        893'000'000U + static_cast<std::uint32_t>(r.arrival.value());
    record.client_id = r.file * 3;
    record.object_id = r.file + 100;
    record.size = static_cast<std::uint32_t>(r.size);
    record.status = 0x1f;
    records.push_back(record);
  }
  records[5].size = kWc98UnknownSize;
  std::ostringstream out;
  write_wc98_records(records, out);
  corpus.push_back(out.str());
  return corpus;
}

/// Write `input` to a file and open it through trace::open as `format`.
/// Either the reader throws a std::exception (the return is empty) or it
/// yields a sorted trace with dense file ids; both are checked here.
std::optional<Trace> open_mutant(const std::string& format,
                                 const std::string& input) {
  const std::string path = testing::TempDir() + "reader_fuzz." + format;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << input;
  }
  Trace trace;
  try {
    const auto source = trace::open(format + ":" + path);
    Request r;
    while (source->next(r)) trace.requests.push_back(r);
  } catch (const std::exception&) {
    return std::nullopt;
  }
  EXPECT_TRUE(trace.is_sorted()) << printable(input);
  std::unordered_set<FileId> files;
  for (const Request& r : trace.requests) files.insert(r.file);
  for (const Request& r : trace.requests) {
    EXPECT_TRUE(std::isfinite(r.arrival.value())) << printable(input);
    EXPECT_LT(r.file, files.size()) << printable(input);
  }
  return trace;
}

TEST(ReaderFuzzTest, CsvReadersAgreeOrBothRejectEveryMutant) {
  const std::vector<std::string> corpus = csv_corpus();
  std::uint64_t state = 0xc5f0f022ULL;
  const auto start = std::chrono::steady_clock::now();
  int accepted = 0;
  for (int i = 0; i < kCsvCases; ++i) {
    ASSERT_LT(std::chrono::steady_clock::now() - start, kTimeCap)
        << "time cap hit after " << i << " cases";
    const std::string input = mutate(corpus[below(state, corpus.size())], state);
    const bool terminated = input.empty() || input.back() == '\n';

    const Outcome streamed = stream_outcome<CsvStreamSource>(input, "fuzz.csv");
    const Outcome batch = batch_outcome(input);
    // The batch reader sees an unterminated input as the stream reader sees
    // it with the newline added; the stream reader itself must refuse it.
    const Outcome& peer =
        terminated ? streamed
                   : stream_outcome<CsvStreamSource>(input + "\n", "fuzz.csv");
    if (!terminated) {
      ASSERT_FALSE(streamed.accepted) << printable(input);
    }
    ASSERT_EQ(peer.accepted, batch.accepted)
        << printable(input) << "\nstream: " << peer.error
        << "\nbatch: " << batch.error;
    const auto reference = reference_csv(terminated ? input : input + "\n");
    ASSERT_EQ(reference.has_value(), batch.accepted) << printable(input);
    if (batch.accepted) {
      ++accepted;
      ASSERT_TRUE(same_requests(peer.requests, batch.requests))
          << printable(input);
      ASSERT_TRUE(same_requests(*reference, batch.requests))
          << printable(input);
    } else if (batch.line != 0) {
      ASSERT_EQ(peer.line, batch.line)
          << printable(input) << "\nstream: " << peer.error
          << "\nbatch: " << batch.error;
    }
  }
  // The mutants must exercise both verdicts, or the fuzzer proves little.
  EXPECT_GT(accepted, kCsvCases / 50);
  EXPECT_LT(accepted, kCsvCases - kCsvCases / 50);
}

TEST(ReaderFuzzTest, JsonlReaderAcceptsCleanlyOrRejectsWithContext) {
  const std::vector<std::string> corpus = jsonl_corpus();
  std::uint64_t state = 0x150f022ULL;
  const auto start = std::chrono::steady_clock::now();
  int accepted = 0;
  for (int i = 0; i < kJsonlCases; ++i) {
    ASSERT_LT(std::chrono::steady_clock::now() - start, kTimeCap)
        << "time cap hit after " << i << " cases";
    const std::string input = mutate(corpus[below(state, corpus.size())], state);
    const Outcome outcome =
        stream_outcome<JsonlStreamSource>(input, "fuzz.jsonl");
    if (!outcome.accepted) continue;
    ++accepted;
    ASSERT_TRUE(input.empty() || input.back() == '\n') << printable(input);
    for (std::size_t r = 0; r < outcome.requests.size(); ++r) {
      const Request& req = outcome.requests[r];
      ASSERT_TRUE(std::isfinite(req.arrival.value())) << printable(input);
      ASSERT_LT(req.file, kInvalidFile) << printable(input);
      if (r > 0) {
        ASSERT_GE(req.arrival, outcome.requests[r - 1].arrival)
            << printable(input);
      }
    }
  }
  EXPECT_GT(accepted, kJsonlCases / 50);
  EXPECT_LT(accepted, kJsonlCases - kJsonlCases / 50);
}

TEST(ReaderFuzzTest, ClfReaderSurvivesEveryMutant) {
  const std::vector<std::string> corpus = clf_corpus();
  std::uint64_t state = 0xc1f0f022ULL;
  const auto start = std::chrono::steady_clock::now();
  int nonempty = 0;
  for (int i = 0; i < kClfCases; ++i) {
    ASSERT_LT(std::chrono::steady_clock::now() - start, kTimeCap)
        << "time cap hit after " << i << " cases";
    const std::string input =
        mutate(corpus[below(state, corpus.size())], state, kClfAlphabet);
    const std::optional<Trace> trace = open_mutant("clf", input);
    if (HasFailure()) return;
    // The CLF reader skips malformed lines instead of failing on them.
    ASSERT_TRUE(trace.has_value()) << printable(input);
    if (!trace->empty()) ++nonempty;
  }
  EXPECT_GT(nonempty, kClfCases / 2);
}

TEST(ReaderFuzzTest, Wc98ReaderSurvivesEveryMutant) {
  const std::vector<std::string> corpus = wc98_corpus();
  std::string any_byte(256, '\0');
  for (std::size_t b = 0; b < any_byte.size(); ++b) {
    any_byte[b] = static_cast<char>(b);
  }
  std::uint64_t state = 0x3c98f022ULL;
  const auto start = std::chrono::steady_clock::now();
  int accepted = 0;
  for (int i = 0; i < kWc98Cases; ++i) {
    ASSERT_LT(std::chrono::steady_clock::now() - start, kTimeCap)
        << "time cap hit after " << i << " cases";
    const std::string input =
        mutate(corpus[below(state, corpus.size())], state, any_byte);
    const std::optional<Trace> trace = open_mutant("wc98", input);
    if (HasFailure()) return;
    if (!trace) continue;
    ++accepted;
    // A whole number of records decodes to exactly that many requests.
    ASSERT_EQ(input.size() % kWc98RecordBytes, 0U);
    ASSERT_EQ(trace->size(), input.size() / kWc98RecordBytes);
  }
  EXPECT_GT(accepted, kWc98Cases / 50);
  EXPECT_LT(accepted, kWc98Cases - kWc98Cases / 50);
}

}  // namespace
}  // namespace pr
