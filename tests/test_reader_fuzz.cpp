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
#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "trace/csv_trace.h"
#include "trace/stream_reader.h"
#include "util/csv.h"
#include "util/parse.h"
#include "workload/synthetic.h"

namespace pr {
namespace {

constexpr std::string_view kAlphabet = "0123456789,.-+e\"\r\n RWx";
constexpr int kCsvCases = 20'000;
constexpr int kJsonlCases = 10'000;
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

/// One to six byte-level edits of `text`.
std::string mutate(std::string text, std::uint64_t& state) {
  const std::size_t edits = 1 + below(state, 6);
  for (std::size_t e = 0; e < edits; ++e) {
    const char byte = kAlphabet[below(state, kAlphabet.size())];
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

}  // namespace
}  // namespace pr
