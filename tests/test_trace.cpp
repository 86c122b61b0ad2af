// Tests for the trace layer: CSV trace I/O, the WorldCup98 binary format,
// and trace statistics (θ estimation per Lee et al. [20]).
#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <sstream>
#include <string>

#include "trace/csv_trace.h"
#include "trace/trace_stats.h"
#include "trace/wc98.h"

namespace pr {
namespace {

Trace make_small_trace() {
  Trace t;
  t.requests = {
      {.arrival = Seconds{0.0}, .file = 0, .kind = RequestKind::kRead,
       .size = 1000},
      {.arrival = Seconds{0.5}, .file = 1, .kind = RequestKind::kRead,
       .size = 2000},
      {.arrival = Seconds{1.0}, .file = 0, .kind = RequestKind::kWrite,
       .size = 1000},
      {.arrival = Seconds{2.0}, .file = 2, .kind = RequestKind::kRead,
       .size = 500},
  };
  return t;
}

TEST(Trace, BasicProperties) {
  const Trace t = make_small_trace();
  EXPECT_EQ(t.size(), 4u);
  EXPECT_FALSE(t.empty());
  EXPECT_TRUE(t.is_sorted());
  EXPECT_DOUBLE_EQ(t.duration().value(), 2.0);
  EXPECT_EQ(t.file_universe(), 3u);
}

TEST(Trace, DetectsUnsorted) {
  Trace t = make_small_trace();
  std::swap(t.requests[0], t.requests[3]);
  EXPECT_FALSE(t.is_sorted());
}

TEST(Trace, EmptyTraceEdgeCases) {
  Trace t;
  EXPECT_TRUE(t.empty());
  EXPECT_DOUBLE_EQ(t.duration().value(), 0.0);
  EXPECT_EQ(t.file_universe(), 0u);
  EXPECT_TRUE(t.is_sorted());
}

TEST(CsvTrace, RoundTrip) {
  const Trace original = make_small_trace();
  std::ostringstream out;
  write_csv_trace(original, out);
  std::istringstream in(out.str());
  const Trace parsed = read_csv_trace(in);
  ASSERT_EQ(parsed.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_NEAR(parsed.requests[i].arrival.value(),
                original.requests[i].arrival.value(), 1e-9);
    EXPECT_EQ(parsed.requests[i].file, original.requests[i].file);
    EXPECT_EQ(parsed.requests[i].size, original.requests[i].size);
    EXPECT_EQ(parsed.requests[i].kind, original.requests[i].kind);
  }
}

TEST(CsvTrace, RejectsBadHeader) {
  std::istringstream in("wrong,header\n0,0,1,R\n");
  EXPECT_THROW(read_csv_trace(in), std::runtime_error);
}

TEST(CsvTrace, RejectsUnsortedRows) {
  std::istringstream in("time_s,file_id,bytes,op\n2,0,1,R\n1,0,1,R\n");
  EXPECT_THROW(read_csv_trace(in), std::runtime_error);
}

TEST(CsvTrace, RejectsBadOp) {
  std::istringstream in("time_s,file_id,bytes,op\n0,0,1,X\n");
  EXPECT_THROW(read_csv_trace(in), std::runtime_error);
}

TEST(CsvTrace, RejectsWrongFieldCount) {
  std::istringstream in("time_s,file_id,bytes,op\n0,0,1\n");
  EXPECT_THROW(read_csv_trace(in), std::runtime_error);
}

/// Expect read_csv_trace to reject `row` (after a canonical header) with a
/// std::runtime_error naming line 2. The streaming reader shares the row
/// parser, so these rows were always rejected there.
void expect_row_rejected(const std::string& row) {
  std::istringstream in("time_s,file_id,bytes,op\n" + row + "\n");
  try {
    (void)read_csv_trace(in);
    ADD_FAILURE() << "accepted '" << row << "'";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

TEST(CsvTrace, RejectsFileIdAboveU32InsteadOfWrapping) {
  expect_row_rejected("0.5,4294967296,100,R");
}

TEST(CsvTrace, RejectsNegativeFileId) {
  expect_row_rejected("0.5,-1,100,R");
}

TEST(CsvTrace, RejectsTrailingGarbageInFileId) {
  expect_row_rejected("0.5,12abc,100,R");
}

TEST(CsvTrace, RejectsFractionalFileId) {
  expect_row_rejected("0.5,3.9,100,R");
}

TEST(CsvTrace, RejectsNegativeSize) {
  expect_row_rejected("0.5,7,-3,R");
}

TEST(CsvTrace, RejectsNanArrival) {
  expect_row_rejected("nan,7,1,R");
}

TEST(CsvTrace, RejectsInfiniteArrival) {
  expect_row_rejected("inf,7,1,R");
}

TEST(CsvTrace, AcceptsCrlfAndAMissingFinalNewline) {
  std::istringstream in("time_s,file_id,bytes,op\r\n0.5,7,1,R\r\n\r\n1,8,2,W");
  const Trace parsed = read_csv_trace(in);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed.requests[1].file, 8u);
  EXPECT_EQ(parsed.requests[1].kind, RequestKind::kWrite);
}

TEST(Wc98, RecordRoundTrip) {
  std::vector<Wc98Record> records = {
      {894'000'000u, 17u, 42u, 8'192u, 0, 2, 1, 3},
      {894'000'001u, 18u, 43u, kWc98UnknownSize, 0, 2, 1, 3},
      {894'000'001u, 19u, 42u, 8'192u, 1, 4, 2, 0},
  };
  std::ostringstream out(std::ios::binary);
  write_wc98_records(records, out);
  EXPECT_EQ(out.str().size(), records.size() * kWc98RecordBytes);
  std::istringstream in(out.str(), std::ios::binary);
  const auto parsed = read_wc98_records(in);
  ASSERT_EQ(parsed.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(parsed[i], records[i]) << "record " << i;
  }
}

TEST(Wc98, TruncatedRecordThrows) {
  std::string bytes(kWc98RecordBytes + 7, '\0');
  std::istringstream in(bytes, std::ios::binary);
  EXPECT_THROW(read_wc98_records(in), std::runtime_error);
}

TEST(Wc98, ConvertDensifiesObjectIds) {
  std::vector<Wc98Record> records = {
      {100u, 1u, 5'000u, 100u, 0, 0, 0, 0},
      {101u, 1u, 9'999u, 200u, 0, 0, 0, 0},
      {102u, 1u, 5'000u, 100u, 0, 0, 0, 0},
  };
  std::vector<std::uint32_t> id_map;
  const Trace t = wc98_to_trace(records, {}, &id_map);
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t.requests[0].file, 0u);
  EXPECT_EQ(t.requests[1].file, 1u);
  EXPECT_EQ(t.requests[2].file, 0u);
  ASSERT_EQ(id_map.size(), 2u);
  EXPECT_EQ(id_map[0], 5'000u);
  EXPECT_EQ(id_map[1], 9'999u);
}

TEST(Wc98, ConvertRebasesAndSpreadsWithinSecond) {
  std::vector<Wc98Record> records = {
      {500u, 0, 1, 10u, 0, 0, 0, 0},
      {500u, 0, 2, 10u, 0, 0, 0, 0},
      {501u, 0, 3, 10u, 0, 0, 0, 0},
  };
  const Trace t = wc98_to_trace(records);
  ASSERT_EQ(t.size(), 3u);
  // Two arrivals in second 0 spread at 0.25 and 0.75; third at 1.5.
  EXPECT_NEAR(t.requests[0].arrival.value(), 0.25, 1e-9);
  EXPECT_NEAR(t.requests[1].arrival.value(), 0.75, 1e-9);
  EXPECT_NEAR(t.requests[2].arrival.value(), 1.5, 1e-9);
  EXPECT_TRUE(t.is_sorted());
}

TEST(Wc98, UnknownSizeGetsDefault) {
  std::vector<Wc98Record> records = {
      {0u, 0, 1, kWc98UnknownSize, 0, 0, 0, 0},
      {1u, 0, 2, 0u, 0, 0, 0, 0},
  };
  Wc98ConvertOptions options;
  options.default_size = 1234;
  const Trace t = wc98_to_trace(records, options);
  EXPECT_EQ(t.requests[0].size, 1234u);
  EXPECT_EQ(t.requests[1].size, 1234u);
}

TEST(Wc98, ToleratesDisorderedTimestamps) {
  std::vector<Wc98Record> records = {
      {10u, 0, 1, 5u, 0, 0, 0, 0},
      {9u, 0, 2, 5u, 0, 0, 0, 0},
  };
  std::vector<std::uint32_t> id_map;
  const Trace t = wc98_to_trace(records, {}, &id_map);
  EXPECT_TRUE(t.is_sorted());
  // Object 2 arrives first after the stable sort, so it gets dense id 0.
  EXPECT_EQ(t.requests[0].file, 0u);
  ASSERT_EQ(id_map.size(), 2u);
  EXPECT_EQ(id_map[0], 2u);
  EXPECT_EQ(id_map[1], 1u);
}

TEST(Wc98, DisorderFixturePinsConversion) {
  // Committed binary log, heavily disordered: the minimum timestamp
  // (905000008) is the FOURTH record in the file, seconds repeat
  // non-contiguously, and two records carry unknown/zero sizes.
  const std::string path = std::string(WC98_FIXTURE_DIR) + "/disorder.wc98";
  const auto records = read_wc98_records_file(path);
  ASSERT_EQ(records.size(), 8u);
  EXPECT_GT(records[0].timestamp, records[3].timestamp);
  EXPECT_EQ(records[3].timestamp, 905'000'008u);

  Wc98ConvertOptions options;
  options.default_size = 777;
  std::vector<std::uint32_t> id_map;
  const Trace t = wc98_to_trace(records, options, &id_map);
  ASSERT_EQ(t.size(), 8u);  // disorder never drops records
  EXPECT_TRUE(t.is_sorted());

  // Rebase is against the sorted minimum, not the first raw record:
  // the lone arrival in second 905000008 lands at 0.5, second
  // 905000009 at 1.5, and the three arrivals sharing second 905000010
  // spread at (k + 0.5)/3 into offset 2.
  EXPECT_NEAR(t.requests[0].arrival.value(), 0.5, 1e-9);
  EXPECT_NEAR(t.requests[1].arrival.value(), 1.5, 1e-9);
  EXPECT_NEAR(t.requests[2].arrival.value(), 2.0 + 0.5 / 3.0, 1e-9);
  EXPECT_NEAR(t.requests[3].arrival.value(), 2.0 + 1.5 / 3.0, 1e-9);
  EXPECT_NEAR(t.requests[4].arrival.value(), 2.0 + 2.5 / 3.0, 1e-9);
  EXPECT_NEAR(t.requests[5].arrival.value(), 4.0 + 0.5 / 3.0, 1e-9);
  EXPECT_NEAR(t.requests[6].arrival.value(), 4.0 + 1.5 / 3.0, 1e-9);
  EXPECT_NEAR(t.requests[7].arrival.value(), 4.0 + 2.5 / 3.0, 1e-9);

  // Dense ids follow sorted-arrival order (700 first, then 900, 600,
  // 800, 500), with duplicates reusing their slot.
  ASSERT_EQ(id_map.size(), 5u);
  EXPECT_EQ(id_map[0], 700u);
  EXPECT_EQ(id_map[1], 900u);
  EXPECT_EQ(id_map[2], 600u);
  EXPECT_EQ(id_map[3], 800u);
  EXPECT_EQ(id_map[4], 500u);
  EXPECT_EQ(t.requests[0].file, 0u);
  EXPECT_EQ(t.requests[5].file, 4u);  // object 500 again
  EXPECT_EQ(t.requests[7].file, 2u);  // object 600 again

  // Unknown (0xFFFFFFFF) and zero sizes both take the default.
  EXPECT_EQ(t.requests[2].size, 777u);  // raw size 0
  EXPECT_EQ(t.requests[3].size, 777u);  // raw size unknown
  EXPECT_EQ(t.requests[0].size, 4096u);
}

TEST(Wc98, DisorderToleranceIsUnbounded) {
  // Fully reversed input spanning kiloseconds: the converter's stable
  // sort is whole-trace, not a bounded reorder window, so the output
  // must equal the conversion of the forward-sorted input.
  std::vector<Wc98Record> reversed;
  std::vector<Wc98Record> forward;
  for (std::uint32_t i = 0; i < 50; ++i) {
    const Wc98Record r{1000u + i * 37u, 0, i, 10u, 0, 0, 0, 0};
    forward.push_back(r);
    reversed.insert(reversed.begin(), r);
  }
  const Trace a = wc98_to_trace(forward);
  const Trace b = wc98_to_trace(reversed);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_TRUE(b.is_sorted());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.requests[i].arrival.value(), b.requests[i].arrival.value())
        << i;
    EXPECT_EQ(a.requests[i].file, b.requests[i].file) << i;
    EXPECT_EQ(a.requests[i].size, b.requests[i].size) << i;
  }
}

TEST(ThetaFromSkew, ClassicEightyTwenty) {
  // 80% of accesses to 20% of files: θ = log(0.8)/log(0.2) ≈ 0.1386.
  EXPECT_NEAR(theta_from_skew(0.8, 0.2), std::log(0.8) / std::log(0.2),
              1e-12);
}

TEST(ThetaFromSkew, UniformIsOne) {
  // A == B means no skew: cum(x) = x.
  EXPECT_NEAR(theta_from_skew(0.5, 0.5), 1.0, 1e-12);
}

TEST(ThetaFromSkew, DegenerateInputsReturnUniform) {
  EXPECT_DOUBLE_EQ(theta_from_skew(0.0, 0.2), 1.0);
  EXPECT_DOUBLE_EQ(theta_from_skew(1.0, 0.2), 1.0);
  EXPECT_DOUBLE_EQ(theta_from_skew(0.8, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(theta_from_skew(0.8, 1.0), 1.0);
}

TEST(AccessesCaptured, CumulativeLaw) {
  EXPECT_NEAR(accesses_captured(0.2, theta_from_skew(0.8, 0.2)), 0.8, 1e-12);
  EXPECT_DOUBLE_EQ(accesses_captured(0.0, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(accesses_captured(1.0, 0.5), 1.0);
}

TEST(EstimateTheta, UniformCountsGiveOne) {
  std::vector<std::uint64_t> counts(100, 7);
  EXPECT_NEAR(estimate_theta(counts), 1.0, 1e-6);
}

TEST(EstimateTheta, SkewedCountsGiveSmallTheta) {
  // One file with nearly all accesses.
  std::vector<std::uint64_t> counts(100, 1);
  counts[0] = 100'000;
  const double theta = estimate_theta(counts);
  EXPECT_LT(theta, 0.2);
  EXPECT_GT(theta, 0.0);
}

TEST(EstimateTheta, IgnoresNeverAccessedFiles) {
  std::vector<std::uint64_t> counts(10, 5);
  counts.resize(1000, 0);  // 990 dead ids must not dilute the estimate
  EXPECT_NEAR(estimate_theta(counts), 1.0, 1e-6);
}

TEST(EstimateTheta, DegenerateInputs) {
  EXPECT_DOUBLE_EQ(estimate_theta(std::span<const std::uint64_t>{}), 1.0);
  EXPECT_DOUBLE_EQ(estimate_theta({5}), 1.0);
  EXPECT_DOUBLE_EQ(estimate_theta({0, 0, 0}), 1.0);
}

TEST(EstimateTheta, SpanAndVectorOverloadsAgree) {
  std::vector<std::uint64_t> counts{40, 20, 10, 5, 5, 2, 1, 1, 0, 0};
  EXPECT_DOUBLE_EQ(estimate_theta(std::span<const std::uint64_t>(counts)),
                   estimate_theta(counts));
}

TEST(TraceStats, ComputesCoreNumbers) {
  const Trace t = make_small_trace();
  const TraceStats s = compute_trace_stats(t);
  EXPECT_EQ(s.request_count, 4u);
  EXPECT_EQ(s.file_count, 3u);
  EXPECT_DOUBLE_EQ(s.duration.value(), 2.0);
  EXPECT_NEAR(s.mean_interarrival.value(), 2.0 / 3.0, 1e-12);
  EXPECT_EQ(s.total_bytes, 4'500u);
  EXPECT_DOUBLE_EQ(s.mean_request_bytes, 1'125.0);
  ASSERT_EQ(s.access_counts.size(), 3u);
  EXPECT_EQ(s.access_counts[0], 2u);
  EXPECT_EQ(s.access_counts[1], 1u);
  EXPECT_DOUBLE_EQ(s.mean_file_bytes[0], 1000.0);
}

TEST(TraceStats, EmptyTrace) {
  const TraceStats s = compute_trace_stats(Trace{});
  EXPECT_EQ(s.request_count, 0u);
  EXPECT_EQ(s.file_count, 0u);
  EXPECT_DOUBLE_EQ(s.theta, 1.0);
}

}  // namespace
}  // namespace pr
