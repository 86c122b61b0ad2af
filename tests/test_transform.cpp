// Tests for the trace transformation utilities.
#include "trace/transform.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "trace/trace_stats.h"
#include "workload/synthetic.h"

namespace pr {
namespace {

Trace ramp_trace() {
  // 10 requests at t = 0,1,...,9 over files 0..4.
  Trace t;
  for (int i = 0; i < 10; ++i) {
    Request r;
    r.arrival = Seconds{static_cast<double>(i)};
    r.file = static_cast<FileId>(i % 5);
    r.size = 100 * (i + 1);
    t.requests.push_back(r);
  }
  return t;
}

TEST(Transform, TimeWindowSelectsAndRebases) {
  const Trace t = ramp_trace();
  const Trace w = time_window(t, Seconds{3.0}, Seconds{7.0});
  ASSERT_EQ(w.size(), 4u);  // arrivals 3,4,5,6
  EXPECT_DOUBLE_EQ(w.requests[0].arrival.value(), 0.0);
  EXPECT_DOUBLE_EQ(w.requests[3].arrival.value(), 3.0);
  EXPECT_EQ(w.requests[0].size, 400u);
  EXPECT_THROW((void)time_window(t, Seconds{5.0}, Seconds{1.0}),
               std::invalid_argument);
}

TEST(Transform, TimeWindowEmptyWhenOutside) {
  const Trace w = time_window(ramp_trace(), Seconds{100.0}, Seconds{200.0});
  EXPECT_TRUE(w.empty());
}

TEST(Transform, HeadTruncates) {
  EXPECT_EQ(head(ramp_trace(), 3).size(), 3u);
  EXPECT_EQ(head(ramp_trace(), 99).size(), 10u);
  EXPECT_EQ(head(ramp_trace(), 0).size(), 0u);
}

TEST(Transform, ScaleRateCompressesTimeline) {
  const Trace t = ramp_trace();
  const Trace fast = scale_rate(t, 4.0);
  ASSERT_EQ(fast.size(), t.size());
  EXPECT_DOUBLE_EQ(fast.requests[8].arrival.value(), 2.0);
  EXPECT_DOUBLE_EQ(fast.duration().value(), t.duration().value() / 4.0);
  const Trace slow = scale_rate(t, 0.5);
  EXPECT_DOUBLE_EQ(slow.duration().value(), t.duration().value() * 2.0);
  EXPECT_THROW((void)scale_rate(t, 0.0), std::invalid_argument);
}

TEST(Transform, ScaleRateMatchesSyntheticHeavy) {
  // Scaling a measured trace 4x is the paper's "heavy" condition.
  SyntheticWorkloadConfig cfg;
  cfg.file_count = 200;
  cfg.request_count = 20'000;
  cfg.seed = 2;
  const auto w = generate_workload(cfg);
  const auto heavy = scale_rate(w.trace, 4.0);
  const double light_ia =
      compute_trace_stats(w.trace).mean_interarrival.value();
  const double heavy_ia =
      compute_trace_stats(heavy).mean_interarrival.value();
  EXPECT_NEAR(light_ia / heavy_ia, 4.0, 1e-9);
}

TEST(Transform, SampleEveryThins) {
  const Trace t = ramp_trace();
  const Trace thinned = sample_every(t, 3);
  ASSERT_EQ(thinned.size(), 4u);  // indices 0,3,6,9
  EXPECT_DOUBLE_EQ(thinned.requests[1].arrival.value(), 3.0);
  EXPECT_EQ(sample_every(t, 1).size(), t.size());
  EXPECT_THROW((void)sample_every(t, 0), std::invalid_argument);
}

TEST(Transform, DensifyRenumbersInFirstAppearanceOrder) {
  Trace t;
  for (FileId f : {7u, 3u, 7u, 11u, 3u}) {
    Request r;
    r.arrival = Seconds{static_cast<double>(t.size())};
    r.file = f;
    r.size = 1;
    t.requests.push_back(r);
  }
  std::vector<FileId> old_ids;
  const Trace dense = densify_files(t, &old_ids);
  EXPECT_EQ(dense.requests[0].file, 0u);
  EXPECT_EQ(dense.requests[1].file, 1u);
  EXPECT_EQ(dense.requests[2].file, 0u);
  EXPECT_EQ(dense.requests[3].file, 2u);
  EXPECT_EQ(dense.file_universe(), 3u);
  EXPECT_EQ(old_ids, (std::vector<FileId>{7u, 3u, 11u}));
}

TEST(Transform, RepeatTilesTheTimeline) {
  const Trace t = ramp_trace();  // spans [0, 9]
  const Trace three = repeat(t, 3, Seconds{20.0});
  ASSERT_EQ(three.size(), 30u);
  EXPECT_TRUE(three.is_sorted());
  EXPECT_DOUBLE_EQ(three.requests[10].arrival.value(), 20.0);
  EXPECT_DOUBLE_EQ(three.requests[29].arrival.value(), 49.0);
  EXPECT_THROW((void)repeat(t, 0, Seconds{20.0}), std::invalid_argument);
  EXPECT_THROW((void)repeat(t, 2, Seconds{5.0}), std::invalid_argument);
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(Transform, TimeWindowRejectsNonFiniteBounds) {
  // A NaN `from` passes the inversion check (to < from is false).
  const Trace t = ramp_trace();
  for (const double bad : {kNaN, kInf, -kInf}) {
    EXPECT_THROW((void)time_window(t, Seconds{bad}, Seconds{5.0}),
                 std::invalid_argument);
    EXPECT_THROW((void)time_window(t, Seconds{0.0}, Seconds{bad}),
                 std::invalid_argument);
  }
  EXPECT_THROW((void)time_window(t, Seconds{-kInf}, Seconds{kInf}),
               std::invalid_argument);
  EXPECT_EQ(time_window(t, Seconds{0.0}, Seconds{1e300}).size(), t.size());
}

TEST(Transform, RepeatRejectsPeriodThatIsNotFiniteAndPositive) {
  const Trace t = ramp_trace();
  for (const double bad : {kNaN, kInf, -kInf, 0.0, -20.0}) {
    EXPECT_THROW((void)repeat(t, 2, Seconds{bad}), std::invalid_argument);
    // An empty trace has no last arrival to compare with the period, so
    // only the period check rejects these.
    EXPECT_THROW((void)repeat(Trace{}, 2, Seconds{bad}),
                 std::invalid_argument);
  }
  EXPECT_TRUE(repeat(Trace{}, 2, Seconds{1.0}).empty());
}

TEST(Transform, ScaleRateRejectsFactorThatIsNotFiniteAndPositive) {
  // +inf would collapse every arrival to 0.
  const Trace t = ramp_trace();
  for (const double bad : {kNaN, kInf, -kInf, 0.0, -2.0}) {
    EXPECT_THROW((void)scale_rate(t, bad), std::invalid_argument);
  }
  EXPECT_EQ(scale_rate(t, 1e-300).size(), t.size());
}

TEST(Transform, PipelineComposition) {
  // Realistic use: cut a window, thin it, densify, and simulate-ready.
  SyntheticWorkloadConfig cfg;
  cfg.file_count = 300;
  cfg.request_count = 30'000;
  cfg.seed = 4;
  const auto w = generate_workload(cfg);
  const Seconds mid{w.trace.duration().value() / 2.0};
  Trace cut = time_window(w.trace, Seconds{0.0}, mid);
  cut = sample_every(cut, 2);
  std::vector<FileId> old_ids;
  const Trace final_trace = densify_files(cut, &old_ids);
  EXPECT_TRUE(final_trace.is_sorted());
  EXPECT_EQ(final_trace.file_universe(), old_ids.size());
  EXPECT_GT(final_trace.size(), 5'000u);
}

}  // namespace
}  // namespace pr
