// Tests for workload/fileset.h and workload/synthetic.h — the WC98-like
// synthetic workload must match the statistics the paper reports (§5.1)
// and the structural assumptions READ relies on (§4).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "trace/trace_stats.h"
#include "util/stats.h"
#include "workload/fileset.h"
#include "workload/synthetic.h"

namespace pr {
namespace {

TEST(FileSet, RejectsNonDenseIds) {
  std::vector<FileInfo> files(2);
  files[0].id = 0;
  files[1].id = 5;  // gap
  EXPECT_THROW(FileSet{files}, std::invalid_argument);
}

TEST(FileSet, LoadIsRateTimesSize) {
  FileInfo f;
  f.id = 0;
  f.size = 2000;
  f.access_rate = 1.5;
  EXPECT_DOUBLE_EQ(f.load(), 3000.0);
}

TEST(FileSet, Totals) {
  std::vector<FileInfo> files(3);
  for (std::size_t i = 0; i < 3; ++i) {
    files[i].id = static_cast<FileId>(i);
    files[i].size = 100 * (i + 1);
    files[i].access_rate = static_cast<double>(i);
  }
  FileSet fs(std::move(files));
  EXPECT_EQ(fs.total_bytes(), 600u);
  EXPECT_DOUBLE_EQ(fs.total_load(), 0.0 * 100 + 1.0 * 200 + 2.0 * 300);
}

TEST(FileSet, OrderingHelpers) {
  std::vector<FileInfo> files(3);
  files[0] = {0, 500, 1.0};
  files[1] = {1, 100, 9.0};
  files[2] = {2, 300, 4.0};
  FileSet fs(std::move(files));
  EXPECT_EQ(fs.ids_by_size_ascending(), (std::vector<FileId>{1, 2, 0}));
  EXPECT_EQ(fs.ids_by_rate_descending(), (std::vector<FileId>{1, 2, 0}));
}

TEST(FileSet, ByIdBoundsChecked) {
  FileSet fs;
  EXPECT_THROW((void)fs.by_id(0), std::out_of_range);
}

TEST(FileSet, FromTraceStats) {
  Trace t;
  t.requests = {
      {.arrival = Seconds{0.0}, .file = 0, .kind = RequestKind::kRead,
       .size = 1000},
      {.arrival = Seconds{5.0}, .file = 0, .kind = RequestKind::kRead,
       .size = 1000},
      {.arrival = Seconds{10.0}, .file = 1, .kind = RequestKind::kRead,
       .size = 4000},
  };
  const auto stats = compute_trace_stats(t);
  const FileSet fs = FileSet::from_trace_stats(stats);
  ASSERT_EQ(fs.size(), 2u);
  EXPECT_EQ(fs[0].size, 1000u);
  EXPECT_DOUBLE_EQ(fs[0].access_rate, 2.0 / 10.0);
  EXPECT_EQ(fs[1].size, 4000u);
}

TEST(Synthetic, RejectsBadConfig) {
  SyntheticWorkloadConfig c;
  c.file_count = 0;
  EXPECT_THROW(generate_fileset(c), std::invalid_argument);
  c = {};
  c.mean_interarrival = Seconds{0.0};
  EXPECT_THROW(generate_workload(c), std::invalid_argument);
  c = {};
  c.load_factor = -1.0;
  EXPECT_THROW(generate_workload(c), std::invalid_argument);
  c = {};
  c.zipf_alpha = -0.5;
  EXPECT_THROW(generate_workload(c), std::invalid_argument);
  c = {};
  c.min_file_bytes = 0;
  EXPECT_THROW(generate_workload(c), std::invalid_argument);
  c = {};
  c.max_file_bytes = c.min_file_bytes - 1;
  EXPECT_THROW(generate_workload(c), std::invalid_argument);
  c = {};
  c.diurnal_depth = 1.0;
  EXPECT_THROW(generate_workload(c), std::invalid_argument);
}

/// Every real-valued knob rejects NaN (which slips past `x < 0`-style
/// checks) and values outside its documented range.
TEST(Synthetic, RejectsNanAndOutOfRangeKnobs) {
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  const auto rejects = [](auto mutate) {
    SyntheticWorkloadConfig c;
    c.request_count = 10;
    mutate(c);
    EXPECT_THROW((void)generate_fileset(c), std::invalid_argument);
    EXPECT_THROW(SyntheticSource{c}, std::invalid_argument);
  };
  rejects([&](auto& c) { c.zipf_alpha = nan; });
  rejects([&](auto& c) { c.zipf_alpha = inf; });
  rejects([&](auto& c) { c.diurnal_depth = nan; });
  rejects([&](auto& c) { c.diurnal_depth = -0.1; });
  rejects([&](auto& c) { c.burstiness = nan; });
  rejects([&](auto& c) { c.size_popularity_anticorrelation = 1.5; });
  rejects([&](auto& c) { c.size_popularity_anticorrelation = -0.5; });
  rejects([&](auto& c) { c.size_popularity_anticorrelation = nan; });
  rejects([&](auto& c) { c.mean_interarrival = Seconds{nan}; });
  rejects([&](auto& c) { c.mean_interarrival = Seconds{inf}; });
  rejects([&](auto& c) { c.load_factor = nan; });
  rejects([&](auto& c) { c.load_factor = inf; });
  rejects([&](auto& c) { c.size_log_mu = nan; });
  rejects([&](auto& c) { c.size_log_sigma = nan; });
  rejects([&](auto& c) { c.size_log_sigma = -1.0; });
}

TEST(Synthetic, AcceptsRangeEndpoints) {
  SyntheticWorkloadConfig c;
  c.file_count = 50;
  c.request_count = 100;
  c.zipf_alpha = 0.0;
  c.size_log_sigma = 0.0;
  for (const double strength : {0.0, 1.0}) {
    c.size_popularity_anticorrelation = strength;
    EXPECT_EQ(generate_workload(c).trace.size(), 100u);
  }
}

SyntheticWorkloadConfig small_config() {
  SyntheticWorkloadConfig c;
  c.file_count = 500;
  c.request_count = 60'000;
  c.seed = 7;
  return c;
}

TEST(Synthetic, CountsMatchConfig) {
  const auto w = generate_workload(small_config());
  EXPECT_EQ(w.files.size(), 500u);
  EXPECT_EQ(w.trace.size(), 60'000u);
  EXPECT_TRUE(w.trace.is_sorted());
}

TEST(Synthetic, DeterministicForSeed) {
  const auto a = generate_workload(small_config());
  const auto b = generate_workload(small_config());
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); i += 997) {
    EXPECT_EQ(a.trace.requests[i], b.trace.requests[i]);
  }
  auto c_cfg = small_config();
  c_cfg.seed = 8;
  const auto c = generate_workload(c_cfg);
  EXPECT_NE(a.trace.requests[0], c.trace.requests[0]);
}

TEST(Synthetic, MeanInterarrivalMatches) {
  const auto w = generate_workload(small_config());
  const auto stats = compute_trace_stats(w.trace);
  EXPECT_NEAR(stats.mean_interarrival.value(), 0.0584, 0.0584 * 0.05);
}

TEST(Synthetic, HeavyLoadQuadruplesRate) {
  auto light = small_config();
  auto heavy = small_config();
  heavy.load_factor = 4.0;
  const auto wl = generate_workload(light);
  const auto wh = generate_workload(heavy);
  const double ratio = compute_trace_stats(wl.trace).mean_interarrival.value() /
                       compute_trace_stats(wh.trace).mean_interarrival.value();
  EXPECT_NEAR(ratio, 4.0, 0.3);
}

TEST(Synthetic, FileSizesWithinBounds) {
  const auto cfg = small_config();
  const auto fs = generate_fileset(cfg);
  for (std::size_t i = 0; i < fs.size(); ++i) {
    EXPECT_GE(fs[i].size, cfg.min_file_bytes);
    EXPECT_LE(fs[i].size, cfg.max_file_bytes);
  }
}

TEST(Synthetic, RequestSizesMatchFileSizes) {
  const auto w = generate_workload(small_config());
  for (std::size_t i = 0; i < w.trace.size(); i += 501) {
    const auto& r = w.trace.requests[i];
    EXPECT_EQ(r.size, w.files[r.file].size);
  }
}

TEST(Synthetic, PopularityAntiCorrelatesWithSize) {
  // READ's initial-placement assumption (§4 / Fig. 6 step 5).
  const auto w = generate_workload(small_config());
  const auto stats = compute_trace_stats(w.trace);
  std::vector<double> sizes;
  std::vector<double> counts;
  for (std::size_t f = 0; f < w.files.size(); ++f) {
    sizes.push_back(static_cast<double>(w.files[f].size));
    counts.push_back(static_cast<double>(stats.access_counts[f]));
  }
  EXPECT_LT(spearman_correlation(sizes, counts), -0.4);
}

TEST(Synthetic, ObservedSkewTracksZipfAlpha) {
  auto skewed = small_config();
  skewed.zipf_alpha = 1.0;
  auto flat = small_config();
  flat.zipf_alpha = 0.1;
  const double theta_skewed =
      compute_trace_stats(generate_workload(skewed).trace).theta;
  const double theta_flat =
      compute_trace_stats(generate_workload(flat).trace).theta;
  // Smaller θ = stronger skew (Lee et al. convention).
  EXPECT_LT(theta_skewed, theta_flat);
  EXPECT_GT(theta_flat, 0.7);
}

TEST(Synthetic, ZipfAlphaRecoverable) {
  auto cfg = small_config();
  cfg.request_count = 200'000;
  cfg.zipf_alpha = 0.8;
  const auto w = generate_workload(cfg);
  TraceStatsOptions opts;
  opts.zipf_fit_ranks = 100;  // fit on the head, where sampling is dense
  const auto stats = compute_trace_stats(w.trace, opts);
  EXPECT_NEAR(stats.zipf_alpha, 0.8, 0.12);
}

TEST(Synthetic, DiurnalModulationKeepsCountsAndOrder) {
  auto cfg = small_config();
  cfg.diurnal_depth = 0.7;
  const auto w = generate_workload(cfg);
  EXPECT_EQ(w.trace.size(), cfg.request_count);
  EXPECT_TRUE(w.trace.is_sorted());
}

TEST(Synthetic, IntendedRatesSumToArrivalRate) {
  const auto cfg = small_config();
  const auto fs = generate_fileset(cfg);
  double sum = 0.0;
  for (std::size_t i = 0; i < fs.size(); ++i) sum += fs[i].access_rate;
  EXPECT_NEAR(sum, cfg.load_factor / cfg.mean_interarrival.value(),
              1e-6 * sum);
}

TEST(Synthetic, PaperConfigsEncodeReportedStats) {
  const auto light = worldcup98_light_config();
  EXPECT_EQ(light.file_count, 4079u);
  EXPECT_EQ(light.request_count, 1'480'081u);
  EXPECT_NEAR(light.mean_interarrival.value(), 0.0584, 1e-9);
  EXPECT_DOUBLE_EQ(light.load_factor, 1.0);
  const auto heavy = worldcup98_heavy_config();
  EXPECT_DOUBLE_EQ(heavy.load_factor, 4.0);
}


TEST(Synthetic, BurstinessValidation) {
  auto c = small_config();
  c.burstiness = 1.0;
  EXPECT_THROW(generate_workload(c), std::invalid_argument);
  c = small_config();
  c.burstiness = -0.1;
  EXPECT_THROW(generate_workload(c), std::invalid_argument);
  c = small_config();
  c.burstiness = 0.5;
  c.burst_window = 0;
  EXPECT_THROW(generate_workload(c), std::invalid_argument);
}

TEST(Synthetic, BurstinessRaisesShortRangeRepetition) {
  // Measure the probability that a request's file re-appears within the
  // next 8 requests: temporal locality must raise it well above the
  // i.i.d. baseline.
  auto iid_cfg = small_config();
  auto bursty_cfg = small_config();
  bursty_cfg.burstiness = 0.6;
  const auto measure = [](const Trace& t) {
    std::size_t hits = 0;
    std::size_t total = 0;
    for (std::size_t i = 0; i + 8 < t.size(); ++i) {
      ++total;
      for (std::size_t j = i + 1; j <= i + 8; ++j) {
        if (t.requests[j].file == t.requests[i].file) {
          ++hits;
          break;
        }
      }
    }
    return static_cast<double>(hits) / static_cast<double>(total);
  };
  const double iid = measure(generate_workload(iid_cfg).trace);
  const double bursty = measure(generate_workload(bursty_cfg).trace);
  EXPECT_GT(bursty, iid * 1.5);
}

TEST(Synthetic, BurstinessPreservesCountsAndOrdering) {
  auto c = small_config();
  c.burstiness = 0.7;
  c.burst_window = 8;
  const auto w = generate_workload(c);
  EXPECT_EQ(w.trace.size(), c.request_count);
  EXPECT_TRUE(w.trace.is_sorted());
  // Popularity skew still present (bursts amplify, not erase, the head).
  const auto stats = compute_trace_stats(w.trace);
  EXPECT_LT(stats.theta, 0.6);
}


TEST(Synthetic, ServerWorkloadPresetsAreValidAndDistinct) {
  // §4 names four whole-file server workloads; each preset must generate
  // and carry its documented signature.
  for (auto make : {proxy_server_config, ftp_mirror_config,
                    email_server_config}) {
    auto cfg = make(11);
    cfg.request_count = 20'000;  // keep the test fast
    const auto w = generate_workload(cfg);
    EXPECT_EQ(w.trace.size(), 20'000u);
    EXPECT_TRUE(w.trace.is_sorted());
  }

  auto proxy = proxy_server_config(11);
  auto ftp = ftp_mirror_config(11);
  auto email = email_server_config(11);
  // Proxy: biggest namespace; ftp: few big files; email: weakest skew.
  EXPECT_GT(proxy.file_count, ftp.file_count);
  EXPECT_GT(email.file_count, ftp.file_count);
  EXPECT_LT(email.zipf_alpha, proxy.zipf_alpha);
  EXPECT_GT(ftp.size_log_mu, proxy.size_log_mu);
}

TEST(Synthetic, FtpMirrorHasLargeTransfers) {
  auto cfg = ftp_mirror_config(5);
  cfg.request_count = 5'000;
  const auto w = generate_workload(cfg);
  const auto stats = compute_trace_stats(w.trace);
  EXPECT_GT(stats.mean_request_bytes, 1.0 * kMiB);
}

TEST(Synthetic, EmailServerIsWeaklySkewed) {
  auto cfg = email_server_config(5);
  cfg.file_count = 5'000;
  cfg.request_count = 100'000;
  cfg.burstiness = 0.0;  // isolate the popularity skew from burstiness
  const auto w = generate_workload(cfg);
  const auto stats = compute_trace_stats(w.trace);
  auto web = worldcup98_light_config(5);
  web.file_count = 5'000;
  web.request_count = 100'000;
  const auto web_stats = compute_trace_stats(generate_workload(web).trace);
  // Larger θ = weaker skew (Lee et al. convention).
  EXPECT_GT(stats.theta, web_stats.theta);
}

}  // namespace
}  // namespace pr
