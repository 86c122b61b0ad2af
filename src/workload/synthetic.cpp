#include "workload/synthetic.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <numeric>
#include <stdexcept>

#include "workload/zipf.h"

namespace pr {

namespace {

// Range checks are written !(lo <= x && x <= hi) so that NaN, which
// compares false with everything, is rejected rather than let through.
void validate(const SyntheticWorkloadConfig& c) {
  constexpr double kMax = std::numeric_limits<double>::max();
  if (c.file_count == 0) {
    throw std::invalid_argument("synthetic: file_count == 0");
  }
  const double mean = c.mean_interarrival.value();
  if (!(0.0 < mean && mean <= kMax)) {
    throw std::invalid_argument("synthetic: mean_interarrival outside (0,inf)");
  }
  if (!(0.0 < c.load_factor && c.load_factor <= kMax)) {
    throw std::invalid_argument("synthetic: load_factor outside (0,inf)");
  }
  if (!(0.0 <= c.zipf_alpha && c.zipf_alpha <= kMax)) {
    throw std::invalid_argument("synthetic: zipf_alpha outside [0,inf)");
  }
  if (!(-kMax <= c.size_log_mu && c.size_log_mu <= kMax)) {
    throw std::invalid_argument("synthetic: size_log_mu not finite");
  }
  if (!(0.0 <= c.size_log_sigma && c.size_log_sigma <= kMax)) {
    throw std::invalid_argument("synthetic: size_log_sigma outside [0,inf)");
  }
  if (c.min_file_bytes == 0 || c.max_file_bytes < c.min_file_bytes) {
    throw std::invalid_argument("synthetic: bad size bounds");
  }
  if (!(0.0 <= c.size_popularity_anticorrelation &&
        c.size_popularity_anticorrelation <= 1.0)) {
    throw std::invalid_argument(
        "synthetic: size_popularity_anticorrelation outside [0,1]");
  }
  if (!(0.0 <= c.diurnal_depth && c.diurnal_depth < 1.0)) {
    throw std::invalid_argument("synthetic: diurnal_depth outside [0,1)");
  }
  if (!(0.0 <= c.burstiness && c.burstiness < 1.0)) {
    throw std::invalid_argument("synthetic: burstiness outside [0,1)");
  }
  if (c.burstiness > 0.0 && c.burst_window == 0) {
    throw std::invalid_argument("synthetic: burst_window == 0");
  }
}

/// Sizes sorted ascending, then partially de-sorted so that popularity
/// rank -> size keeps roughly the requested anti-correlation.
std::vector<Bytes> make_sizes_for_ranks(const SyntheticWorkloadConfig& c,
                                        Rng& rng) {
  std::vector<Bytes> sizes(c.file_count);
  for (auto& s : sizes) {
    const double raw = rng.lognormal(c.size_log_mu, c.size_log_sigma);
    const auto clamped = std::clamp(
        raw, static_cast<double>(c.min_file_bytes),
        static_cast<double>(c.max_file_bytes));
    s = static_cast<Bytes>(clamped);
  }
  // rank 0 (most popular) gets the smallest size...
  std::sort(sizes.begin(), sizes.end());
  // ...then weaken the correlation by swapping each position with a
  // random partner with probability (1 - strength).
  const double noise = 1.0 - c.size_popularity_anticorrelation;
  if (noise > 0.0) {
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      if (rng.uniform() < noise) {
        const std::size_t j = rng.uniform_index(sizes.size());
        std::swap(sizes[i], sizes[j]);
      }
    }
  }
  return sizes;
}

}  // namespace

FileSet generate_fileset(const SyntheticWorkloadConfig& config) {
  validate(config);
  Rng rng(config.seed);
  const auto sizes = make_sizes_for_ranks(config, rng);

  const double rate_total =
      config.load_factor / config.mean_interarrival.value();
  ZipfDistribution zipf(config.file_count, config.zipf_alpha);

  std::vector<FileInfo> files(config.file_count);
  for (std::size_t rank = 0; rank < config.file_count; ++rank) {
    // Popularity rank r maps directly to file id r: the *id* ordering
    // carries no meaning to the policies, which consult sizes/rates.
    FileInfo f;
    f.id = static_cast<FileId>(rank);
    f.size = sizes[rank];
    f.access_rate = rate_total * zipf.pmf(rank);
    files[rank] = f;
  }
  return FileSet(std::move(files));
}

SyntheticSource::SyntheticSource(const SyntheticWorkloadConfig& config)
    : config_(config),
      files_(generate_fileset(config)),  // validates config
      rng_(config.seed ^ 0xD1F7C0DEULL),  // independent arrival stream
      zipf_(config.file_count, config.zipf_alpha),
      base_mean_(config.mean_interarrival.value() / config.load_factor) {
  recent_.reserve(config_.burst_window);
}

std::string SyntheticSource::describe() const {
  return "synthetic[" + std::to_string(config_.request_count) + "]";
}

bool SyntheticSource::poll(Request& out) {
  if (emitted_ >= config_.request_count) return false;
  ++emitted_;

  double mean = base_mean_;
  if (config_.diurnal_depth > 0.0) {
    // Rate modulation lambda(t) = base * (1 + depth*sin(2πt/86400));
    // inter-arrival mean is its reciprocal at the current time (thinning
    // would be exact; this local approximation is fine at depth < 1 and
    // keeps generation single-pass).
    const double phase = 2.0 * std::numbers::pi * t_ / 86'400.0;
    mean = base_mean_ / (1.0 + config_.diurnal_depth * std::sin(phase));
  }
  t_ += rng_.exponential(mean);

  Request r;
  r.arrival = Seconds{t_};
  if (config_.burstiness > 0.0 && !recent_.empty() &&
      rng_.bernoulli(config_.burstiness)) {
    r.file = recent_[rng_.uniform_index(recent_.size())];
  } else {
    r.file = static_cast<FileId>(zipf_.sample(rng_));
  }
  if (config_.burstiness > 0.0) {
    if (recent_.size() < config_.burst_window) {
      recent_.push_back(r.file);
    } else {
      recent_[recent_cursor_] = r.file;
      recent_cursor_ = (recent_cursor_ + 1) % config_.burst_window;
    }
  }
  r.size = files_[r.file].size;
  r.kind = RequestKind::kRead;
  out = r;
  return true;
}

SyntheticWorkload generate_workload(const SyntheticWorkloadConfig& config) {
  SyntheticSource source(config);
  SyntheticWorkload w;
  w.files = source.files();
  w.trace.requests.reserve(config.request_count);
  Request r;
  while (source.next(r)) w.trace.requests.push_back(r);
  return w;
}

SyntheticWorkloadConfig worldcup98_light_config(std::uint64_t seed) {
  SyntheticWorkloadConfig c;
  c.seed = seed;
  // Defaults already encode the paper's reported statistics; the real WC98
  // logs are strongly diurnal (the tournament's match schedule), which is
  // what gives idleness-threshold DPM its quiet windows.
  c.diurnal_depth = 0.6;
  return c;
}

SyntheticWorkloadConfig worldcup98_heavy_config(std::uint64_t seed) {
  SyntheticWorkloadConfig c = worldcup98_light_config(seed);
  c.load_factor = 4.0;  // 4× the request rate = paper's "heavy" condition
  return c;
}

SyntheticWorkloadConfig worldcup98_quiet_config(std::uint64_t seed) {
  SyntheticWorkloadConfig c = worldcup98_light_config(seed);
  c.mean_interarrival = Seconds{0.7};
  c.request_count = 120'000;  // ≈ one day at the reduced rate
  return c;
}

SyntheticWorkloadConfig proxy_server_config(std::uint64_t seed) {
  // Forward proxy: an order of magnitude more distinct objects with a
  // long cold tail, strong temporal locality (flash crowds), mild mean
  // rate. Classic proxy-trace characteristics ([6][11]).
  SyntheticWorkloadConfig c;
  c.seed = seed;
  c.file_count = 40'000;
  c.request_count = 1'000'000;
  c.mean_interarrival = Seconds{0.086};  // ~1 day
  c.zipf_alpha = 0.7;
  c.size_log_mu = 8.8;
  c.size_log_sigma = 1.8;  // heavier size tail than origin servers
  c.max_file_bytes = 8 * kMiB;
  c.diurnal_depth = 0.6;
  c.burstiness = 0.35;
  return c;
}

SyntheticWorkloadConfig ftp_mirror_config(std::uint64_t seed) {
  // FTP mirror: few, large files (distribution tarballs/ISOs), mild
  // popularity skew, low request rate — transfer time dominates.
  SyntheticWorkloadConfig c;
  c.seed = seed;
  c.file_count = 800;
  c.request_count = 40'000;
  c.mean_interarrival = Seconds{2.16};  // ~1 day
  c.zipf_alpha = 0.5;
  c.size_log_mu = 14.5;  // median ≈ 2 MiB
  c.size_log_sigma = 1.6;
  c.min_file_bytes = 64 * kKiB;
  c.max_file_bytes = 256 * kMiB;
  c.size_popularity_anticorrelation = 0.3;  // big ISOs are popular too
  c.diurnal_depth = 0.4;
  return c;
}

SyntheticWorkloadConfig email_server_config(std::uint64_t seed) {
  // Email server: many small message files, weak skew (everyone reads
  // their own mail), strong diurnality (office hours), high burstiness
  // (mailbox scans touch runs of messages).
  SyntheticWorkloadConfig c;
  c.seed = seed;
  c.file_count = 100'000;
  c.request_count = 600'000;
  c.mean_interarrival = Seconds{0.144};  // ~1 day
  c.zipf_alpha = 0.3;
  c.size_log_mu = 8.9;  // median ≈ 7 KiB
  c.size_log_sigma = 1.0;
  c.max_file_bytes = 512 * kKiB;
  c.size_popularity_anticorrelation = 0.1;
  c.diurnal_depth = 0.8;
  c.burstiness = 0.5;
  return c;
}

SyntheticWorkloadConfig media_server_config(std::uint64_t seed) {
  // Media server: few large transfers at a modest rate; video-clip-sized
  // bodies (median ≈ 4 MiB, capped at 64 MiB), far above a 512 KiB stripe
  // unit.
  SyntheticWorkloadConfig c;
  c.seed = seed;
  c.file_count = 400;
  c.request_count = 60'000;
  c.mean_interarrival = Seconds{1.0};
  c.zipf_alpha = 0.8;
  c.size_log_mu = 15.2;
  c.size_log_sigma = 1.0;
  c.min_file_bytes = 256 * kKiB;
  c.max_file_bytes = 64 * kMiB;
  return c;
}

}  // namespace pr
