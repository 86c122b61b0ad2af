// synthetic.h — WC98-like synthetic workload generator.
//
// The paper evaluates on one day of the WorldCup98 trace: 4,079 files,
// 1,480,081 requests, mean inter-arrival 58.4 ms (§5.1). The raw trace is
// not redistributable offline, so this generator synthesises a request
// stream matched to those first-order statistics (see DESIGN.md
// "Substitutions"):
//   * Poisson arrivals at the paper's mean rate, with optional diurnal
//     modulation (web traffic is strongly diurnal);
//   * Zipf(α) popularity over m files (α defaults to 0.8, typical for web
//     server traces [6][11]);
//   * web-like file sizes (bounded log-normal), with popularity inversely
//     correlated to size — the assumption READ's initial placement relies
//     on (Fig. 6 step 5);
//   * whole-file read requests.
// Everything is deterministic given the seed.
#pragma once

#include <cstdint>
#include <vector>

#include "trace/request.h"
#include "trace/request_source.h"
#include "util/rng.h"
#include "workload/fileset.h"
#include "workload/zipf.h"

namespace pr {

struct SyntheticWorkloadConfig {
  /// Number of distinct files (paper: 4,079).
  std::size_t file_count = 4079;
  /// Number of requests (paper: 1,480,081). Scale down for unit tests.
  std::size_t request_count = 1'480'081;
  /// Mean inter-arrival time (paper: 58.4 ms). The paper's "heavy
  /// workload" condition is modelled by dividing this (see load_factor).
  Seconds mean_interarrival{58.4e-3};
  /// Arrival-rate multiplier: 1.0 = the paper's light/base load; 4.0 =
  /// heavy (4× the request rate over the same number of requests).
  double load_factor = 1.0;
  /// Zipf popularity exponent α ∈ [0, 1] (paper §4).
  double zipf_alpha = 0.8;
  /// Log-normal body of the size distribution (of the underlying normal).
  /// Defaults give a median ≈ 5 KiB and mean ≈ 15 KiB, typical of 1998 web
  /// objects and of the paper's remark that web files are far smaller than
  /// a 512 KB stripe unit.
  double size_log_mu = 8.5;     // exp(8.5) ≈ 4.9 KiB
  double size_log_sigma = 1.5;
  Bytes min_file_bytes = 64;
  Bytes max_file_bytes = 2 * kMiB;
  /// Strength of the size/popularity anti-correlation in [0, 1]:
  /// 1 = smallest file is most popular (exact inverse ordering),
  /// 0 = no correlation. Implemented as a partial shuffle.
  double size_popularity_anticorrelation = 0.8;
  /// Optional diurnal modulation depth in [0, 1): the instantaneous
  /// arrival rate swings ±depth around the mean over a 24 h period.
  double diurnal_depth = 0.0;
  /// Temporal locality in [0, 1): with this probability a request repeats
  /// one of the most recently accessed files instead of drawing a fresh
  /// Zipf sample. Real web traffic is strongly bursty per object (flash
  /// popularity); 0 disables (pure i.i.d. Zipf, the paper's §4 model).
  double burstiness = 0.0;
  /// Size of the recent-file window burstiness draws from.
  std::size_t burst_window = 16;
  /// RNG seed; every stream derived deterministically from it.
  std::uint64_t seed = 42;
};

struct SyntheticWorkload {
  FileSet files;  // ground-truth sizes and intended rates
  Trace trace;
};

/// Generate the file universe only (sizes + intended access rates).
[[nodiscard]] FileSet generate_fileset(const SyntheticWorkloadConfig& config);

/// Generate file universe and request trace.
[[nodiscard]] SyntheticWorkload generate_workload(
    const SyntheticWorkloadConfig& config);

/// RequestSource over the synthetic model: requests are synthesised one at
/// a time on pull, never materialized. Draining it yields exactly the
/// trace generate_workload(config) builds (generate_workload is
/// implemented on top of this class), so streaming and batch runs of the
/// same config are byte-identical. The file universe is still generated
/// eagerly at construction — it is O(file_count), not O(request_count).
class SyntheticSource final : public RequestSource {
 public:
  explicit SyntheticSource(const SyntheticWorkloadConfig& config);

  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] bool streaming() const override { return true; }

  /// Ground-truth file universe (sizes + intended access rates).
  [[nodiscard]] const FileSet& files() const { return files_; }
  [[nodiscard]] const SyntheticWorkloadConfig& config() const {
    return config_;
  }

 protected:
  bool poll(Request& out) override;

 private:
  SyntheticWorkloadConfig config_;
  FileSet files_;
  Rng rng_;
  ZipfDistribution zipf_;
  double base_mean_;
  std::vector<FileId> recent_;  // temporal-locality ring buffer
  std::size_t recent_cursor_ = 0;
  double t_ = 0.0;
  std::size_t emitted_ = 0;
};

/// The paper's two evaluation conditions (§5.2): base/light and heavy.
[[nodiscard]] SyntheticWorkloadConfig worldcup98_light_config(
    std::uint64_t seed = 42);
[[nodiscard]] SyntheticWorkloadConfig worldcup98_heavy_config(
    std::uint64_t seed = 42);
/// A quiet day: the light day's files and mix at a 0.7 s mean
/// inter-arrival (120,000 requests ≈ one day), the regime where idle
/// windows open, DPM actually cycles and READ's budget S binds.
[[nodiscard]] SyntheticWorkloadConfig worldcup98_quiet_config(
    std::uint64_t seed = 42);

/// The other whole-file server workloads §4 names. Same model, different
/// knobs (documented in synthetic.cpp): a forward proxy (huge cold file
/// population, bursty), an ftp mirror (few large files, mild skew), and
/// an email server (small messages, weak skew, write-heavy days modelled
/// as reads of freshly-appended files).
[[nodiscard]] SyntheticWorkloadConfig proxy_server_config(
    std::uint64_t seed = 42);
[[nodiscard]] SyntheticWorkloadConfig ftp_mirror_config(
    std::uint64_t seed = 42);
[[nodiscard]] SyntheticWorkloadConfig email_server_config(
    std::uint64_t seed = 42);
/// A media server (video clips, office documents): 400 files of
/// 256 KiB–64 MiB, where RAID-0 striping pays off (paper §6).
[[nodiscard]] SyntheticWorkloadConfig media_server_config(
    std::uint64_t seed = 42);

}  // namespace pr
