// table_workload_stats — regenerates §5.1's in-text workload
// characterisation and validates the synthetic substitution against it:
// the paper reports the WorldCup98-05-09 day as 4,079 files, 1,480,081
// requests, 58.4 ms mean inter-arrival. The generator must reproduce
// those numbers (the first two by construction, the third statistically)
// plus the structural properties the policies rely on (Zipf-like skew,
// size/popularity anti-correlation).
#include <iostream>

#include "bench_common.h"
#include "trace/trace_stats.h"
#include "util/stats.h"
#include "util/table.h"
#include "workload/synthetic.h"

int main() {
  using namespace pr;
  const auto cfg = worldcup98_light_config(42);
  const auto w = generate_workload(cfg);
  const auto stats = compute_trace_stats(w.trace);

  // Size/popularity rank correlation (Fig. 6 step 5's assumption).
  std::vector<double> sizes;
  std::vector<double> counts;
  for (std::size_t f = 0; f < w.files.size(); ++f) {
    sizes.push_back(static_cast<double>(w.files[f].size));
    counts.push_back(static_cast<double>(stats.access_counts[f]));
  }
  const double rank_corr = spearman_correlation(sizes, counts);

  bench::CsvSink csv("table_workload_stats");
  csv.row(std::string("statistic"), std::string("paper"),
          std::string("measured"));

  AsciiTable table(
      "§5.1 workload characterisation — paper's WorldCup98-05-09 day vs "
      "the synthetic substitute (see DESIGN.md, Substitutions)");
  table.set_header({"statistic", "paper reports", "synthetic trace"});
  table.add_row({"distinct files", "4,079", std::to_string(stats.file_count)});
  table.add_row({"requests", "1,480,081",
                 std::to_string(stats.request_count)});
  table.add_row({"mean inter-arrival", "58.4 ms",
                 num(stats.mean_interarrival.value() * 1e3, 1) + " ms"});
  table.add_row({"duration", "~1 day (implied)",
                 num(stats.duration.value() / 3600.0, 1) + " h"});
  table.add_separator();
  table.add_row({"Zipf-like popularity, alpha in [0,1] (paper S4)",
                 "assumed", num(stats.zipf_alpha, 2) + " (fitted)"});
  table.add_row({"skew theta (Lee et al. [20])", "workload-dependent",
                 num(stats.theta, 3)});
  table.add_row({"top-20%-of-files access share", "highly skewed",
                 pct(stats.top_fraction_accesses, 1)});
  table.add_row({"size vs popularity rank correlation (paper S4)",
                 "inverse", num(rank_corr, 2)});
  table.add_row({"mean request size", "(not reported)",
                 num(stats.mean_request_bytes / 1024.0, 1) + " KiB"});
  table.print(std::cout);

  csv.row(std::string("files"), 4079.0,
          static_cast<double>(stats.file_count));
  csv.row(std::string("requests"), 1480081.0,
          static_cast<double>(stats.request_count));
  csv.row(std::string("mean_interarrival_ms"), 58.4,
          stats.mean_interarrival.value() * 1e3);
  csv.row(std::string("zipf_alpha"), 0.8, stats.zipf_alpha);
  csv.row(std::string("theta"), 0.0, stats.theta);
  csv.row(std::string("size_pop_rank_corr"), -1.0, rank_corr);

  std::cout << "\nThese statistics are what the policies actually consume "
               "(arrival rate, skew, sizes); matching them is the "
               "substitution argument for the unavailable real trace.\n";
  return 0;
}
