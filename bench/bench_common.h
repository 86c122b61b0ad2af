// bench_common.h — shared plumbing for the figure/table harnesses: every
// bench prints the rows the paper's figure plots (ASCII table) and also
// drops a CSV under results/ so the data can be re-plotted externally.
//
// Every bench runs the paper-scale workload, each in about a second
// (Release, 4 vCPU). PR_RESULTS_DIR=dir overrides the CSV output
// directory (default ./results relative to the current directory).
#pragma once

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "util/csv.h"
#include "util/table.h"

namespace pr::bench {

inline std::filesystem::path results_dir() {
  const char* v = std::getenv("PR_RESULTS_DIR");
  std::filesystem::path dir = v ? v : "results";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);  // best effort
  return dir;
}

/// RAII CSV sink under results/<name>.csv; silently becomes a no-op when
/// the directory is not writable (benches must still print).
class CsvSink {
 public:
  explicit CsvSink(const std::string& name)
      : out_(results_dir() / (name + ".csv")), writer_(out_) {
    if (!out_) {
      std::cerr << "note: cannot write " << name << ".csv; printing only\n";
    }
  }

  template <typename... Ts>
  void row(const Ts&... vals) {
    if (out_) writer_.row(vals...);
  }

 private:
  std::ofstream out_;
  CsvWriter writer_;
};

}  // namespace pr::bench
