// workloads.h — the six prbench workloads. Each one builds its inputs from
// the seed in setup(), runs one timed unit of work in run(), and repeats
// that same work through the tracing decorators in traced(). Every
// simulation a run performs is checked (served + shed + lost == produced)
// and folded into an FNV-1a digest of its simulated outputs, so timing
// and traced runs can be compared for bit-identical results.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "sim/metrics.h"
#include "spans.h"

namespace prbench {

/// Simulated work a run performed, summed over its simulations.
struct SimTotals {
  std::uint64_t requests = 0;  ///< produced by the request sources
  std::uint64_t idle_checks = 0;
  std::uint64_t spin_downs = 0;
  std::uint64_t spin_ups_to_serve = 0;
  std::uint64_t transitions = 0;
  std::uint64_t epochs = 0;
  std::uint64_t migrations = 0;
  std::uint64_t reconstructed = 0;
  std::uint64_t jsonl_bytes = 0;  ///< written by JSONL observers

  void add(const pr::SimResult& result, std::uint64_t produced);
  void merge(const SimTotals& other);
};

/// A layer metric only some workloads can measure.
struct LayerMetric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  SimTotals totals;
  std::uint64_t digest = 0;
  /// Layer metrics only this workload can measure (traced runs only).
  std::vector<LayerMetric> layer;
};

struct WorkloadOptions {
  std::uint64_t seed = 42;
  /// Multiplier on request counts (--smoke runs at 1/20).
  double scale = 1.0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Worker threads one run uses.
  [[nodiscard]] virtual unsigned threads() const { return 1; }
  /// Name of the speed-up metric for multi-threaded workloads.
  [[nodiscard]] virtual const char* speedup_metric() const { return nullptr; }

  /// Generate and materialize the inputs. Called several times; each call
  /// releases the previous inputs before building new ones.
  virtual void setup() = 0;
  /// One untraced run with `threads` workers (ignored when threads() == 1).
  [[nodiscard]] virtual RunResult run(unsigned threads) = 0;
  /// The same work as run(threads()), through the tracing decorators.
  /// Root spans of the work hang off span `parent` of `root`.
  [[nodiscard]] virtual RunResult traced(Tracer& tracer, RunTrace& root,
                                         std::int32_t parent) = 0;
  /// Companion measurements taken after the traced run, outside its
  /// wall time `traced_wall_s`; they append to `traced.layer`.
  virtual void traced_extras(RunResult& traced, double traced_wall_s) {
    (void)traced;
    (void)traced_wall_s;
  }
  /// Host ns per request of a SyntheticSource with this workload's
  /// generator config, drained outside any run.
  [[nodiscard]] virtual double generate_ns_per_request() const = 0;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Throws std::invalid_argument for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(
    std::string_view name, const WorkloadOptions& options);

}  // namespace prbench
