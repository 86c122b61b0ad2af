// scenario_report.h — machine-readable export of scenario sweeps, the
// grid-level sibling of core/report_io.h: one CSV row / JSON object per
// cell, in the engine's deterministic cell order, so identical scenarios
// serialize byte-identically regardless of thread count.
#pragma once

#include <iosfwd>
#include <string>

#include "exp/scenario_engine.h"

namespace pr {

/// The fixed CSV column schema (also asserted by the scenario, fault and
/// rebuild steps of the run-experiment-smoke CI job): axes first, then
/// the headline metrics. With `with_faults` the fault-sweep columns
/// (injected rate, degradation windows, recovery times, lost/degraded
/// counts, PRESS-vs-injected agreement) are appended; with
/// `with_redundancy` the redundancy columns (reconstructions, data-loss
/// events, rebuild progress, MTTDL agreement) follow after those; with
/// `with_control` the control columns (update/shed counts, knob
/// actuations) come last — strictly append-only, so fault-free scenarios
/// keep the narrow schema byte-for-byte.
[[nodiscard]] std::string scenario_csv_header(bool with_faults = false,
                                              bool with_redundancy = false,
                                              bool with_control = false);

/// One row per cell, schema above (widened when result.faulted), full
/// double precision.
void write_scenario_csv(const ScenarioResult& result, std::ostream& out);
void write_scenario_csv_file(const ScenarioResult& result,
                             const std::string& path);

/// JSON object {scenario, cells: [...]}; with `include_reports` each cell
/// embeds the full per-disk SystemReport (core/report_io.h), otherwise
/// just the headline metrics.
void write_scenario_json(const ScenarioResult& result, std::ostream& out,
                         bool include_reports = false);
void write_scenario_json_file(const ScenarioResult& result,
                              const std::string& path,
                              bool include_reports = false);
[[nodiscard]] std::string to_json(const ScenarioResult& result,
                                  bool include_reports = false);

}  // namespace pr
