#include "exp/scenario_report.h"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/report_io.h"
#include "util/classic_locale.h"
#include "util/csv.h"
#include "util/fmt.h"

namespace pr {

namespace {

/// Full-precision decimal text (CsvWriter's default formatting rounds to
/// 6 significant digits; metric comparisons need all of them). Routed
/// through the locale-independent util formatter so a host application's
/// global locale can never change the CSV bytes.
std::string full(double v) { return format_double(v, 17); }

}  // namespace

std::string scenario_csv_header(bool with_faults, bool with_redundancy,
                                bool with_control) {
  std::string header =
      "scenario,policy,workload,load,seed,epoch_s,disks,array_afr,"
      "energy_j,mean_rt_ms,p95_rt_ms,total_transitions,"
      "max_transitions_per_day,migrations,migration_mb";
  if (with_faults) {
    header +=
        ",fault_rate_scale,fault_injected_afr,fault_failures,fault_lost,"
        "fault_degraded,fault_downtime_s,fault_degraded_window_s,"
        "fault_mean_recovery_s,fault_observed_afr,press_over_injected,"
        "press_over_observed";
  }
  if (with_redundancy) {
    header +=
        ",redundancy_scheme,reconstructed,data_loss_events,rebuilds_started,"
        "rebuilds_completed,mean_rebuild_s,mttdl_hours,"
        "predicted_losses_per_year,observed_losses_per_year,"
        "loss_over_predicted";
  }
  if (with_control) {
    header +=
        ",control_updates,control_shed,control_h_scaled,control_hot_grows,"
        "control_hot_shrinks,control_epoch_scaled";
  }
  return header;
}

void write_scenario_csv(const ScenarioResult& result, std::ostream& out) {
  out << scenario_csv_header(result.faulted, result.redundant,
                             result.controlled)
      << "\n";
  CsvWriter writer(out);
  for (const ScenarioCell& c : result.cells) {
    const SimResult& sim = c.report.sim;
    std::vector<std::string> fields = {
        result.scenario,
        c.policy,
        c.workload,
        full(c.load),
        std::to_string(c.seed),
        full(c.epoch_s),
        std::to_string(c.disks),
        full(c.report.array_afr),
        full(sim.energy_joules()),
        full(sim.mean_response_time_s() * 1e3),
        full(sim.response_time_sample.quantile(0.95) * 1e3),
        std::to_string(sim.total_transitions),
        full(sim.max_transitions_per_day),
        std::to_string(sim.migrations),
        full(static_cast<double>(sim.migration_bytes) / 1e6)};
    if (result.faulted) {
      // value_or keeps the schema fixed even if a cell somehow lacks the
      // fault payload (all-zero metrics, same as a rate_scale-0 cell).
      const ScenarioFaultCell f = c.fault.value_or(ScenarioFaultCell{});
      fields.insert(fields.end(),
                    {full(f.rate_scale), full(f.injected_afr),
                     std::to_string(f.failures), std::to_string(f.lost_requests),
                     std::to_string(f.degraded_requests), full(f.downtime_s),
                     full(f.degraded_window_s), full(f.mean_recovery_s),
                     full(f.observed_afr), full(f.press_over_injected),
                     full(f.press_over_observed)});
    }
    if (result.redundant) {
      const ScenarioRedundancyCell r =
          c.redundancy.value_or(ScenarioRedundancyCell{});
      fields.insert(fields.end(),
                    {r.scheme, std::to_string(r.reconstructed_requests),
                     std::to_string(r.data_loss_events),
                     std::to_string(r.rebuilds_started),
                     std::to_string(r.rebuilds_completed),
                     full(r.mean_rebuild_s), full(r.predicted_mttdl_hours),
                     full(r.predicted_losses_per_year),
                     full(r.observed_losses_per_year),
                     full(r.observed_over_predicted)});
    }
    if (result.controlled) {
      const ScenarioControlCell k = c.control.value_or(ScenarioControlCell{});
      fields.insert(fields.end(),
                    {std::to_string(k.updates), std::to_string(k.shed_requests),
                     std::to_string(k.h_scaled), std::to_string(k.hot_grows),
                     std::to_string(k.hot_shrinks),
                     std::to_string(k.epoch_scaled)});
    }
    writer.write_row(fields);
  }
}

void write_scenario_csv_file(const ScenarioResult& result,
                             const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw std::runtime_error("write_scenario_csv_file: cannot open " + path);
  }
  write_scenario_csv(result, out);
  if (!out) {
    throw std::runtime_error("write_scenario_csv_file: write failed " + path);
  }
}

void write_scenario_json(const ScenarioResult& result, std::ostream& out,
                         bool include_reports) {
  // Floats are pre-formatted by full(); the classic locale keeps the
  // integer fields free of grouping separators under any global locale.
  const ClassicLocaleScope classic(out);
  out << "{\"scenario\":\"" << json_escape(result.scenario)
      << "\",\"cells\":[";
  bool first = true;
  for (const ScenarioCell& c : result.cells) {
    if (!first) out << ",";
    first = false;
    const SimResult& sim = c.report.sim;
    out << "{\"policy\":\"" << json_escape(c.policy) << "\",\"workload\":\""
        << json_escape(c.workload) << "\",\"load\":" << full(c.load)
        << ",\"seed\":" << c.seed << ",\"epoch_s\":" << full(c.epoch_s)
        << ",\"disks\":" << c.disks
        << ",\"array_afr\":" << full(c.report.array_afr)
        << ",\"energy_joules\":" << full(sim.energy_joules())
        << ",\"mean_response_time_s\":" << full(sim.mean_response_time_s())
        << ",\"total_transitions\":" << sim.total_transitions
        << ",\"max_transitions_per_day\":" << full(sim.max_transitions_per_day)
        << ",\"migrations\":" << sim.migrations;
    if (c.fault) {
      const ScenarioFaultCell& f = *c.fault;
      out << ",\"fault\":{\"rate_scale\":" << full(f.rate_scale)
          << ",\"injected_afr\":" << full(f.injected_afr)
          << ",\"failures\":" << f.failures << ",\"lost\":" << f.lost_requests
          << ",\"degraded\":" << f.degraded_requests
          << ",\"downtime_s\":" << full(f.downtime_s)
          << ",\"degraded_window_s\":" << full(f.degraded_window_s)
          << ",\"mean_recovery_s\":" << full(f.mean_recovery_s)
          << ",\"observed_afr\":" << full(f.observed_afr)
          << ",\"press_over_injected\":" << full(f.press_over_injected)
          << ",\"press_over_observed\":" << full(f.press_over_observed) << "}";
    }
    if (c.redundancy) {
      const ScenarioRedundancyCell& r = *c.redundancy;
      out << ",\"redundancy\":{\"scheme\":\"" << json_escape(r.scheme)
          << "\",\"reconstructed\":" << r.reconstructed_requests
          << ",\"data_loss_events\":" << r.data_loss_events
          << ",\"rebuilds_started\":" << r.rebuilds_started
          << ",\"rebuilds_completed\":" << r.rebuilds_completed
          << ",\"mean_rebuild_s\":" << full(r.mean_rebuild_s)
          << ",\"mttdl_hours\":" << full(r.predicted_mttdl_hours)
          << ",\"predicted_losses_per_year\":"
          << full(r.predicted_losses_per_year)
          << ",\"observed_losses_per_year\":"
          << full(r.observed_losses_per_year)
          << ",\"loss_over_predicted\":" << full(r.observed_over_predicted)
          << "}";
    }
    if (c.control) {
      const ScenarioControlCell& k = *c.control;
      out << ",\"control\":{\"updates\":" << k.updates
          << ",\"shed\":" << k.shed_requests << ",\"h_scaled\":" << k.h_scaled
          << ",\"hot_grows\":" << k.hot_grows
          << ",\"hot_shrinks\":" << k.hot_shrinks
          << ",\"epoch_scaled\":" << k.epoch_scaled << "}";
    }
    if (include_reports) {
      // pr::to_json emits a complete JSON object (plus a trailing
      // newline, stripped here) — splice it in verbatim.
      std::string report = pr::to_json(c.report);
      while (!report.empty() && report.back() == '\n') report.pop_back();
      out << ",\"report\":" << report;
    }
    out << "}";
  }
  out << "]}\n";
}

void write_scenario_json_file(const ScenarioResult& result,
                              const std::string& path, bool include_reports) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw std::runtime_error("write_scenario_json_file: cannot open " + path);
  }
  write_scenario_json(result, out, include_reports);
  if (!out) {
    throw std::runtime_error("write_scenario_json_file: write failed " + path);
  }
}

std::string to_json(const ScenarioResult& result, bool include_reports) {
  std::ostringstream out;
  write_scenario_json(result, out, include_reports);
  return out.str();
}

}  // namespace pr
