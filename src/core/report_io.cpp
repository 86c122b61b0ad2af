#include "core/report_io.h"

#include <fstream>
#include <iomanip>
#include <locale>
#include <sstream>

#include "util/classic_locale.h"
#include "util/fmt.h"

namespace pr {

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 8);
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          std::ostringstream hex;
          hex.imbue(std::locale::classic());
          hex << "\\u" << std::hex << std::setw(4) << std::setfill('0')
              << static_cast<int>(static_cast<unsigned char>(c));
          out += hex.str();
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

namespace {

class JsonWriter {
 public:
  // Floating values go through util/fmt.h (std::to_chars, precision 17):
  // same bytes as the precision(17) ostream formatting this replaced, but
  // immune to whatever global locale the host process installed. The
  // classic locale keeps the integer fields free of grouping separators
  // while the writer lives; its end hands the caller's locale back.
  explicit JsonWriter(std::ostream& out) : out_(out), classic_(out) {}

  void key(const std::string& name) {
    comma();
    out_ << '"' << json_escape(name) << "\":";
    pending_comma_ = false;
  }
  void value(double v) { scalar() << format_double(v, 17); }
  void value(std::uint64_t v) { scalar() << v; }
  void value(const std::string& v) {
    scalar() << '"' << json_escape(v) << '"';
  }
  void open_object() { open('{'); }
  void close_object() { close('}'); }
  void open_array() { open('['); }
  void close_array() { close(']'); }

 private:
  std::ostream& scalar() {
    comma();
    pending_comma_ = true;
    return out_;
  }
  void open(char c) {
    comma();
    out_ << c;
    pending_comma_ = false;
  }
  void close(char c) {
    out_ << c;
    pending_comma_ = true;
  }
  void comma() {
    if (pending_comma_) out_ << ',';
  }

  std::ostream& out_;
  ClassicLocaleScope classic_;
  bool pending_comma_ = false;
};

}  // namespace

void write_json(const SystemReport& report, std::ostream& out) {
  JsonWriter w(out);
  const SimResult& sim = report.sim;
  w.open_object();
  w.key("policy");
  w.value(sim.policy_name);
  w.key("requests");
  w.value(static_cast<std::uint64_t>(sim.user_requests));
  w.key("mean_response_time_s");
  w.value(sim.mean_response_time_s());
  w.key("p95_response_time_s");
  w.value(sim.response_time_sample.quantile(0.95));
  w.key("p99_response_time_s");
  w.value(sim.response_time_sample.quantile(0.99));
  w.key("energy_joules");
  w.value(sim.energy_joules());
  w.key("horizon_s");
  w.value(sim.horizon.value());
  w.key("total_transitions");
  w.value(sim.total_transitions);
  w.key("max_transitions_per_day");
  w.value(sim.max_transitions_per_day);
  w.key("migrations");
  w.value(sim.migrations);
  w.key("migration_bytes");
  w.value(static_cast<std::uint64_t>(sim.migration_bytes));
  w.key("array_afr");
  w.value(report.array_afr);
  w.key("worst_disk");
  w.value(static_cast<std::uint64_t>(report.worst_disk));

  w.key("counters");
  w.open_object();
  for (const auto& [name, count] : sim.counters) {
    w.key(name);
    w.value(count);
  }
  w.close_object();

  w.key("disks");
  w.open_array();
  for (std::size_t d = 0; d < sim.telemetry.size(); ++d) {
    const auto& t = sim.telemetry[d];
    const auto& l = sim.ledgers[d];
    w.open_object();
    w.key("disk");
    w.value(static_cast<std::uint64_t>(t.disk));
    w.key("temperature_c");
    w.value(t.temperature.value());
    w.key("utilization");
    w.value(t.utilization);
    w.key("transitions_per_day");
    w.value(t.transitions_per_day);
    w.key("busy_s");
    w.value(l.busy_time.value());
    w.key("idle_s");
    w.value(l.idle_time.value());
    w.key("transition_s");
    w.value(l.transition_time.value());
    w.key("energy_joules");
    w.value(l.energy.value());
    w.key("requests");
    w.value(l.requests);
    w.key("internal_ops");
    w.value(l.internal_ops);
    if (d < report.disk_press.size()) {
      const auto& b = report.disk_press[d];
      w.key("afr");
      w.open_object();
      w.key("temperature");
      w.value(b.temperature_afr);
      w.key("utilization");
      w.value(b.utilization_afr);
      w.key("frequency");
      w.value(b.frequency_afr);
      w.key("combined");
      w.value(b.combined_afr);
      w.close_object();
    }
    w.close_object();
  }
  w.close_array();
  w.close_object();
  out << "\n";
}

std::string to_json(const SystemReport& report) {
  std::ostringstream out;
  write_json(report, out);
  return out.str();
}

void write_json_file(const SystemReport& report, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("write_json_file: cannot open " + path);
  write_json(report, out);
  if (!out) throw std::runtime_error("write_json_file: write failed " + path);
}

}  // namespace pr
