#include "exp/scenario.h"

#include <array>
#include <charconv>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "control/control_loop.h"
#include "core/registry.h"
#include "redundancy/scheme.h"
#include "sim/fleet_sim.h"
#include "trace/trace_reader.h"
#include "util/parse.h"

namespace pr {

namespace {

[[noreturn]] void fail_at(std::string_view source, std::size_t line,
                          const std::string& message) {
  std::ostringstream out;
  out << source << ":" << line << ": " << message;
  throw std::invalid_argument(out.str());
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' ||
                        s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

/// Strip comments: a whole-line '#'/';' or one introduced by whitespace
/// ("disks = 8   # six to sixteen").
std::string_view strip_comment(std::string_view s) {
  if (!s.empty() && (s.front() == '#' || s.front() == ';')) return {};
  for (std::size_t i = 1; i < s.size(); ++i) {
    if ((s[i] == '#' || s[i] == ';') &&
        (s[i - 1] == ' ' || s[i - 1] == '\t')) {
      return s.substr(0, i);
    }
  }
  return s;
}

std::vector<std::string> split_list(std::string_view value) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= value.size()) {
    std::size_t comma = value.find(',', start);
    if (comma == std::string_view::npos) comma = value.size();
    const std::string_view item = trim(value.substr(start, comma - start));
    out.emplace_back(item);
    start = comma + 1;
  }
  return out;
}

struct LineContext {
  std::string_view source;
  std::size_t line = 0;
};

std::vector<double> parse_double_list(std::string_view value,
                                      std::string_view key,
                                      const LineContext& at) {
  std::vector<double> out;
  for (const std::string& item : split_list(value)) {
    if (item.empty()) fail_at(at.source, at.line, "empty item in list");
    out.push_back(parse_double(item, key));
  }
  return out;
}

std::vector<std::uint64_t> parse_u64_list(std::string_view value,
                                          std::string_view key,
                                          const LineContext& at) {
  std::vector<std::uint64_t> out;
  for (const std::string& item : split_list(value)) {
    if (item.empty()) fail_at(at.source, at.line, "empty item in list");
    out.push_back(parse_u64(item, key));
  }
  return out;
}

std::vector<std::size_t> parse_size_list(std::string_view value,
                                         std::string_view key,
                                         const LineContext& at) {
  std::vector<std::size_t> out;
  for (const std::string& item : split_list(value)) {
    if (item.empty()) fail_at(at.source, at.line, "empty item in list");
    out.push_back(parse_size(item, key));
  }
  return out;
}

/// Throws naming `axis` and the value if a value repeats an earlier one:
/// cells are told apart only by their axis values, so a repeat writes
/// rows that cannot be told apart. `owner` ("scenario", "workload") and
/// `name` say whose axis it is. Pairwise and allocation-free when every
/// value is distinct (axes are short, and this runs in every
/// run_scenario's set-up).
template <typename T>
void reject_repeats(const std::vector<T>& values, std::string_view axis,
                    std::string_view owner, std::string_view name) {
  for (std::size_t i = 0; i < values.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (values[i] != values[j]) continue;
      char text[32];
      const auto end = std::to_chars(text, text + sizeof text, values[i]).ptr;
      std::string message(owner);
      message += " '";
      message += name;
      message += "': duplicate ";
      message += axis;
      message += " value ";
      message.append(text, end);
      message += "; each value on an axis must be distinct";
      throw std::invalid_argument(message);
    }
  }
}

enum class Section {
  kNone,
  kScenario,
  kSystem,
  kWorkload,
  kPolicy,
  kFault,
  kFleet,
  kRedundancy,
  kControl
};

}  // namespace

ScenarioSpec parse_scenario(std::string_view text, std::string_view source) {
  ScenarioSpec spec;
  Section section = Section::kNone;

  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    ++line_no;
    const LineContext at{source, line_no};
    std::string_view line = trim(strip_comment(trim(text.substr(pos, eol - pos))));
    pos = eol + 1;
    if (line.empty()) continue;

    if (line.front() == '[') {
      if (line.back() != ']') fail_at(source, line_no, "unterminated section header");
      const std::string_view header = trim(line.substr(1, line.size() - 2));
      const std::size_t space = header.find_first_of(" \t");
      const std::string_view kind =
          space == std::string_view::npos ? header : header.substr(0, space);
      const std::string_view arg =
          space == std::string_view::npos ? std::string_view{}
                                          : trim(header.substr(space + 1));
      if (kind == "scenario") {
        if (!arg.empty()) fail_at(source, line_no, "[scenario] takes no name");
        section = Section::kScenario;
      } else if (kind == "system") {
        if (!arg.empty()) fail_at(source, line_no, "[system] takes no name");
        section = Section::kSystem;
      } else if (kind == "workload") {
        ScenarioWorkload w;
        if (!arg.empty()) w.name = std::string(arg);
        spec.workloads.push_back(std::move(w));
        section = Section::kWorkload;
      } else if (kind == "source") {
        // Sugar for a streaming workload: [source x] ≡ [workload x] with
        // kind = source.
        ScenarioWorkload w;
        w.kind = "source";
        if (!arg.empty()) w.name = std::string(arg);
        spec.workloads.push_back(std::move(w));
        section = Section::kWorkload;
      } else if (kind == "policy") {
        if (arg.empty()) {
          fail_at(source, line_no, "[policy] needs a registry name, e.g. [policy read]");
        }
        ScenarioPolicy p;
        p.name = std::string(arg);
        p.label = p.name;
        spec.policies.push_back(std::move(p));
        section = Section::kPolicy;
      } else if (kind == "fault") {
        if (!arg.empty()) fail_at(source, line_no, "[fault] takes no name");
        spec.fault.enabled = true;
        section = Section::kFault;
      } else if (kind == "fleet") {
        if (!arg.empty()) fail_at(source, line_no, "[fleet] takes no name");
        spec.fleet.enabled = true;
        section = Section::kFleet;
      } else if (kind == "redundancy") {
        if (!arg.empty()) {
          fail_at(source, line_no, "[redundancy] takes no name");
        }
        spec.redundancy.enabled = true;
        section = Section::kRedundancy;
      } else if (kind == "control") {
        if (!arg.empty()) fail_at(source, line_no, "[control] takes no name");
        spec.control.enabled = true;
        section = Section::kControl;
      } else {
        fail_at(source, line_no,
                "unknown section [" + std::string(kind) +
                    "]; expected scenario, system, workload, source, policy, "
                    "fault, fleet, redundancy or control");
      }
      continue;
    }

    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      fail_at(source, line_no, "expected 'key = value'");
    }
    const std::string key{trim(line.substr(0, eq))};
    const std::string value{trim(line.substr(eq + 1))};
    if (key.empty()) fail_at(source, line_no, "empty key");
    if (value.empty()) fail_at(source, line_no, "empty value for '" + key + "'");

    try {
      switch (section) {
      case Section::kNone:
        fail_at(source, line_no, "'" + key + "' before any [section]");
      case Section::kScenario:
        if (key == "name") {
          spec.name = value;
        } else if (key == "threads") {
          spec.threads = parse_u32(value, key);
        } else if (key == "seeds" || key == "seed") {
          spec.seeds = parse_u64_list(value, key, at);
        } else {
          fail_at(source, line_no,
                  "unknown key '" + key + "' in [scenario]; valid: name, threads, seeds");
        }
        break;
      case Section::kSystem:
        if (key == "disks") {
          spec.disks = parse_size_list(value, key, at);
        } else if (key == "epoch") {
          spec.epochs = parse_double_list(value, key, at);
        } else if (key == "positioned") {
          spec.positioned = parse_bool(value, key);
        } else {
          fail_at(source, line_no,
                  "unknown key '" + key + "' in [system]; valid: disks, epoch, positioned");
        }
        break;
      case Section::kWorkload: {
        ScenarioWorkload& w = spec.workloads.back();
        if (key == "kind") {
          w.kind = value;
        } else if (key == "preset") {
          w.preset = value;
        } else if (key == "path" || key == "trace" || key == "spec") {
          w.path = value;
        } else if (key == "buffer") {
          w.buffer = parse_size(value, key);
        } else if (key == "files") {
          w.files = parse_size(value, key);
        } else if (key == "requests") {
          w.requests = parse_size(value, key);
        } else if (key == "zipf_alpha") {
          w.zipf_alpha = parse_double(value, key);
        } else if (key == "burstiness") {
          w.burstiness = parse_double(value, key);
        } else if (key == "diurnal_depth") {
          w.diurnal_depth = parse_double(value, key);
        } else if (key == "load") {
          w.loads = parse_double_list(value, key, at);
        } else {
          fail_at(source, line_no,
                  "unknown key '" + key +
                      "' in [workload]; valid: kind, preset, path, spec, "
                      "buffer, files, requests, zipf_alpha, burstiness, "
                      "diurnal_depth, load");
        }
        break;
      }
      case Section::kPolicy: {
        ScenarioPolicy& p = spec.policies.back();
        if (key == "label") {
          p.label = value;
        } else {
          // Every other key is a policy knob; the registry validates the
          // key set (and parses values) in validate_scenario below.
          p.params.set(key, value);
        }
        break;
      }
      case Section::kFault:
        if (key == "seed") {
          spec.fault.seed = parse_u64(value, key);
        } else if (key == "afr") {
          spec.fault.afr = parse_double(value, key);
        } else if (key == "rate_scale") {
          spec.fault.rate_scales = parse_double_list(value, key, at);
        } else if (key == "mttr") {
          spec.fault.mttr_s = parse_double(value, key);
        } else if (key == "kill_disk") {
          spec.fault.kill_disks = parse_size_list(value, key, at);
        } else if (key == "kill_at") {
          spec.fault.kill_at_s = parse_double_list(value, key, at);
        } else {
          fail_at(source, line_no,
                  "unknown key '" + key +
                      "' in [fault]; valid: seed, afr, rate_scale, mttr, "
                      "kill_disk, kill_at");
        }
        break;
      case Section::kFleet:
        if (key == "shards") {
          const std::uint64_t shards = parse_u64(value, key);
          if (shards == 0 || shards > 0xFFFFFFFFULL) {
            fail_at(source, line_no, "shards must be in [1, 2^32)");
          }
          spec.fleet.shards = static_cast<std::uint32_t>(shards);
        } else if (key == "threads") {
          spec.fleet.threads = parse_u32(value, key);
        } else {
          fail_at(source, line_no,
                  "unknown key '" + key +
                      "' in [fleet]; valid: shards, threads");
        }
        break;
      case Section::kRedundancy:
        if (key == "scheme") {
          spec.redundancy.scheme = value;
        } else if (key == "group") {
          spec.redundancy.group = parse_size(value, key);
        } else if (key == "rebuild") {
          spec.redundancy.rebuild = parse_bool(value, key);
        } else if (key == "rebuild_mbps") {
          spec.redundancy.rebuild_mbps = parse_double(value, key);
        } else if (key == "rebuild_chunk") {
          spec.redundancy.rebuild_chunk = parse_size(value, key);
        } else {
          fail_at(source, line_no,
                  "unknown key '" + key +
                      "' in [redundancy]; valid: scheme, group, rebuild, "
                      "rebuild_mbps, rebuild_chunk");
        }
        break;
      case Section::kControl: {
        ControlConfig& c = spec.control.config;
        if (key == "target_rt_ms") {
          c.target_rt_ms = parse_double(value, key);
        } else if (key == "gain") {
          c.gain = parse_double(value, key);
        } else if (key == "hysteresis") {
          c.hysteresis = parse_double(value, key);
        } else if (key == "persistence") {
          c.persistence = parse_u32(value, key);
        } else if (key == "max_step") {
          c.max_step = parse_double(value, key);
        } else if (key == "h_min") {
          c.h_min_s = parse_double(value, key);
        } else if (key == "h_max") {
          c.h_max_s = parse_double(value, key);
        } else if (key == "energy_budget_w") {
          c.energy_budget_w = parse_double(value, key);
        } else if (key == "adapt_epoch") {
          c.adapt_epoch = parse_bool(value, key);
        } else if (key == "epoch_min") {
          c.epoch_min_s = parse_double(value, key);
        } else if (key == "epoch_max") {
          c.epoch_max_s = parse_double(value, key);
        } else if (key == "admit_window") {
          c.admit_window_s = parse_double(value, key);
        } else {
          fail_at(source, line_no,
                  "unknown key '" + key +
                      "' in [control]; valid: target_rt_ms, gain, "
                      "hysteresis, persistence, max_step, h_min, h_max, "
                      "energy_budget_w, adapt_epoch, epoch_min, epoch_max, "
                      "admit_window");
        }
        break;
      }
      }
    } catch (const std::invalid_argument& e) {
      // Add "<source>:<line>" context to bare value-parse errors
      // (util/parse.h); fail_at messages already carry it.
      std::string prefix(source);
      prefix += ':';
      if (std::string_view(e.what()).rfind(prefix, 0) == 0) throw;
      fail_at(source, line_no, e.what());
    }
  }
  try {
    validate_scenario(spec);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(std::string(source) + ": " + e.what());
  }
  return spec;
}

ScenarioSpec load_scenario_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("load_scenario_file: cannot open " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_scenario(buffer.str(), path);
}

void validate_scenario(const ScenarioSpec& spec) {
  if (spec.policies.empty()) {
    throw std::invalid_argument("scenario '" + spec.name + "': no [policy] sections");
  }
  if (spec.seeds.empty()) {
    throw std::invalid_argument("scenario '" + spec.name + "': empty seeds axis");
  }
  if (spec.disks.empty()) {
    throw std::invalid_argument("scenario '" + spec.name + "': empty disks axis");
  }
  if (spec.epochs.empty()) {
    throw std::invalid_argument("scenario '" + spec.name + "': empty epoch axis");
  }
  for (const std::size_t n : spec.disks) {
    if (n == 0) {
      throw std::invalid_argument("scenario '" + spec.name + "': disks must be > 0");
    }
  }
  for (const double e : spec.epochs) {
    if (!(e > 0.0)) {
      throw std::invalid_argument("scenario '" + spec.name + "': epoch must be > 0");
    }
  }
  reject_repeats(spec.seeds, "seeds", "scenario", spec.name);
  reject_repeats(spec.disks, "disks", "scenario", spec.name);
  reject_repeats(spec.epochs, "epoch", "scenario", spec.name);
  for (const ScenarioPolicy& p : spec.policies) {
    // Throws with the registry's own message for unknown names/keys and
    // malformed values.
    (void)policies::make(p.name, p.params);
  }
  // Cells are told apart by policy label and workload name, so repeated
  // sections (the idiom for sweeping a knob or a preset override) must
  // each carry their own. Pairwise and allocation-free: the lists are
  // short, and this runs in every run_scenario's set-up.
  for (std::size_t i = 0; i < spec.policies.size(); ++i) {
    const std::string_view label = spec.policies[i].display_label();
    for (std::size_t j = 0; j < i; ++j) {
      if (label == spec.policies[j].display_label()) {
        throw std::invalid_argument(
            "scenario '" + spec.name + "': duplicate policy label '" +
            std::string(label) + "'; give each [policy] section its own label");
      }
    }
  }
  for (std::size_t i = 0; i < spec.workloads.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (spec.workloads[i].name == spec.workloads[j].name) {
        throw std::invalid_argument("scenario '" + spec.name +
                                    "': duplicate workload name '" +
                                    spec.workloads[i].name + "'");
      }
    }
  }
  for (const ScenarioWorkload& w : spec.workloads) {
    if (w.kind == "synthetic") {
      (void)preset_workload_config(w.preset, 0);
    } else if (w.kind == "trace" || w.kind == "source") {
      if (w.path.empty()) {
        throw std::invalid_argument("workload '" + w.name + "': kind = " +
                                    w.kind + " needs spec = [format:]path");
      }
      trace::ResolvedSpec resolved;
      try {
        resolved = trace::resolve_spec(w.path);
      } catch (const std::invalid_argument& e) {
        throw std::invalid_argument("workload '" + w.name + "': " + e.what());
      }
      if (w.kind == "source" && resolved.path == "-") {
        // Cells re-open the source once per run; stdin is single-pass.
        throw std::invalid_argument("workload '" + w.name +
                                    "': kind = source cannot stream stdin");
      }
      if (w.buffer && *w.buffer == 0) {
        throw std::invalid_argument("workload '" + w.name +
                                    "': buffer must be > 0");
      }
    } else {
      throw std::invalid_argument("workload '" + w.name + "': unknown kind '" +
                                  w.kind + "'; valid: synthetic, trace, source");
    }
    for (const double l : w.loads) {
      if (!(l > 0.0)) {
        throw std::invalid_argument("workload '" + w.name + "': load must be > 0");
      }
    }
    reject_repeats(w.loads, "load", "workload", w.name);
  }
  if (spec.fleet.enabled) {
    if (spec.fleet.shards == 0) {
      throw std::invalid_argument("scenario '" + spec.name +
                                  "': fleet shards must be > 0");
    }
    for (const ScenarioWorkload& w : spec.workloads) {
      if (w.kind != "synthetic") {
        throw std::invalid_argument(
            "scenario '" + spec.name + "': [fleet] needs synthetic " +
            "workloads (each shard derives its own stream); workload '" +
            w.name + "' is kind = " + w.kind);
      }
    }
    for (const std::size_t disks : spec.disks) {
      if (disks > 0xFFFFFFFFULL) {
        throw std::invalid_argument("scenario '" + spec.name +
                                    "': fleet disks exceed the 32-bit id "
                                    "space");
      }
      // Throws std::invalid_argument on geometry overflow.
      (void)fleet_disk_count(spec.fleet.shards,
                             static_cast<std::uint32_t>(disks));
    }
  }
  if (spec.fault.enabled) {
    if (!(spec.fault.afr >= 0.0)) {
      throw std::invalid_argument("scenario '" + spec.name +
                                  "': fault afr must be >= 0");
    }
    if (spec.fault.rate_scales.empty()) {
      throw std::invalid_argument("scenario '" + spec.name +
                                  "': empty fault rate_scale axis");
    }
    for (const double s : spec.fault.rate_scales) {
      if (!(s >= 0.0)) {
        throw std::invalid_argument("scenario '" + spec.name +
                                    "': fault rate_scale must be >= 0");
      }
    }
    reject_repeats(spec.fault.rate_scales, "rate_scale", "scenario",
                   spec.name);
    if (!(spec.fault.mttr_s > 0.0)) {
      throw std::invalid_argument("scenario '" + spec.name +
                                  "': fault mttr must be > 0");
    }
    if (spec.fault.kill_disks.size() != spec.fault.kill_at_s.size()) {
      throw std::invalid_argument(
          "scenario '" + spec.name +
          "': kill_disk and kill_at must be paired lists of equal length");
    }
    for (const double t : spec.fault.kill_at_s) {
      if (!(t >= 0.0)) {
        throw std::invalid_argument("scenario '" + spec.name +
                                    "': kill_at must be >= 0");
      }
    }
    for (const std::size_t d : spec.fault.kill_disks) {
      for (const std::size_t disks : spec.disks) {
        if (d >= disks) {
          throw std::invalid_argument(
              "scenario '" + spec.name + "': kill_disk " + std::to_string(d) +
              " out of range for a " + std::to_string(disks) + "-disk array");
        }
      }
    }
  }
  if (spec.control.enabled) {
    if (spec.fleet.enabled) {
      // Scope cut, not an oversight: fleet shards are independent arrays
      // with no shared telemetry window, so one controller would couple
      // them; a per-shard loop is future work.
      throw std::invalid_argument("scenario '" + spec.name +
                                  "': [control] does not compose with "
                                  "[fleet]");
    }
    try {
      // ControlLoop's constructor owns the knob validation; a bad
      // [control] section fails here, before any cell runs.
      (void)ControlLoop(spec.control.config);
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument("scenario '" + spec.name +
                                  "': [control] " + e.what());
    }
  }
  if (spec.redundancy.enabled) {
    // scenario_redundancy_kind throws for unknown scheme names;
    // validate_redundancy checks the geometry against every disks-axis
    // value (raid5 wants disks divisible by group, etc.).
    const RedundancyKind kind = scenario_redundancy_kind(spec.redundancy);
    RedundancyConfig config;
    config.kind = kind;
    config.group = spec.redundancy.group;
    config.rebuild = spec.redundancy.rebuild;
    config.rebuild_mbps = spec.redundancy.rebuild_mbps;
    config.rebuild_chunk = static_cast<Bytes>(spec.redundancy.rebuild_chunk);
    for (const std::size_t disks : spec.disks) {
      try {
        validate_redundancy(config, disks);
      } catch (const std::invalid_argument& e) {
        throw std::invalid_argument("scenario '" + spec.name +
                                    "': [redundancy] " + e.what());
      }
    }
  }
}

RedundancyKind scenario_redundancy_kind(const ScenarioRedundancy& r) {
  if (r.scheme == "raid5") return RedundancyKind::kRaid5;
  if (r.scheme == "declustered") return RedundancyKind::kDeclustered;
  throw std::invalid_argument("unknown redundancy scheme '" + r.scheme +
                              "'; valid: raid5, declustered");
}

namespace {

struct Preset {
  std::string_view name;
  SyntheticWorkloadConfig (*config)(std::uint64_t seed);
};

/// The one list of synthetic presets: it drives the lookup and the
/// "valid:" message.
constexpr std::array<Preset, 7> kPresets = {{
    {"wc98-light", worldcup98_light_config},
    {"wc98-heavy", worldcup98_heavy_config},
    {"wc98-quiet", worldcup98_quiet_config},
    {"proxy", proxy_server_config},
    {"ftp", ftp_mirror_config},
    {"email", email_server_config},
    {"media", media_server_config},
}};

}  // namespace

SyntheticWorkloadConfig preset_workload_config(std::string_view preset,
                                               std::uint64_t seed) {
  for (const Preset& p : kPresets) {
    if (p.name == preset) return p.config(seed);
  }
  std::string message = "unknown workload preset '";
  message += preset;
  message += "'; valid:";
  for (const Preset& p : kPresets) {
    message += ' ';
    message += p.name;
  }
  throw std::invalid_argument(message);
}

}  // namespace pr
