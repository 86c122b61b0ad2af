// registry.h — name-based construction of every policy the library ships.
// Before this registry, each bench/example re-declared the same factory
// lambdas; now `pr::policies::make("read")` is the single spelling, and
// `names()` lets tools (CLIs, sweep drivers, dashboards) enumerate what is
// available without recompiling.
//
// Policies are also *parameterized* through the registry: every tunable a
// policy's config struct exposes is registered as a named knob, and
// `make(name, params)` applies a ParamMap of them — the registry is the
// single plugin surface, so a scenario file (src/exp/scenario.h) or a CLI
// flag can reach any knob without a recompiled switch statement.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/array_sim.h"
#include "util/param_map.h"

namespace pr {

/// Builds a fresh policy per run (policies are stateful, so every sweep
/// cell, fleet shard and repeated session run needs its own instance).
using PolicyFactory = std::function<std::unique_ptr<Policy>()>;

}  // namespace pr

namespace pr::policies {

/// One documented knob of a registered policy.
struct ParamInfo {
  std::string name;           ///< key accepted in a ParamMap
  std::string default_value;  ///< textual default (valid input to make())
  std::string description;    ///< one-line doc for --help / scenario docs
};

/// Factory for the policy registered under `name` (canonical names are
/// lowercase; lookup is case-insensitive and accepts the aliases below).
/// Throws std::invalid_argument for unknown names, listing the valid ones.
[[nodiscard]] PolicyFactory make(std::string_view name);

/// Parameterized factory: `params` keys must be a subset of
/// `param_names(name)` — an unknown key throws std::invalid_argument
/// listing the valid ones. Values are parsed strictly when the factory
/// runs (full-token, see util/parse.h); absent keys keep the config
/// struct's defaults, so an empty ParamMap is identical to make(name).
[[nodiscard]] PolicyFactory make(std::string_view name, ParamMap params);

/// True when `name` is registered (case-insensitive; aliases count).
[[nodiscard]] bool contains(std::string_view name);

/// Canonical registered names, sorted.
[[nodiscard]] std::vector<std::string> names();

/// Historical/CLI spellings accepted by make(): (alias, canonical) pairs.
[[nodiscard]] std::vector<std::pair<std::string, std::string>> aliases();

/// The documented knobs of `name` (empty for knob-less policies such as
/// "static"). Throws std::invalid_argument for unknown names.
[[nodiscard]] std::vector<ParamInfo> param_info(std::string_view name);

/// Just the knob names of `name`, in registration order.
[[nodiscard]] std::vector<std::string> param_names(std::string_view name);

}  // namespace pr::policies
