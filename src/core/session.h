// session.h — the library's front door for one array. A SimulationSession
// gathers everything one run needs — config, workload, policy, observers,
// fault plan — with a fluent builder, then runs the simulation and scores
// it with PRESS:
//
//   pr::TimeSeriesRecorder timeline{pr::Seconds{60.0}};
//   auto report = pr::SimulationSession(config)
//                     .with_workload(workload)
//                     .with_policy("read")
//                     .with_observer(timeline)
//                     .run();
//
// A fleet of arrays runs through sim/fleet_sim.h's run_fleet, or a
// `[fleet]` scenario section (exp/scenario.h), not through a session.
#pragma once

#include <memory>
#include <string_view>

#include "core/registry.h"
#include "core/system.h"
#include "fault/fault_plan.h"
#include "obs/observer.h"
#include "workload/synthetic.h"

namespace pr {

class SimulationSession {
 public:
  explicit SimulationSession(SystemConfig config = {});

  /// Point the session at a workload. The files/trace must outlive run().
  SimulationSession& with_workload(const FileSet& files, const Trace& trace);
  SimulationSession& with_workload(const SyntheticWorkload& workload);

  /// Point the session at a streaming workload: `files` is the universe,
  /// `source` produces the requests (trace::open, SyntheticSource, or any
  /// custom RequestSource). Both must outlive run(). Sources are
  /// single-pass, so re-running the session requires a fresh source.
  SimulationSession& with_source(const FileSet& files, RequestSource& source);

  /// Choose the policy by registry name (see core/registry.h; throws
  /// std::invalid_argument for unknown names)...
  SimulationSession& with_policy(std::string_view name);
  /// ...or hand over a constructed instance (owned)...
  SimulationSession& with_policy(std::unique_ptr<Policy> policy);
  /// ...or borrow one the caller keeps alive (lets tests inspect policy
  /// state after the run).
  SimulationSession& with_policy(Policy& policy);

  /// Attach an observer (repeatable; callbacks fan out in attachment
  /// order). The observer must outlive run().
  SimulationSession& with_observer(SimObserver& observer);

  /// Attach a fault-injection plan (fault/fault_plan.h). The plan must
  /// outlive run(); an empty plan is byte-identical to not attaching one.
  SimulationSession& with_faults(const FaultPlan& plan);

  // Conveniences for the two most-tweaked knobs.
  SimulationSession& with_disks(std::size_t count);
  SimulationSession& with_epoch(Seconds epoch);

  [[nodiscard]] const SystemConfig& config() const { return config_; }
  [[nodiscard]] SystemConfig& config() { return config_; }

  /// Run the simulation and score it with PRESS. Throws std::logic_error
  /// when no workload or policy was configured. May be called repeatedly;
  /// each call builds a fresh policy instance when the policy was given by
  /// name, and reuses the same instance otherwise.
  [[nodiscard]] SystemReport run();

 private:
  SystemConfig config_;
  const FileSet* files_ = nullptr;
  const Trace* trace_ = nullptr;
  RequestSource* source_ = nullptr;         // streaming workload
  PolicyFactory factory_;                   // name-based (fresh per run)
  std::unique_ptr<Policy> owned_policy_;    // adopted instance
  Policy* borrowed_policy_ = nullptr;       // caller-owned instance
  ObserverList observers_;
  const FaultPlan* faults_ = nullptr;       // caller-owned plan
};

}  // namespace pr
