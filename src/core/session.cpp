#include "core/session.h"

#include <stdexcept>

#include "core/registry.h"

namespace pr {

SimulationSession::SimulationSession(SystemConfig config)
    : config_(std::move(config)) {}

SimulationSession& SimulationSession::with_workload(const FileSet& files,
                                                    const Trace& trace) {
  files_ = &files;
  trace_ = &trace;
  source_ = nullptr;
  return *this;
}

SimulationSession& SimulationSession::with_source(const FileSet& files,
                                                  RequestSource& source) {
  files_ = &files;
  source_ = &source;
  trace_ = nullptr;
  return *this;
}

SimulationSession& SimulationSession::with_workload(
    const SyntheticWorkload& workload) {
  return with_workload(workload.files, workload.trace);
}

SimulationSession& SimulationSession::with_policy(std::string_view name) {
  factory_ = policies::make(name);
  owned_policy_.reset();
  borrowed_policy_ = nullptr;
  return *this;
}

SimulationSession& SimulationSession::with_policy(
    std::unique_ptr<Policy> policy) {
  if (policy == nullptr) {
    throw std::invalid_argument("SimulationSession::with_policy: null policy");
  }
  owned_policy_ = std::move(policy);
  factory_ = nullptr;
  borrowed_policy_ = nullptr;
  return *this;
}

SimulationSession& SimulationSession::with_policy(Policy& policy) {
  borrowed_policy_ = &policy;
  factory_ = nullptr;
  owned_policy_.reset();
  return *this;
}

SimulationSession& SimulationSession::with_observer(SimObserver& observer) {
  observers_.add(observer);
  return *this;
}

SimulationSession& SimulationSession::with_faults(const FaultPlan& plan) {
  faults_ = &plan;
  return *this;
}

SimulationSession& SimulationSession::with_disks(std::size_t count) {
  config_.sim.disk_count = count;
  return *this;
}

SimulationSession& SimulationSession::with_epoch(Seconds epoch) {
  config_.sim.epoch = epoch;
  return *this;
}

SystemReport SimulationSession::run() {
  if (files_ == nullptr || (trace_ == nullptr && source_ == nullptr)) {
    throw std::logic_error("SimulationSession::run: no workload configured");
  }
  std::unique_ptr<Policy> fresh;
  Policy* policy = borrowed_policy_;
  if (policy == nullptr && owned_policy_ != nullptr) {
    policy = owned_policy_.get();
  }
  if (policy == nullptr && factory_) {
    fresh = factory_();
    policy = fresh.get();
  }
  if (policy == nullptr) {
    throw std::logic_error("SimulationSession::run: no policy configured");
  }
  // Skip the fan-out shim when 0 or 1 observers are attached.
  SimObserver* observer = observers_.empty()
                              ? nullptr
                              : (observers_.sole() != nullptr
                                     ? observers_.sole()
                                     : static_cast<SimObserver*>(&observers_));
  SimResult sim =
      source_ != nullptr
          ? run_simulation(config_.sim, *files_, *source_, *policy, observer,
                           faults_)
          : run_simulation(config_.sim, *files_, *trace_, *policy, observer,
                           faults_);
  return score(PressModel{config_.press}, std::move(sim));
}

}  // namespace pr
