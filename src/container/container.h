// Container lifecycle with cgroup-freezer pause/resume.
//
// Mirrors the podman semantics SwapServeLLM depends on: a container is
// created, started (paying its engine's boot cost), and can be paused —
// which freezes its cgroup, stopping CPU execution instantly without
// killing the process. The paper's hot-swap path is exactly
// freeze -> cuda-checkpoint -> [idle] -> restore -> thaw. Each engine owns
// its one container; the boot cost is a column of the engine's
// model::EngineProfile row.

#pragma once

#include <string>

#include "sim/simulation.h"
#include "sim/task.h"
#include "util/status.h"

namespace swapserve::container {

enum class ContainerState {
  kCreated,   // exists, process not started
  kRunning,   // process executing
  kPaused,    // cgroup frozen
};

std::string_view ContainerStateName(ContainerState s);

// The cgroup-v2 freezer: freezing stops all tasks in the cgroup at a safe
// point; thawing resumes them. Both take roughly a scheduling quantum.
class CgroupFreezer {
 public:
  explicit CgroupFreezer(sim::Simulation& sim) : sim_(sim) {}

  sim::Task<Status> Freeze();
  sim::Task<Status> Thaw();
  bool frozen() const { return frozen_; }
  // Adopt a frozen cgroup without paying the freeze quantum: the state was
  // inherited (cluster replica adoption), not produced by a local Freeze.
  void AdoptFrozen() { frozen_ = true; }

 private:
  sim::Simulation& sim_;
  bool frozen_ = false;
};

class Container {
 public:
  // Start() pays `create_start` (podman create+start: rootfs, netns), then
  // `entrypoint_boot` (interpreter and framework imports).
  Container(sim::Simulation& sim, std::string name,
            sim::SimDuration create_start, sim::SimDuration entrypoint_boot);
  Container(const Container&) = delete;
  Container& operator=(const Container&) = delete;

  ContainerState state() const { return state_; }
  CgroupFreezer& freezer() { return freezer_; }

  // Created -> Running; pays create_start + entrypoint_boot.
  sim::Task<Status> Start();
  // Running -> Paused (freezes the cgroup).
  sim::Task<Status> Pause();
  // Paused -> Running (thaws the cgroup).
  sim::Task<Status> Unpause();
  // Created -> Paused, instantly and without booting: the container is a
  // cluster standby adopting a replicated checkpoint, so its process image
  // arrives already frozen. The boot cost was paid once on the home node;
  // the restore cost is paid later, at swap-in.
  [[nodiscard]] Status AdoptPaused();

 private:
  sim::Simulation& sim_;
  std::string name_;
  sim::SimDuration create_start_;
  sim::SimDuration entrypoint_boot_;
  ContainerState state_ = ContainerState::kCreated;
  CgroupFreezer freezer_;
};

}  // namespace swapserve::container
