#include "container/container.h"

#include <utility>

namespace swapserve::container {

std::string_view ContainerStateName(ContainerState s) {
  switch (s) {
    case ContainerState::kCreated: return "created";
    case ContainerState::kRunning: return "running";
    case ContainerState::kPaused: return "paused";
  }
  return "unknown";
}

sim::Task<Status> CgroupFreezer::Freeze() {
  if (frozen_) co_return FailedPrecondition("cgroup already frozen");
  // Tasks reach the freezer safe point within a scheduling quantum.
  co_await sim_.Delay(sim::Millis(20));
  frozen_ = true;
  co_return Status::Ok();
}

sim::Task<Status> CgroupFreezer::Thaw() {
  if (!frozen_) co_return FailedPrecondition("cgroup not frozen");
  co_await sim_.Delay(sim::Millis(10));
  frozen_ = false;
  co_return Status::Ok();
}

Container::Container(sim::Simulation& sim, std::string name,
                     sim::SimDuration create_start,
                     sim::SimDuration entrypoint_boot)
    : sim_(sim),
      name_(std::move(name)),
      create_start_(create_start),
      entrypoint_boot_(entrypoint_boot),
      freezer_(sim) {}

sim::Task<Status> Container::Start() {
  if (state_ != ContainerState::kCreated) {
    co_return FailedPrecondition("start: container " + name_ + " is " +
                                 std::string(ContainerStateName(state_)));
  }
  co_await sim_.Delay(create_start_);
  co_await sim_.Delay(entrypoint_boot_);
  state_ = ContainerState::kRunning;
  co_return Status::Ok();
}

sim::Task<Status> Container::Pause() {
  if (state_ != ContainerState::kRunning) {
    co_return FailedPrecondition("pause: container " + name_ + " is " +
                                 std::string(ContainerStateName(state_)));
  }
  Status s = co_await freezer_.Freeze();
  if (!s.ok()) co_return s;
  state_ = ContainerState::kPaused;
  co_return Status::Ok();
}

sim::Task<Status> Container::Unpause() {
  if (state_ != ContainerState::kPaused) {
    co_return FailedPrecondition("unpause: container " + name_ + " is " +
                                 std::string(ContainerStateName(state_)));
  }
  Status s = co_await freezer_.Thaw();
  if (!s.ok()) co_return s;
  state_ = ContainerState::kRunning;
  co_return Status::Ok();
}

Status Container::AdoptPaused() {
  if (state_ != ContainerState::kCreated) {
    return FailedPrecondition("adopt: container " + name_ + " is " +
                              std::string(ContainerStateName(state_)));
  }
  freezer_.AdoptFrozen();
  state_ = ContainerState::kPaused;
  return Status::Ok();
}

}  // namespace swapserve::container
