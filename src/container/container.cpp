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

Container::Container(sim::Simulation& sim, std::uint64_t id, std::string name,
                     ImageSpec image, std::string ip, int port)
    : sim_(sim),
      id_(id),
      name_(std::move(name)),
      image_(std::move(image)),
      ip_(std::move(ip)),
      port_(port),
      freezer_(sim) {}

void Container::EnterState(ContainerState next) {
  if (state_ == ContainerState::kRunning &&
      next != ContainerState::kRunning) {
    total_running_ += sim_.Now() - running_since_;
  }
  if (next == ContainerState::kRunning) running_since_ = sim_.Now();
  state_ = next;
}

sim::Task<Status> Container::Start() {
  if (state_ != ContainerState::kCreated) {
    co_return FailedPrecondition("start: container " + name_ + " is " +
                                 std::string(ContainerStateName(state_)));
  }
  co_await sim_.Delay(image_.create_start);
  co_await sim_.Delay(image_.entrypoint_boot);
  EnterState(ContainerState::kRunning);
  co_return Status::Ok();
}

sim::Task<Status> Container::Pause() {
  if (state_ != ContainerState::kRunning) {
    co_return FailedPrecondition("pause: container " + name_ + " is " +
                                 std::string(ContainerStateName(state_)));
  }
  Status s = co_await freezer_.Freeze();
  if (!s.ok()) co_return s;
  EnterState(ContainerState::kPaused);
  co_return Status::Ok();
}

sim::Task<Status> Container::Unpause() {
  if (state_ != ContainerState::kPaused) {
    co_return FailedPrecondition("unpause: container " + name_ + " is " +
                                 std::string(ContainerStateName(state_)));
  }
  Status s = co_await freezer_.Thaw();
  if (!s.ok()) co_return s;
  EnterState(ContainerState::kRunning);
  co_return Status::Ok();
}

Status Container::AdoptPaused() {
  if (state_ != ContainerState::kCreated) {
    return FailedPrecondition("adopt: container " + name_ + " is " +
                              std::string(ContainerStateName(state_)));
  }
  freezer_.AdoptFrozen();
  EnterState(ContainerState::kPaused);
  return Status::Ok();
}

sim::SimDuration Container::TotalRunning() const {
  sim::SimDuration total = total_running_;
  if (state_ == ContainerState::kRunning) total += sim_.Now() - running_since_;
  return total;
}

}  // namespace swapserve::container
