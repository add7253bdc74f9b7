#include "cluster/node.h"

#include <utility>

#include "obs/observability.h"
#include "util/log.h"

namespace swapserve::cluster {

std::string_view NodeStateName(NodeState s) {
  switch (s) {
    case NodeState::kHealthy:
      return "healthy";
    case NodeState::kSuspect:
      return "suspect";
    case NodeState::kDown:
      return "down";
    case NodeState::kRejoining:
      return "rejoining";
  }
  return "unknown";
}

Node::Node(sim::Simulation& sim, int id, int gpu_count, core::Config config,
           const model::ModelCatalog& catalog,
           core::SwapServeOptions options)
    : id_(id),
      name_("node" + std::to_string(id)),
      host_(hw::HostSpec::H100Host()),
      // Same device name and open overhead as the single-machine fixture:
      // a one-node fleet must schedule identical storage events.
      storage_(sim, "nvme", host_.disk_read, sim::Seconds(0.1)),
      runtime_(sim, container::ImageRegistry::WithDefaultImages()) {
  for (int i = 0; i < gpu_count; ++i) {
    gpus_.push_back(
        std::make_unique<hw::GpuDevice>(sim, i, hw::GpuSpec::H100Hbm3_80GB()));
  }
  core::Hardware hardware;
  for (auto& gpu : gpus_) hardware.gpus.push_back(gpu.get());
  hardware.storage = &storage_;
  hardware.runtime = &runtime_;
  serve_ = std::make_unique<core::SwapServe>(sim, std::move(config), catalog,
                                             hardware, options);
}

std::size_t Node::Pressure() { return serve_->InFlight(); }

void Node::Crash() {
  SWAP_CHECK_MSG(alive_, name_ + " crashed while already dead");
  alive_ = false;
  ++crashes_;
  serve_->PauseWorkers();
  for (core::Backend* backend : serve_->backends()) {
    const engine::BackendState state = backend->engine->state();
    if (state == engine::BackendState::kSwappedOut) {
      // The engine process was already checkpointed away; what dies with
      // the machine is the host RAM holding its payload. Only an unbounded
      // host cache loses it here. With a bounded cache, demoted snapshots
      // sit on NVMe and survive the power cycle, but host-resident ones
      // are also kept, although nothing wrote them to NVMe (a known
      // fidelity gap).
      if (backend->has_snapshot && !serve_->tier_manager()->bounded()) {
        const ckpt::Snapshot* snap =
            serve_->snapshot_store().Find(backend->snapshot);
        if (snap != nullptr && snap->tier == ckpt::SnapshotTier::kHost) {
          SWAP_WARN_IF_ERROR(
              serve_->snapshot_store().MarkLost(backend->snapshot), "node");
        }
      }
      continue;
    }
    if (state != engine::BackendState::kUninitialized &&
        state != engine::BackendState::kStopped &&
        state != engine::BackendState::kCrashed) {
      backend->engine->MarkCrashed(name_ + " lost power");
    }
  }
  if (power_signal_ != nullptr) power_signal_->Pulse();
  obs::Instant(&serve_->obs(), "node.crash", "cluster", name_, {});
  SWAP_LOG(kWarning, "cluster") << name_ << " crashed (power off)";
}

void Node::Boot() {
  SWAP_CHECK_MSG(!alive_, name_ + " booted while already alive");
  alive_ = true;
  ++boots_;
  serve_->ResumeWorkers();
  if (power_signal_ != nullptr) power_signal_->Pulse();
  obs::Instant(&serve_->obs(), "node.boot", "cluster", name_, {});
  SWAP_LOG(kInfo, "cluster") << name_ << " booted (power on)";
}

}  // namespace swapserve::cluster
