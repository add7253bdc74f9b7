// One machine of a simulated fleet.
//
// A Node owns the hardware a single-machine SwapServe deployment owns —
// GPUs with their PCIe links and an NVMe volume — plus the SwapServe
// instance assembled on top of them. Construction mirrors the
// single-machine test fixture exactly (same device names, same ordering),
// so a one-node cluster schedules the same events as a plain SwapServe and
// the golden traces stay byte-identical.
//
// A node is also the fleet's fault domain: Crash() powers the machine off
// (engines crash, host-RAM snapshot payloads degrade to placeholders,
// workers park) and Boot() powers it back on. The `membership` field is
// the fleet's *belief* about the node — written by cluster::HealthMonitor
// from heartbeat evidence, read by placement and repair — and is
// deliberately distinct from `alive`, the ground truth: a freshly crashed
// node stays kHealthy until suspicion accrues, and a rebooted one stays
// kDown until the next beat hears it.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/swap_serve.h"
#include "hw/gpu_device.h"
#include "hw/gpu_spec.h"
#include "hw/link.h"
#include "model/catalog.h"
#include "sim/simulation.h"
#include "sim/sync.h"

namespace swapserve::cluster {

// Fleet-side membership belief about a node (healthy -> suspect -> down ->
// rejoining -> healthy). Driven by cluster::HealthMonitor.
enum class NodeState { kHealthy, kSuspect, kDown, kRejoining };

std::string_view NodeStateName(NodeState s);

class Node {
 public:
  // `config` is this node's slice of the fleet config: its home models
  // plus standby replicas of everyone else's (see ClusterServe).
  Node(sim::Simulation& sim, int id, int gpu_count, core::Config config,
       const model::ModelCatalog& catalog, core::SwapServeOptions options);
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  int id() const { return id_; }
  const std::string& name() const { return name_; }
  core::SwapServe& serve() { return *serve_; }
  hw::StorageDevice& storage() { return storage_; }
  const std::vector<std::unique_ptr<hw::GpuDevice>>& gpus() const {
    return gpus_;
  }

  // Total demand (queued + in-flight requests) across every backend on
  // this node — the queue-pressure term of the placement score.
  std::size_t Pressure();

  // --- fault domain ------------------------------------------------------
  // Ground truth: is the machine powered on? (Distinct from `membership`,
  // the fleet's heartbeat-derived belief.)
  bool alive() const { return alive_; }
  NodeState membership() const { return membership_; }
  void set_membership(NodeState s) { membership_ = s; }

  // Power the machine off: every resident engine crashes (device memory
  // freed, in-flight generations abort through the restart epoch),
  // host-RAM snapshot payloads degrade to kRemote placeholders (the RAM is
  // gone; NVMe copies survive), and the workers park so the dead machine
  // serves nothing. Queued requests stay in their channels for the fleet's
  // failover drain.
  void Crash();

  // Power the machine back on: workers resume, and each crashed engine is
  // restored on its next request through the scheduler's reservation.
  // Snapshot re-fetch is the fleet's job (ClusterServe::RejoinNode) — the
  // node itself only reboots.
  void Boot();

  std::uint64_t crashes() const { return crashes_; }
  std::uint64_t boots() const { return boots_; }

  // Nullable. Pulsed by Crash() and Boot(): the fleet heartbeat parks
  // while every node is healthy and wakes on a power change.
  void BindPowerSignal(sim::SimEvent* signal) { power_signal_ = signal; }

 private:
  int id_;
  std::string name_;
  hw::HostSpec host_;
  hw::StorageDevice storage_;
  std::vector<std::unique_ptr<hw::GpuDevice>> gpus_;
  std::unique_ptr<core::SwapServe> serve_;
  bool alive_ = true;
  NodeState membership_ = NodeState::kHealthy;
  std::uint64_t crashes_ = 0;
  std::uint64_t boots_ = 0;
  sim::SimEvent* power_signal_ = nullptr;
};

}  // namespace swapserve::cluster
