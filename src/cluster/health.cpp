#include "cluster/health.h"

#include <string>
#include <utility>

#include "obs/observability.h"
#include "util/log.h"

namespace swapserve::cluster {

HealthMonitor::HealthMonitor(sim::Simulation& sim, std::vector<Node*> nodes,
                             Fabric& fabric, Options options)
    : sim_(sim),
      nodes_(std::move(nodes)),
      fabric_(fabric),
      options_(options),
      last_heard_(nodes_.size(), sim.Now()) {}

void HealthMonitor::Start() {
  SWAP_CHECK_MSG(!running_, "health monitor already running");
  running_ = true;
  sim_.Go([this]() -> sim::Task<> {
    while (running_) {
      co_await sim_.Delay(options_.interval);
      if (!running_) break;
      TickOnce();
      if (on_beat_) on_beat_();
    }
  });
}

bool HealthMonitor::Heard(int node) const {
  if (!nodes_[node]->alive()) return false;
  bool any_peer_alive = false;
  for (const Node* peer : nodes_) {
    if (peer->id() == node || !peer->alive()) continue;
    any_peer_alive = true;
    if (fabric_.Reachable(node, peer->id())) return true;
  }
  // No alive peer to gossip through: the monitor hears the node directly
  // rather than declaring the last machine standing dead.
  return !any_peer_alive;
}

double HealthMonitor::Phi(int node) const {
  const sim::SimDuration silence = sim_.Now() - last_heard_[node];
  return static_cast<double>(silence.ns()) /
         static_cast<double>(options_.interval.ns());
}

void HealthMonitor::Transition(Node& node, NodeState to) {
  const NodeState from = node.membership();
  if (from == to) return;
  node.set_membership(to);
  obs::Observability* obs = &node.serve().obs();
  obs::SetGauge(obs, "swapserve_node_membership", {{"node", node.name()}},
                static_cast<double>(to));
  obs::Instant(obs, {"membership:", NodeStateName(to)}, "cluster",
               node.name(), {{"from", NodeStateName(from)}});
  SWAP_LOG(kInfo, "cluster")
      << node.name() << " membership " << NodeStateName(from) << " -> "
      << NodeStateName(to);
}

void HealthMonitor::TickOnce() {
  for (Node* node : nodes_) {
    const int id = node->id();
    if (Heard(id)) {
      last_heard_[id] = sim_.Now();
      switch (node->membership()) {
        case NodeState::kSuspect:
          Transition(*node, NodeState::kHealthy);
          break;
        case NodeState::kDown:
          ++rejoins_;
          Transition(*node, NodeState::kRejoining);
          if (on_rejoin_) on_rejoin_(id);
          break;
        case NodeState::kRejoining:
          // Heard on a second consecutive beat: fully re-admitted.
          Transition(*node, NodeState::kHealthy);
          break;
        case NodeState::kHealthy:
          break;
      }
      continue;
    }
    const sim::SimDuration silence = sim_.Now() - last_heard_[id];
    switch (node->membership()) {
      case NodeState::kHealthy:
        if (silence >= options_.suspect_after) {
          ++suspicions_;
          Transition(*node, NodeState::kSuspect);
        }
        break;
      case NodeState::kSuspect:
      case NodeState::kRejoining:
        if (silence >= options_.down_after) {
          ++downs_;
          Transition(*node, NodeState::kDown);
          if (on_down_) on_down_(id);
        }
        break;
      case NodeState::kDown:
        break;
    }
  }
}

}  // namespace swapserve::cluster
