#include "cluster/health.h"

#include <algorithm>
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
      last_heard_(nodes_.size(), sim.Now()),
      wake_(sim),
      loop_(sim, options_.interval, &wake_,
            {.pass =
                 [this]() -> sim::Task<> {
                   TickOnce();
                   beat_work_ = on_beat_ ? on_beat_() : sim::kNever;
                   co_return;
                 },
             .next_work =
                 [this] { return AllHealthy() ? beat_work_ : sim_.Now(); },
             .on_resume =
                 [this](sim::SimTime skipped) {
                   // Every skipped beat would have heard every node.
                   for (sim::SimTime& heard : last_heard_) {
                     heard = std::max(heard, skipped);
                   }
                   beat_work_ = sim_.Now();  // a wake is news: take a beat
                   if (on_wake_) on_wake_();
                 }}) {
  SWAP_CHECK_MSG(options_.interval.ns() > 0,
                 "heartbeat interval must be positive");
  for (Node* node : nodes_) {
    node->BindPowerSignal(&wake_);
    node->serve().fault_injector().BindConfigureSignal(&wake_);
  }
  fabric_.BindPartitionSignal(&wake_);
}

HealthMonitor::~HealthMonitor() {
  for (Node* node : nodes_) {
    node->BindPowerSignal(nullptr);
    node->serve().fault_injector().BindConfigureSignal(nullptr);
  }
  fabric_.BindPartitionSignal(nullptr);
}

void HealthMonitor::Start() {
  beat_work_ = sim_.Now();  // no beat has reported yet
  loop_.Start();
}

bool HealthMonitor::AllHealthy() const {
  // Heard() again rather than last_heard_: the beat handler may have just
  // crashed or partitioned a node the membership round heard.
  for (const Node* node : nodes_) {
    if (node->membership() != NodeState::kHealthy || !Heard(node->id())) {
      return false;
    }
  }
  return true;
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
  sim::SimTime heard = last_heard_[node];
  if (loop_.parked()) {
    heard = std::max(heard, loop_.grid().Before(sim_.Now() + sim::Nanos(1)));
  }
  const sim::SimDuration silence = sim_.Now() - heard;
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
