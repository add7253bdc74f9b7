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
      wake_(sim) {
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
  SWAP_CHECK_MSG(!running_, "health monitor already running");
  running_ = true;
  anchor_ = sim_.Now();
  const std::uint64_t generation = ++generation_;
  sim_.Go([this, generation]() -> sim::Task<> {
    sim::SimTime next = anchor_ + options_.interval;
    while (generation_ == generation) {
      co_await sim_.WaitUntil(next);
      if (generation_ != generation) break;
      ++beats_;
      TickOnce();
      const sim::SimTime work = on_beat_ ? on_beat_() : sim::kNever;
      const sim::SimTime beat = sim_.Now();
      next = beat + options_.interval;
      // The first beat the handler could act on; park unless it is the
      // next one or a node still needs watching.
      const sim::SimTime first_work =
          work == sim::kNever ? sim::kNever : BeatAtOrAfter(work);
      if (first_work <= next || !AllHealthy()) continue;
      parked_ = true;
      const std::uint64_t epoch = ++park_epoch_;
      if (first_work != sim::kNever) {
        const sim::SimTime resume = BeatBefore(first_work);
        sim_.ScheduleAt(resume, [this, epoch] {
          if (epoch == park_epoch_) wake_.Pulse();
        });
      }
      co_await wake_.Wait();
      if (generation_ != generation) break;
      parked_ = false;
      ++park_epoch_;  // a later arm wake-up belongs to a park that is over
      // Every beat skipped before now would have heard every node.
      const sim::SimTime skipped = BeatBefore(sim_.Now());
      if (skipped > beat) {
        for (sim::SimTime& heard : last_heard_) heard = skipped;
      }
      next = std::max(next, BeatAtOrAfter(sim_.Now()));
    }
  });
}

void HealthMonitor::Stop() {
  running_ = false;
  ++generation_;  // retire the running loop
  parked_ = false;
  ++park_epoch_;  // a pending arm wake-up now does nothing
  wake_.Pulse();  // release a parked loop's frame
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

sim::SimTime HealthMonitor::BeatAtOrAfter(sim::SimTime t) const {
  const std::int64_t interval = options_.interval.ns();
  const std::int64_t since = std::max<std::int64_t>(0, (t - anchor_).ns());
  return anchor_ +
         sim::SimDuration((since + interval - 1) / interval * interval);
}

sim::SimTime HealthMonitor::BeatBefore(sim::SimTime t) const {
  return BeatAtOrAfter(t) - options_.interval;
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
  if (parked_) heard = std::max(heard, BeatBefore(sim_.Now() + sim::Nanos(1)));
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
