// Heartbeat-driven failure detection for the fleet.
//
// Beats fall on a fixed grid: Start() plus whole multiples of `interval`.
// On a beat node i is *heard* iff its machine is alive: the fabric never
// fails, so a crash is the only silence. The suspicion level is
// phi-accrual in spirit but with a fixed beat: phi grows linearly with
// silence, and the suspect/down thresholds are expressed directly in
// seconds of silence.
//
// Membership state machine (written to Node::set_membership, read by
// placement and repair):
//
//   kHealthy --silence >= suspect_after--> kSuspect
//   kSuspect --heard--> kHealthy
//   kSuspect --silence >= down_after--> kDown     (fires on_down)
//   kDown    --heard--> kRejoining                (fires on_rejoin)
//   kRejoining --heard next beat--> kHealthy
//   kRejoining --silence >= down_after--> kDown   (died again mid-rejoin)
//
// The beat runs on a sim::GridLoop (grid, park and tie semantics live
// there). It parks while a beat could find nothing new: every node was
// heard and is kHealthy, and the beat handler reports no work before a
// later instant. Only a Node::Crash/Boot or a FaultInjector::Configure
// can change that, and each pulses wake_signal(); a wake always takes a
// beat, and every beat the park skipped counts as heard. An idle, healthy
// fleet schedules no heartbeat events at all.
//
// The monitor only observes and classifies; failover mechanics live in
// ClusterServe's handlers. Heartbeats are bookkeeping, not transfers —
// they never perturb fabric byte accounting or event schedules beyond the
// monitor's own timer, and a fleet with heartbeat_interval_s == 0 has no
// monitor at all.

#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "cluster/node.h"
#include "sim/grid_loop.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace swapserve::cluster {

class HealthMonitor {
 public:
  struct Options {
    sim::SimDuration interval = sim::Seconds(0.5);
    sim::SimDuration suspect_after = sim::Seconds(1.5);
    sim::SimDuration down_after = sim::Seconds(5.0);
  };
  // Handlers receive the node id. on_down runs after the membership write,
  // so placement already refuses the node when failover re-dispatches.
  using Handler = std::function<void(int)>;

  // Binds wake_signal() to every node and the nodes' fault injectors.
  HealthMonitor(sim::Simulation& sim, std::vector<Node*> nodes,
                Options options);
  ~HealthMonitor();
  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  void SetDownHandler(Handler h) { on_down_ = std::move(h); }
  void SetRejoinHandler(Handler h) { on_rejoin_ = std::move(h); }
  // Runs after every beat's membership round, on the same timer — the
  // node.* fault sweep rides the heartbeat instead of its own coroutine.
  // Returns the earliest instant at which it could act on a beat:
  // sim::kNever when only a wake signal can change that.
  using BeatHandler = std::function<sim::SimTime()>;
  void SetBeatHandler(BeatHandler h) { on_beat_ = std::move(h); }
  // Runs when a parked monitor resumes, before it queues its next beat.
  void SetWakeHandler(std::function<void()> h) { on_wake_ = std::move(h); }

  // Spawn the beat loop (sim::GridLoop lifecycle).
  void Start();
  void Stop() { loop_.Stop(); }
  bool running() const { return loop_.running(); }
  bool parked() const { return loop_.parked(); }

  // Pulsed by whatever can make a parked fleet's next beat differ.
  sim::SimEvent& wake_signal() { return wake_; }

  // One heartbeat round (also called by the loop; tests drive it directly).
  void TickOnce();

  // Seconds of silence divided by the beat interval — the suspicion level
  // (0 while the node is being heard; beats skipped while parked count as
  // heard).
  double Phi(int node) const;

  // Beats run by the loop (skipped ones not included).
  std::uint64_t beats() const { return loop_.passes(); }
  std::uint64_t suspicions() const { return suspicions_; }
  std::uint64_t downs() const { return downs_; }
  std::uint64_t rejoins() const { return rejoins_; }

 private:
  bool Heard(int node) const;
  void Transition(Node& node, NodeState to);
  // True when every node is kHealthy and would be heard now.
  bool AllHealthy() const;

  sim::Simulation& sim_;
  std::vector<Node*> nodes_;
  Options options_;
  std::vector<sim::SimTime> last_heard_;
  Handler on_down_;
  Handler on_rejoin_;
  BeatHandler on_beat_;
  std::function<void()> on_wake_;
  sim::SimEvent wake_;
  sim::GridLoop loop_;
  // What the last beat handler returned; Now() until a beat follows a wake.
  sim::SimTime beat_work_;
  std::uint64_t suspicions_ = 0;
  std::uint64_t downs_ = 0;
  std::uint64_t rejoins_ = 0;
};

}  // namespace swapserve::cluster
