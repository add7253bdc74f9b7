// Replication repair: keep every model at its configured copy count.
//
// A "copy" of a model on a node is either a live engine (kRunning — the
// weights are in GPU memory) or a restorable snapshot payload (tier kHost
// or kNvme). Placeholders (kRemote) are metadata, not copies. When a node
// holding a copy dies, the fleet's effective replication factor drops; the
// repairer computes each model's deficit against
// min(cluster.replicate, eligible nodes) and walks the same
// ReplicaRingOrder the eager spread used — skipping down nodes and
// existing holders — launching background fetches into placeholder-holding
// standbys until the factor is restored. Failover and rejoin scan at once.
//
// The periodic scan runs on a sim::GridLoop (grid, park and tie semantics
// live there). With a fleet heartbeat it parks after a pass that finds the
// heartbeat parked, every model at its target and nothing in flight. Every
// change that can lower a copy count or raise the target pokes it: an
// engine entering or leaving kRunning, a snapshot payload dropping to
// kRemote or being removed, and a heartbeat wake (a node power change,
// partition or fault plan). Without a heartbeat it scans every interval.
//
// One deliberate gap: if the only surviving copy is a running engine,
// there is no snapshot payload to stream, and the repairer will not force
// a swap-out of a hot model just to photocopy it. The deficit heals at
// that model's next natural checkpoint; availability is already satisfied
// by the running replica. The property suite's "replication restored"
// invariant counts running engines for exactly this reason.
//
// Models are named by their row in the fleet's BackendTable (whose rows
// are `models` in order), so a scan and the park test index the table.
//
// In-flight repairs are ledgered ((model, node) cells, bounded by
// cluster.repair_concurrency) and count toward a model's copies while
// pending so back-to-back scans never overshoot the target. The ledger
// drains to zero after every chaos run (property-test invariant).

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "cluster/backend_table.h"
#include "cluster/node.h"
#include "cluster/replication.h"
#include "core/config.h"
#include "sim/grid_loop.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace swapserve::cluster {

class HealthMonitor;

class ReplicationRepairer {
 public:
  struct Options {
    int replicate = 1;
    int concurrency = 2;
    sim::SimDuration interval = sim::Seconds(5);
    // The fleet heartbeat, if any. The scan parks only while it is parked
    // too: a beating heartbeat can change membership on any beat, and a
    // beat queued ahead of a resumed scan would run before it.
    HealthMonitor* monitor = nullptr;
  };

  // `models` are the fleet-level entries (home node fields intact), the
  // rows of `backends`, which must outlive the repairer. With a monitor,
  // takes its wake handler and every node's residency and drop handlers.
  ReplicationRepairer(sim::Simulation& sim, std::vector<Node*> nodes,
                      SnapshotReplicator& replicator, BackendTable& backends,
                      std::vector<core::ModelEntry> models, Options options);
  ~ReplicationRepairer();
  ReplicationRepairer(const ReplicationRepairer&) = delete;
  ReplicationRepairer& operator=(const ReplicationRepairer&) = delete;

  // Spawn the periodic deficit scan (sim::GridLoop lifecycle).
  void Start() { loop_.Start(); }
  void Stop() { loop_.Stop(); }
  bool running() const { return loop_.running(); }

  // One deficit scan: launches up to the concurrency budget of background
  // repair fetches; returns how many were launched. Failover and rejoin
  // call this directly so repair starts ahead of the next tick.
  int ScanOnce();

  // Copies of model row `model` on alive, non-kDown nodes: running
  // engines plus restorable payloads plus in-flight repairs (each node
  // counted once).
  int CountCopies(int model) const;

  // Called for every repair fetch a scan launches (tests log them).
  using LaunchHook = std::function<void(const std::string& model, int node)>;
  void SetLaunchHook(LaunchHook hook) { launch_hook_ = std::move(hook); }

  int in_flight() const { return in_flight_; }
  // Periodic scan passes run so far (failover/rejoin scans not included).
  std::uint64_t passes() const { return loop_.passes(); }
  std::uint64_t launched() const { return launched_; }
  std::uint64_t completed() const { return completed_; }
  std::uint64_t failed() const { return failed_; }

 private:
  bool Eligible(const Node& node) const;
  // Does `node` hold a copy of model row `model` (see CountCopies)?
  bool HoldsCopy(int model, Node& node) const;
  // min(replicate, eligible nodes): the copies each model should have.
  int Target() const;
  // True when a scan would find a parked heartbeat, every model at its
  // target copy count and nothing in flight (never without a heartbeat).
  bool Settled() const;
  // Index of the (model row, node) cell in active_.
  std::size_t Slot(int model, int node) const {
    return static_cast<std::size_t>(model) * nodes_.size() +
           static_cast<std::size_t>(node);
  }

  sim::Simulation& sim_;
  std::vector<Node*> nodes_;
  SnapshotReplicator& replicator_;
  BackendTable& backends_;
  std::vector<core::ModelEntry> models_;
  Options options_;
  // Repair fetches in flight, by (model row, dst node) cell.
  std::vector<bool> active_;
  int in_flight_ = 0;
  sim::SimEvent wake_;  // the loop parks here
  sim::GridLoop loop_;
  LaunchHook launch_hook_;
  std::uint64_t launched_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace swapserve::cluster
