// Replication repair: keep every model at its configured copy count.
//
// A "copy" of a model on a node is either a live engine (kRunning — the
// weights are in GPU memory) or a restorable snapshot payload (tier kHost
// or kNvme). Placeholders (kRemote) are metadata, not copies. When a node
// holding a copy dies, the fleet's effective replication factor drops; the
// repairer scans on a fixed cadence (and immediately after failover and
// rejoin), computes each model's deficit against
// min(cluster.replicate, eligible nodes), and walks the same
// ReplicaRingOrder the eager spread used — skipping down nodes and
// existing holders — launching background fetches into placeholder-holding
// standbys until the factor is restored.
//
// One deliberate gap: if the only surviving copy is a running engine,
// there is no snapshot payload to stream, and the repairer will not force
// a swap-out of a hot model just to photocopy it. The deficit heals at
// that model's next natural checkpoint; availability is already satisfied
// by the running replica. The property suite's "replication restored"
// invariant counts running engines for exactly this reason.
//
// In-flight repairs are ledgered ((model, node) pairs, bounded by
// cluster.repair_concurrency) and count toward a model's copies while
// pending so back-to-back scans never overshoot the target. The ledger
// drains to zero after every chaos run (property-test invariant).

#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cluster/node.h"
#include "cluster/replication.h"
#include "core/config.h"
#include "sim/simulation.h"
#include "sim/task.h"

namespace swapserve::cluster {

class ReplicationRepairer {
 public:
  struct Options {
    int replicate = 1;
    int concurrency = 2;
    sim::SimDuration interval = sim::Seconds(5);
  };

  // `models` are the fleet-level entries (home node fields intact).
  ReplicationRepairer(sim::Simulation& sim, std::vector<Node*> nodes,
                      SnapshotReplicator& replicator,
                      std::vector<core::ModelEntry> models, Options options);
  ReplicationRepairer(const ReplicationRepairer&) = delete;
  ReplicationRepairer& operator=(const ReplicationRepairer&) = delete;

  // Spawn the periodic deficit scan; Stop() lets the current pass finish.
  // Each Start() gets a new generation, so a Stop()+Start() never leaves
  // two loops scanning.
  void Start();
  void Stop();
  bool running() const { return running_; }

  // One deficit scan: launches up to the concurrency budget of background
  // repair fetches; returns how many were launched. Failover and rejoin
  // call this directly so repair starts ahead of the next tick.
  int ScanOnce();

  // Copies of `model_id` on alive, non-kDown nodes: running engines plus
  // restorable payloads plus in-flight repairs (each node counted once).
  int CountCopies(const std::string& model_id) const;

  int in_flight() const { return static_cast<int>(active_.size()); }
  // Periodic scan passes run so far (failover/rejoin scans not included).
  std::uint64_t passes() const { return passes_; }
  std::uint64_t launched() const { return launched_; }
  std::uint64_t completed() const { return completed_; }
  std::uint64_t failed() const { return failed_; }

 private:
  bool Eligible(const Node& node) const;

  sim::Simulation& sim_;
  std::vector<Node*> nodes_;
  SnapshotReplicator& replicator_;
  std::vector<core::ModelEntry> models_;
  Options options_;
  std::set<std::pair<std::string, int>> active_;  // (model, dst node)
  bool running_ = false;
  std::uint64_t generation_ = 0;  // bumped by Start()/Stop(); stale loops exit
  std::uint64_t passes_ = 0;
  std::uint64_t launched_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace swapserve::cluster
