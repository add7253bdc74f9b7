// Restore-target placement: which node should serve the next request for
// (or receive a migration of) a model.
//
// The locality-aware policy scores every candidate node by how long that
// node would take to start serving: zero swap cost if the model is already
// resident there, the queue-aware EstimatedSwapInTime if a snapshot is
// local (which, through the remote-fetch term, prices a placeholder at
// source-read + fabric time), and a cold-start penalty if the node has no
// snapshot at all — plus a queue-pressure term so a busy node loses to an
// idle one even when both hold the payload. The random policy picks
// uniformly among eligible nodes and exists as the bench baseline.
//
// Quarantined backends (breaker open and cooling down) are never eligible,
// on either policy, and neither are dead machines or nodes whose
// membership is suspect or down — routing to a node the health monitor
// distrusts would park requests behind a failure the fleet has already
// detected. Rejoining nodes are eligible again (they are heard and
// serving). Pick enforces all of this with a hard check (the chaos
// property suites lean on it).
//
// Models are named by their row in the fleet's BackendTable, so a score
// indexes the table instead of looking the backend up by name.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/backend_table.h"
#include "cluster/node.h"
#include "sim/random.h"
#include "util/status.h"

namespace swapserve::cluster {

enum class PlacementMode { kLocalityAware, kRandom };

class PlacementPolicy {
 public:
  // `backends` must outlive the policy.
  PlacementPolicy(PlacementMode mode, std::uint64_t seed,
                  const BackendTable& backends);

  // Cost in seconds of serving the next request for model row `model` on
  // `node`; kIneligible when the node cannot take it (no backend,
  // quarantined, dead, or membership suspect/down).
  double Score(Node& node, int model);

  // Choose a node for model row `model` among `nodes`. Ties break toward
  // the lowest node id; kRandom draws uniformly over the eligible set.
  Result<int> Pick(const std::vector<Node*>& nodes, int model);

  PlacementMode mode() const { return mode_; }

  static constexpr double kIneligible = 1e18;
  // Charged when a node would have to cold-start the model (no snapshot):
  // on the order of a full engine initialization.
  static constexpr double kColdStartPenaltyS = 300.0;
  // Per queued/in-flight request on the node — the contention term that
  // makes migration scores invert under load.
  static constexpr double kQueueCostS = 0.5;

 private:
  PlacementMode mode_;
  sim::Rng rng_;
  const BackendTable& backends_;
};

}  // namespace swapserve::cluster
