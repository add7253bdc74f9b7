#include "cluster/placement.h"

#include "core/backend.h"
#include "engine/engine.h"

namespace swapserve::cluster {

PlacementPolicy::PlacementPolicy(PlacementMode mode, std::uint64_t seed,
                                 const BackendTable& backends)
    : mode_(mode), rng_(seed), backends_(backends) {}

double PlacementPolicy::Score(Node& node, int model) {
  // Nodes the health monitor distrusts take no new requests: dead machines
  // obviously, but also suspect ones (silence is evidence) — anything
  // routed there would sit behind a failure already being detected.
  // Rejoining nodes are heard and serving, so they score normally.
  if (!node.alive() || node.membership() == NodeState::kSuspect ||
      node.membership() == NodeState::kDown) {
    return kIneligible;
  }
  core::Backend* backend = backends_.backend(model, node.id());
  if (backend == nullptr) return kIneligible;
  if (backend->breaker.CoolingDown()) return kIneligible;
  double swap_s = 0;
  if (backend->engine->state() == engine::BackendState::kRunning ||
      backend->swap_in_progress) {
    swap_s = 0;  // already resident (or about to be)
  } else if (backend->has_snapshot) {
    swap_s = node.serve()
                 .ckpt_engine()
                 .EstimatedSwapInTime(backend->snapshot)
                 .ToSeconds();
  } else {
    swap_s = kColdStartPenaltyS;
  }
  return swap_s + kQueueCostS * static_cast<double>(node.Pressure());
}

Result<int> PlacementPolicy::Pick(const std::vector<Node*>& nodes,
                                  int model) {
  std::vector<int> eligible;
  int best = -1;
  double best_score = kIneligible;
  for (Node* node : nodes) {
    const double score = Score(*node, model);
    if (score >= kIneligible) continue;
    eligible.push_back(node->id());
    if (score < best_score) {
      best_score = score;
      best = node->id();
    }
  }
  if (eligible.empty()) {
    return Unavailable("no eligible node hosts " + backends_.model_id(model) +
                       " (every replica is missing, quarantined, or on a "
                       "suspect/down node)");
  }
  int picked = best;
  if (mode_ == PlacementMode::kRandom) {
    picked = eligible[static_cast<std::size_t>(rng_.UniformInt(
        0, static_cast<std::int64_t>(eligible.size()) - 1))];
  }
  // Hard invariant: placement never targets a quarantined backend or a
  // node the health monitor distrusts.
  for (Node* node : nodes) {
    if (node->id() != picked) continue;
    core::Backend* backend = backends_.backend(model, picked);
    SWAP_CHECK_MSG(
        backend != nullptr && !backend->breaker.CoolingDown(),
        "placement picked a quarantined node");
    SWAP_CHECK_MSG(node->alive() &&
                       node->membership() != NodeState::kSuspect &&
                       node->membership() != NodeState::kDown,
                   "placement picked a suspect or down node");
  }
  return picked;
}

}  // namespace swapserve::cluster
