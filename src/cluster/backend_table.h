// (model, node) -> backend, resolved once for the whole fleet.
//
// Every node builds its backends at construction and never moves them, so
// the fleet resolves each model's backend on each node once. Placement
// scoring, the pick check, the repair scan and the failover drain then
// index this table instead of string-scanning SwapServe::backend() per
// node. Rows follow the fleet's model list (config order), which is also
// the order of every node's own backends; a cell is empty where the model
// did not fit the node.
//
// A cell also holds the (model, node) cluster series on that node's
// registry: routed requests, payload fetches and repair launches. Each is
// resolved on its first write (obs/observability.h, "handle slots").

#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/node.h"
#include "core/config.h"
#include "obs/metrics.h"

namespace swapserve::cluster {

class BackendTable {
 public:
  struct Cell {
    core::Backend* backend = nullptr;
    obs::Counter* routed = nullptr;    // swapserve_cluster_routed_total
    obs::Counter* fetched = nullptr;   // swapserve_cluster_fetch_total
    obs::Counter* repaired = nullptr;  // swapserve_cluster_repair_total
  };

  BackendTable() = default;
  BackendTable(const std::vector<Node*>& nodes,
               const std::vector<core::ModelEntry>& models);

  // Row of `model_id`, or -1 for a model the fleet does not serve.
  int Find(std::string_view model_id) const;

  int models() const { return static_cast<int>(model_ids_.size()); }
  const std::string& model_id(int model) const {
    return model_ids_[static_cast<std::size_t>(model)];
  }
  Cell& cell(int model, int node) { return cells_[Index(model, node)]; }
  core::Backend* backend(int model, int node) const {
    return cells_[Index(model, node)].backend;
  }

 private:
  std::size_t Index(int model, int node) const {
    return static_cast<std::size_t>(model * nodes_ + node);
  }

  int nodes_ = 0;
  std::vector<std::string> model_ids_;
  std::map<std::string, int, std::less<>> rows_;
  std::vector<Cell> cells_;
};

}  // namespace swapserve::cluster
