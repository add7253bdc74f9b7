#include "cluster/backend_table.h"

namespace swapserve::cluster {

BackendTable::BackendTable(const std::vector<Node*>& nodes,
                           const std::vector<core::ModelEntry>& models)
    : nodes_(static_cast<int>(nodes.size())),
      cells_(models.size() * nodes.size()) {
  for (const core::ModelEntry& m : models) {
    const int row = static_cast<int>(model_ids_.size());
    model_ids_.push_back(m.model_id);
    rows_.emplace(m.model_id, row);
    for (Node* node : nodes) {
      cell(row, node->id()).backend = node->serve().backend(m.model_id);
    }
  }
}

int BackendTable::Find(std::string_view model_id) const {
  auto it = rows_.find(model_id);
  return it == rows_.end() ? -1 : it->second;
}

}  // namespace swapserve::cluster
