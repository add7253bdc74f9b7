#include "cluster/fabric.h"

#include <string>

#include "util/status.h"

namespace swapserve::cluster {
namespace {

// Chunk size for fabric transfers: small enough that an urgent fetch
// waits at most one chunk behind background replication, large enough
// that per-chunk bookkeeping stays negligible.
constexpr Bytes kFabricChunk = MiB(256);

}  // namespace

Fabric::Fabric(sim::Simulation& sim, int nodes)
    : nodes_(nodes), links_(static_cast<std::size_t>(nodes) * nodes) {
  const BytesPerSecond bandwidth = GBps(kGbps / 8.0);  // gigabits -> bytes
  for (int src = 0; src < nodes; ++src) {
    for (int dst = 0; dst < nodes; ++dst) {
      if (src == dst) continue;
      links_[static_cast<std::size_t>(src) * nodes + dst] =
          std::make_unique<hw::Link>(
              sim,
              "fabric:node" + std::to_string(src) + "->node" +
                  std::to_string(dst),
              bandwidth, kSetupLatency);
    }
  }
}

hw::Link& Fabric::link(int src, int dst) {
  SWAP_CHECK(src != dst && src >= 0 && dst >= 0 && src < nodes_ &&
             dst < nodes_);
  return *links_[static_cast<std::size_t>(src) * nodes_ + dst];
}

const hw::Link& Fabric::link(int src, int dst) const {
  SWAP_CHECK(src != dst && src >= 0 && dst >= 0 && src < nodes_ &&
             dst < nodes_);
  return *links_[static_cast<std::size_t>(src) * nodes_ + dst];
}

sim::Task<> Fabric::Transfer(int src, int dst, Bytes size,
                             hw::TransferPriority priority) {
  hw::TransferOptions options;
  options.chunk_bytes = kFabricChunk;
  options.priority = priority;
  co_await link(src, dst).TransferChunked(size, options);
}

sim::SimDuration Fabric::EstimatedTransferTime(int src, int dst,
                                               Bytes size) const {
  return link(src, dst).EstimatedTransferTime(size);
}

Bytes Fabric::total_transferred() const {
  Bytes total{0};
  for (const auto& l : links_) {
    if (l != nullptr) total += l->total_transferred();
  }
  return total;
}

}  // namespace swapserve::cluster
