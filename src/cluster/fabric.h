// Inter-node fabric: the cluster's network, modelled as one hw::Link per
// ordered node pair (duplex — i->j and j->i are independent channels, the
// way a full-duplex NIC behaves). Transfers are chunked so an urgent
// on-demand fetch can interleave ahead of a background replication stream
// at chunk boundaries, exactly like the PCIe links inside a node. The
// fabric itself never fails: a node's fault domain is its machine
// (cluster::Node::Crash), and a dead node simply stops being a source.

#pragma once

#include <memory>
#include <vector>

#include "hw/link.h"
#include "sim/simulation.h"
#include "util/units.h"

namespace swapserve::cluster {

class Fabric {
 public:
  // Every node-pair channel: per-direction bandwidth in gigabits/s (NIC
  // units) and per-transfer setup latency.
  static constexpr double kGbps = 100.0;
  static constexpr sim::SimDuration kSetupLatency = sim::Micros(10);

  Fabric(sim::Simulation& sim, int nodes);
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  int nodes() const { return nodes_; }
  hw::Link& link(int src, int dst);
  const hw::Link& link(int src, int dst) const;

  // Move `size` from src to dst; suspends for queueing + wire time.
  sim::Task<> Transfer(int src, int dst, Bytes size,
                       hw::TransferPriority priority);

  // Queue-aware estimate for one transfer on the src->dst channel.
  sim::SimDuration EstimatedTransferTime(int src, int dst, Bytes size) const;

  // Bytes moved across every channel (bench + property-test accounting).
  Bytes total_transferred() const;

 private:
  int nodes_;
  // Index src * nodes + dst; the diagonal entries stay null.
  std::vector<std::unique_ptr<hw::Link>> links_;
};

}  // namespace swapserve::cluster
