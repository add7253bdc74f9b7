// Inter-node fabric: the cluster's network, modelled as one hw::Link per
// ordered node pair (duplex — i->j and j->i are independent channels, the
// way a full-duplex NIC behaves). Transfers are chunked so an urgent
// on-demand fetch can interleave ahead of a background replication stream
// at chunk boundaries, exactly like the PCIe links inside a node.
//
// A node pair can be *partitioned* for a bounded duration (the
// node.partition fault point): a blackhole admits no new transfers until
// it heals (admission waits out the partition — the way TCP retries ride
// out a routing flap), while a degraded pair still moves bytes at reduced
// bandwidth. Transfers already on the wire when a partition starts are
// not clawed back. Heartbeats consult Reachable(), so the health monitor
// sees partitions through the same path payloads take.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "hw/link.h"
#include "obs/observability.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "util/units.h"

namespace swapserve::cluster {

class Fabric {
 public:
  // `gbps` is per-direction channel bandwidth in gigabits/s (NIC units);
  // `latency_us` is the per-transfer setup latency.
  Fabric(sim::Simulation& sim, int nodes, double gbps, double latency_us);
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  int nodes() const { return nodes_; }
  hw::Link& link(int src, int dst);
  const hw::Link& link(int src, int dst) const;

  // Move `size` from src to dst; suspends for queueing + wire time. A
  // blackholed pair waits for the partition to heal before admitting the
  // transfer; a degraded pair runs at bandwidth / degrade factor.
  sim::Task<> Transfer(int src, int dst, Bytes size,
                       hw::TransferPriority priority);

  // Queue-aware estimate for one transfer on the src->dst channel,
  // including the remaining blackhole wait and any degrade factor.
  sim::SimDuration EstimatedTransferTime(int src, int dst, Bytes size) const;

  // Cut (degrade == 0, a blackhole) or slow (degrade > 1, bandwidth
  // divided by the factor) both directions between `a` and `b` for
  // `duration`. Overlapping partitions extend the healing time and the
  // harsher mode wins while both are active.
  void Partition(int a, int b, sim::SimDuration duration,
                 double degrade = 0.0);
  // Nullable. Pulsed by every Partition(): the fleet heartbeat parks while
  // every node is heard and wakes when reachability may have dropped.
  void BindPartitionSignal(sim::SimEvent* signal) {
    partition_signal_ = signal;
  }

  // False while an active blackhole separates the pair (either direction
  // query — partitions are symmetric). Degraded pairs stay reachable.
  bool Reachable(int src, int dst) const;
  // Bandwidth divisor currently applied to src->dst (1.0 = healthy).
  double DegradeFactor(int src, int dst) const;

  std::uint64_t partitions() const { return partitions_; }

  // Bytes moved across every channel (bench + property-test accounting).
  Bytes total_transferred() const;

  void BindObservability(obs::Observability* obs);

 private:
  struct PairState {
    sim::SimTime healed_at;  // partition active while Now() < healed_at
    double degrade = 0.0;    // 0 = blackhole, > 1 = bandwidth divisor
  };

  const PairState* pair(int src, int dst) const;

  sim::Simulation& sim_;
  int nodes_;
  // Index src * nodes + dst; the diagonal entries stay null.
  std::vector<std::unique_ptr<hw::Link>> links_;
  std::vector<PairState> pairs_;
  std::uint64_t partitions_ = 0;
  sim::SimEvent* partition_signal_ = nullptr;
};

}  // namespace swapserve::cluster
