#include "cluster/fabric.h"

#include <algorithm>
#include <string>
#include <utility>

#include "util/status.h"

namespace swapserve::cluster {
namespace {

// Chunk size for fabric transfers: small enough that an urgent fetch
// waits at most one chunk behind background replication, large enough
// that per-chunk bookkeeping stays negligible.
constexpr Bytes kFabricChunk = MiB(256);

}  // namespace

Fabric::Fabric(sim::Simulation& sim, int nodes, double gbps,
               double latency_us)
    : sim_(sim),
      nodes_(nodes),
      links_(static_cast<std::size_t>(nodes) * nodes),
      pairs_(static_cast<std::size_t>(nodes) * nodes) {
  const BytesPerSecond bandwidth = GBps(gbps / 8.0);  // gigabits -> bytes
  const sim::SimDuration setup = sim::Micros(latency_us);
  for (int src = 0; src < nodes; ++src) {
    for (int dst = 0; dst < nodes; ++dst) {
      if (src == dst) continue;
      links_[static_cast<std::size_t>(src) * nodes + dst] =
          std::make_unique<hw::Link>(
              sim,
              "fabric:node" + std::to_string(src) + "->node" +
                  std::to_string(dst),
              bandwidth, setup);
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

const Fabric::PairState* Fabric::pair(int src, int dst) const {
  SWAP_CHECK(src != dst && src >= 0 && dst >= 0 && src < nodes_ &&
             dst < nodes_);
  return &pairs_[static_cast<std::size_t>(src) * nodes_ + dst];
}

void Fabric::Partition(int a, int b, sim::SimDuration duration,
                       double degrade) {
  SWAP_CHECK(degrade == 0.0 || degrade >= 1.0);
  ++partitions_;
  const sim::SimTime healed_at = sim_.Now() + duration;
  for (const auto& [src, dst] : {std::pair{a, b}, std::pair{b, a}}) {
    PairState& p = pairs_[static_cast<std::size_t>(src) * nodes_ + dst];
    const bool active = sim_.Now() < p.healed_at;
    if (healed_at > p.healed_at) p.healed_at = healed_at;
    // Harsher mode wins while partitions overlap: an active blackhole is
    // not relaxed by a later degrade, and any new blackhole cuts the pair.
    if (!active) {
      p.degrade = degrade;
    } else if (degrade == 0.0 || p.degrade == 0.0) {
      p.degrade = 0.0;
    } else {
      p.degrade = std::max(p.degrade, degrade);
    }
  }
  if (partition_signal_ != nullptr) partition_signal_->Pulse();
}

bool Fabric::Reachable(int src, int dst) const {
  const PairState* p = pair(src, dst);
  return sim_.Now() >= p->healed_at || p->degrade != 0.0;
}

double Fabric::DegradeFactor(int src, int dst) const {
  const PairState* p = pair(src, dst);
  if (sim_.Now() >= p->healed_at || p->degrade == 0.0) return 1.0;
  return p->degrade;
}

sim::Task<> Fabric::Transfer(int src, int dst, Bytes size,
                             hw::TransferPriority priority) {
  // A blackholed pair admits nothing until it heals; re-check after waking
  // because a new partition may have landed while we slept.
  while (!Reachable(src, dst)) {
    co_await sim_.WaitUntil(pair(src, dst)->healed_at);
  }
  hw::TransferOptions options;
  options.chunk_bytes = kFabricChunk;
  options.priority = priority;
  const double factor = DegradeFactor(src, dst);
  if (factor > 1.0) {
    options.bandwidth = BytesPerSecond(
        link(src, dst).bandwidth().bytes_per_sec() / factor);
  }
  co_await link(src, dst).TransferChunked(size, options);
}

sim::SimDuration Fabric::EstimatedTransferTime(int src, int dst,
                                               Bytes size) const {
  sim::SimDuration est = link(src, dst).EstimatedTransferTime(size);
  const PairState* p = pair(src, dst);
  if (sim_.Now() < p->healed_at) {
    if (p->degrade == 0.0) {
      est += p->healed_at - sim_.Now();  // wait out the blackhole first
    } else {
      est = sim::SimDuration(
          static_cast<std::int64_t>(est.ns() * p->degrade));
    }
  }
  return est;
}

Bytes Fabric::total_transferred() const {
  Bytes total{0};
  for (const auto& l : links_) {
    if (l != nullptr) total += l->total_transferred();
  }
  return total;
}

void Fabric::BindObservability(obs::Observability* obs) {
  for (auto& l : links_) {
    if (l != nullptr) l->BindObservability(obs);
  }
}

}  // namespace swapserve::cluster
