// Shared bandwidth links: PCIe host<->device copies and storage reads.
//
// A Link models one DMA engine: transfers serialize on a single channel,
// charge size/bandwidth plus a fixed setup latency, and account total bytes
// moved. TransferChunked splits a transfer into chunks, charging setup once
// and yielding the channel between chunks so a higher-priority transfer
// (an urgent restore) can interleave ahead of background traffic (a lazy
// eviction drain). DuplexLink pairs independent D2H and H2D channels the
// way real PCIe DMA engines do, so an eviction and a restore can stream in
// opposite directions concurrently. StorageDevice wraps a Link with
// per-open overhead modelling file-system costs (dentry walks,
// GGUF/safetensors header parsing).

#pragma once

#include <coroutine>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>

#include "fault/fault_injector.h"
#include "obs/observability.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "util/units.h"

namespace swapserve::hw {

// Channel arbitration between chunked transfers. At each chunk boundary the
// highest-priority waiter goes next (FIFO within a priority).
enum class TransferPriority {
  kBackground = 0,  // eviction drains, prefetch
  kNormal = 1,      // default traffic
  kUrgent = 2,      // latency-critical restores
};

struct TransferOptions {
  // 0 = move the whole size as one chunk (monolithic).
  Bytes chunk_bytes{0};
  TransferPriority priority = TransferPriority::kNormal;
  // Override the link's physical rate (calibrated models carry their own
  // effective bandwidths which already include driver/pinning overhead).
  std::optional<BytesPerSecond> bandwidth;
  // Override the link's setup latency (charged once, on the first chunk).
  std::optional<sim::SimDuration> setup;
};

class Link {
 public:
  Link(sim::Simulation& sim, std::string name, BytesPerSecond bandwidth,
       sim::SimDuration setup_latency = sim::SimDuration(0));
  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  // Move `size` across the link; suspends for queueing + transfer time.
  sim::Task<> Transfer(Bytes size);

  // Move `size` in chunks. Setup latency is charged once; the channel is
  // yielded between chunks so waiting transfers interleave by priority.
  sim::Task<> TransferChunked(Bytes size, TransferOptions options);

  const std::string& name() const { return name_; }
  BytesPerSecond bandwidth() const { return bandwidth_; }
  Bytes total_transferred() const { return total_; }
  std::uint64_t transfer_count() const { return transfers_; }
  // Transfers currently queued or in flight.
  int in_flight() const { return in_flight_; }
  // Bytes admitted but not yet moved across the wire.
  Bytes pending_bytes() const { return pending_; }

  // Timing query (no queueing): setup plus wire time for `size` on an idle
  // link. Admission heuristics must include the setup term — for small
  // transfers it dominates the bandwidth division.
  sim::SimDuration IdleTransferTime(Bytes size) const;

  // Queue-aware estimate: the backlog already admitted (pending bytes plus
  // one setup per queued transfer) ahead of `size`'s own idle time.
  sim::SimDuration EstimatedTransferTime(Bytes size) const;

  // Publish per-link bandwidth-occupancy gauges and transfer spans
  // (nullable). Occupancy is derived as busy-seconds over wall-seconds;
  // the cumulative counter lets scrapers rate() it.
  void BindObservability(obs::Observability* obs) {
    obs_ = obs;
    in_flight_gauge_ = nullptr;
    bytes_counter_ = nullptr;
    busy_counter_ = nullptr;
  }

  // Nullable. Fault point "hw.link": stall-only (a degraded or retrained
  // lane delays the transfer; hard transfer errors surface at the ckpt
  // layer, which owns the retry/rollback semantics). The owner passed to
  // the injector is the link name.
  void BindFaultInjector(fault::FaultInjector* injector) {
    fault_ = injector;
  }

 private:
  struct ChannelWaiter {
    std::coroutine_handle<> handle;
    int priority = 0;
    std::uint64_t seq = 0;
  };

  // co_await AcquireChannel(p): takes the channel when idle, otherwise
  // queues by (priority desc, arrival asc).
  struct [[nodiscard]] ChannelAwaiter {
    Link* link;
    int priority;
    bool await_ready() {
      if (!link->channel_busy_) {
        link->channel_busy_ = true;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      link->EnqueueWaiter({h, priority, link->next_waiter_seq_++});
    }
    void await_resume() const noexcept {}
  };

  ChannelAwaiter AcquireChannel(TransferPriority priority) {
    return ChannelAwaiter{this, static_cast<int>(priority)};
  }
  void ReleaseChannel();
  void EnqueueWaiter(ChannelWaiter waiter);

  // Registry writes (no-ops when unbound); each series is resolved on its
  // first write.
  void SetInFlightGauge();
  void CountWireTime(Bytes bytes, sim::SimDuration wire);

  obs::Observability* obs_ = nullptr;
  obs::Gauge* in_flight_gauge_ = nullptr;
  obs::Counter* bytes_counter_ = nullptr;
  obs::Counter* busy_counter_ = nullptr;
  fault::FaultInjector* fault_ = nullptr;
  sim::Simulation& sim_;
  std::string name_;
  std::string track_;  // "link:<name>", the trace track of every span
  BytesPerSecond bandwidth_;
  sim::SimDuration setup_latency_;
  bool channel_busy_ = false;
  std::uint64_t next_waiter_seq_ = 0;
  std::deque<ChannelWaiter> waiters_;
  Bytes total_{0};
  Bytes pending_{0};
  std::uint64_t transfers_ = 0;
  int in_flight_ = 0;
};

// Independent D2H and H2D DMA channels over one physical connector, as in
// real PCIe: an eviction drain and a restore stream run concurrently at
// full rate in opposite directions.
class DuplexLink {
 public:
  DuplexLink(sim::Simulation& sim, const std::string& name,
             BytesPerSecond h2d_bandwidth, BytesPerSecond d2h_bandwidth,
             sim::SimDuration setup_latency = sim::SimDuration(0))
      : h2d_(sim, name + "-h2d", h2d_bandwidth, setup_latency),
        d2h_(sim, name + "-d2h", d2h_bandwidth, setup_latency) {}

  Link& h2d() { return h2d_; }
  Link& d2h() { return d2h_; }

  void BindObservability(obs::Observability* obs) {
    h2d_.BindObservability(obs);
    d2h_.BindObservability(obs);
  }

  void BindFaultInjector(fault::FaultInjector* injector) {
    h2d_.BindFaultInjector(injector);
    d2h_.BindFaultInjector(injector);
  }

 private:
  Link h2d_;
  Link d2h_;
};

// A storage volume (NVMe SSD or tmpfs) with open-file overhead.
class StorageDevice {
 public:
  StorageDevice(sim::Simulation& sim, std::string name,
                BytesPerSecond bandwidth, sim::SimDuration open_overhead);

  // Read a file of `size`; one open + sequential read. Urgent reads jump
  // queued background traffic at chunk boundaries on the read link.
  sim::Task<> ReadFile(Bytes size,
                       TransferPriority priority = TransferPriority::kNormal);
  // Read a model split across `shards` files (SafeTensors-style sharding).
  // Shards are read back-to-back on the same spindle/queue; the open of
  // shard N+1 overlaps the read of shard N (readers prefetch the next
  // header while the current shard streams), so only the first open sits
  // on the critical path. Total bytes accounting is exact.
  sim::Task<> ReadSharded(Bytes total_size, int shards);
  // Write a file of `size`; one open + sequential write on the write link
  // (independent of the read link, as on real NVMe with separate queues,
  // and at the same bandwidth).
  sim::Task<> WriteFile(
      Bytes size, TransferPriority priority = TransferPriority::kBackground);

  // Queue-aware estimate for one ReadFile: open overhead plus the read
  // link's admitted backlog plus wire time (see Link::EstimatedTransferTime).
  sim::SimDuration EstimatedReadTime(Bytes size) const;

  const std::string& name() const { return name_; }
  Bytes total_read() const { return link_.total_transferred(); }
  Bytes total_written() const { return write_link_.total_transferred(); }
  Link& link() { return link_; }
  Link& write_link() { return write_link_; }
  void BindObservability(obs::Observability* obs) {
    link_.BindObservability(obs);
    write_link_.BindObservability(obs);
  }

 private:
  sim::Simulation& sim_;
  std::string name_;
  sim::SimDuration open_overhead_;
  Link link_;
  Link write_link_;
};

}  // namespace swapserve::hw
