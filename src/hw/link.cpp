#include "hw/link.h"

#include <algorithm>
#include <utility>

#include "sim/combinators.h"

namespace swapserve::hw {

Link::Link(sim::Simulation& sim, std::string name, BytesPerSecond bandwidth,
           sim::SimDuration setup_latency)
    : sim_(sim),
      name_(std::move(name)),
      track_("link:" + name_),
      bandwidth_(bandwidth),
      setup_latency_(setup_latency) {}

void Link::SetInFlightGauge() {
  if (obs_ == nullptr) return;
  if (in_flight_gauge_ == nullptr) {
    in_flight_gauge_ = &obs_->metrics.GetGauge("swapserve_link_in_flight",
                                               {{"link", name_}});
  }
  in_flight_gauge_->Set(static_cast<double>(in_flight_));
}

void Link::CountWireTime(Bytes bytes, sim::SimDuration wire) {
  if (obs_ == nullptr) return;
  if (bytes_counter_ == nullptr) {
    const obs::Labels labels = {{"link", name_}};
    bytes_counter_ = &obs_->metrics.GetCounter(
        "swapserve_link_transferred_bytes_total", labels);
    busy_counter_ = &obs_->metrics.GetCounter(
        "swapserve_link_busy_seconds_total", labels);
  }
  bytes_counter_->Increment(static_cast<double>(bytes.count()));
  // Wire-occupancy accumulator: rate() of this against wall time is the
  // link's bandwidth occupancy.
  busy_counter_->Increment(wire.ToSeconds());
}

void Link::EnqueueWaiter(ChannelWaiter waiter) {
  // Keep (priority desc, seq asc): an urgent transfer jumps ahead of queued
  // background chunks but never ahead of an equal-priority earlier arrival.
  auto it = std::find_if(waiters_.begin(), waiters_.end(),
                         [&](const ChannelWaiter& w) {
                           return w.priority < waiter.priority;
                         });
  waiters_.insert(it, waiter);
}

void Link::ReleaseChannel() {
  SWAP_CHECK_MSG(channel_busy_, "release of idle link channel");
  if (!waiters_.empty()) {
    // Ownership transfers to the best waiter; channel_busy_ stays true.
    ChannelWaiter next = waiters_.front();
    waiters_.pop_front();
    sim_.Post(next.handle);
  } else {
    channel_busy_ = false;
  }
}

sim::Task<> Link::Transfer(Bytes size) {
  co_await TransferChunked(size, TransferOptions{});
}

sim::Task<> Link::TransferChunked(Bytes size, TransferOptions options) {
  SWAP_CHECK_MSG(size.count() >= 0, "negative transfer");
  SWAP_CHECK_MSG(options.chunk_bytes.count() >= 0, "negative chunk size");
  {
    // Stall-only: the transfer still completes, just later (a degraded
    // lane); Transfer's Task<> signature stays infallible.
    fault::FaultDecision f = fault::Evaluate(fault_, "hw.link", name_);
    if (f.stall.ns() > 0) co_await sim_.Delay(f.stall);
  }
  const BytesPerSecond bw = options.bandwidth.value_or(bandwidth_);
  const sim::SimDuration setup = options.setup.value_or(setup_latency_);
  const bool chunked =
      options.chunk_bytes.count() > 0 && options.chunk_bytes < size;
  const Bytes chunk = chunked ? options.chunk_bytes : size;

  ++in_flight_;
  pending_ += size;
  SetInFlightGauge();
  obs::Span span = obs::StartSpan(obs_, "transfer", "link", track_);
  span.AddArg("bytes", size.count());
  if (chunked) {
    span.AddArg("chunk_bytes", chunk.count());
    span.AddArg("priority", static_cast<int>(options.priority));
  }

  Bytes done(0);
  bool first = true;
  while (first || done < size) {
    const Bytes this_chunk = std::min(chunk, size - done);
    co_await AcquireChannel(options.priority);
    obs::Span chunk_span =
        chunked ? obs::StartSpan(obs_, "chunk", "link", track_) : obs::Span();
    const sim::SimDuration wire =
        (first ? setup : sim::SimDuration(0)) +
        sim::Seconds(bw.SecondsFor(this_chunk));
    co_await sim_.Delay(wire);
    done += this_chunk;
    pending_ -= this_chunk;
    CountWireTime(this_chunk, wire);
    ReleaseChannel();
    first = false;
  }

  total_ += size;
  ++transfers_;
  --in_flight_;
  SetInFlightGauge();
}

sim::SimDuration Link::IdleTransferTime(Bytes size) const {
  return setup_latency_ + sim::Seconds(bandwidth_.SecondsFor(size));
}

sim::SimDuration Link::EstimatedTransferTime(Bytes size) const {
  // Backlog = bytes admitted but not yet on the wire, plus one setup per
  // in-flight transfer (an upper bound: transfers mid-flight have already
  // paid part of theirs).
  const sim::SimDuration backlog =
      sim::Seconds(bandwidth_.SecondsFor(pending_)) +
      setup_latency_ * in_flight_;
  return backlog + IdleTransferTime(size);
}

StorageDevice::StorageDevice(sim::Simulation& sim, std::string name,
                             BytesPerSecond bandwidth,
                             sim::SimDuration open_overhead)
    : sim_(sim),
      name_(name),
      open_overhead_(open_overhead),
      link_(sim, name + "-read", bandwidth),
      write_link_(sim, name + "-write", bandwidth) {}

sim::Task<> StorageDevice::ReadFile(Bytes size, TransferPriority priority) {
  co_await sim_.Delay(open_overhead_);
  hw::TransferOptions opts;
  opts.priority = priority;
  co_await link_.TransferChunked(size, std::move(opts));
}

sim::Task<> StorageDevice::WriteFile(Bytes size, TransferPriority priority) {
  co_await sim_.Delay(open_overhead_);
  hw::TransferOptions opts;
  opts.priority = priority;
  co_await write_link_.TransferChunked(size, std::move(opts));
}

sim::SimDuration StorageDevice::EstimatedReadTime(Bytes size) const {
  return open_overhead_ + link_.EstimatedTransferTime(size);
}

sim::Task<> StorageDevice::ReadSharded(Bytes total_size, int shards) {
  SWAP_CHECK_MSG(shards > 0, "shard count must be positive");
  const Bytes per_shard(total_size.count() / shards);
  Bytes remainder = total_size - per_shard * shards;
  // Only shard 0's open is on the critical path; shard N+1's open overlaps
  // shard N's read.
  co_await sim_.Delay(open_overhead_);
  for (int i = 0; i < shards; ++i) {
    Bytes this_shard = per_shard;
    if (i == 0) this_shard += remainder;
    if (i + 1 < shards) {
      co_await sim::WhenAll(sim_, link_.Transfer(this_shard),
                            sim::DelayFor(sim_, open_overhead_));
    } else {
      co_await link_.Transfer(this_shard);
    }
  }
}

}  // namespace swapserve::hw
