#include "core/response_channel.h"

#include "obs/observability.h"

namespace swapserve::core {

void ChunkCounter::Increment() {
  if (obs == nullptr) return;
  if (counter == nullptr) {
    counter = &obs->metrics.GetCounter("swapserve_stream_chunks_total",
                                       {{"model", model}});
  }
  counter->Increment();
}

void ResponseChannel::Close() {
  if (closed_) return;
  closed_ = true;
  // A reader asleep on a chunk wakes for it and drains the rest.
  if (reader_ != nullptr && !reader_timed_) {
    RecvAwaiter* r = reader_;
    reader_ = nullptr;
    sim_->Post(r->handle_);
  }
}

void ResponseChannel::Begin(const engine::TokenSchedule& schedule) {
  schedule_ = schedule;
  sent_ = 0;
  limit_ = schedule.total_tokens;
  next_at_ =
      schedule.first_token_at + schedule.ChunkTime(schedule.ChunkAfter(0));
  if (reader_ != nullptr) {
    SWAP_CHECK_MSG(!reader_timed_, "schedule begun under a sleeping reader");
    Arm(reader_);
  }
}

sim::SimTime ResponseChannel::Cut() {
  const sim::SimTime now = sim_->Now();
  sim::SimTime wake = schedule_.first_token_at;
  if (now <= schedule_.first_token_at) {
    limit_ = 0;
  } else {
    // Out: what the reader took, and every chunk due before now.
    std::int64_t out = sent_;
    sim::SimTime at = next_at_;
    while (out < schedule_.total_tokens && at < now) {
      out += schedule_.ChunkAfter(out);
      if (out < schedule_.total_tokens) {
        at += schedule_.ChunkTime(schedule_.ChunkAfter(out));
      }
    }
    limit_ = out;
    wake = out < schedule_.total_tokens ? at : schedule_.End();
  }
  if (reader_ != nullptr && reader_timed_ && !ScheduledPending()) {
    // Asleep on a cut chunk: wait for the error chunk or the retry.
    sim_->Cancel(timer_);
    reader_timed_ = false;
  }
  return wake;
}

}  // namespace swapserve::core
