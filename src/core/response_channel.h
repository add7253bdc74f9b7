// A request's response stream (§3.1's response channel, DESIGN.md §16).
//
// One client reads it; the worker writes it without blocking. Besides the
// plain chunks the worker sends (the burst of a non-streamed reply, kDone,
// kError), a streamed reply arrives as an engine::TokenSchedule handed over
// once per attempt: the reader walks it, sleeping on the channel's own
// timer to each chunk's instant, so a chunk costs one wake-up (the
// reader's), not two. Scheduled chunks come before buffered ones. The
// timer lives in the channel, not the awaiter, so a reader that never
// streams keeps a 64-byte awaiter in its frame.
//
// A crash cuts the schedule (engine::TokenSink::Cut): chunks already out
// stay, a reader asleep on a cut chunk goes back to waiting for a plain
// chunk — the error, or the retry's new schedule.

#pragma once

#include <coroutine>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>

#include "engine/token_stream.h"
#include "sim/simulation.h"
#include "sim/small_ring.h"

namespace swapserve::obs {
struct Observability;
class Counter;
}  // namespace swapserve::obs

namespace swapserve::core {

struct ResponseChunk {
  enum class Kind { kFirstToken, kTokens, kDone, kError };
  Kind kind = Kind::kTokens;
  std::int64_t token_count = 0;

  // Completion summary, carried on kDone.
  double ttft_s = 0;        // arrival -> first token (incl. queue + swap)
  double total_s = 0;       // arrival -> last token
  double swap_wait_s = 0;   // part of ttft spent waiting for swap-in
};

// Travels by copy through the channel on every hop.
static_assert(std::is_trivially_copyable_v<ResponseChunk>);

// swapserve_stream_chunks_total{model}, counted as each streamed chunk
// falls due and resolved on the first, so a model that never streams
// exports no series. A worker owns one; its channels point at it.
struct ChunkCounter {
  obs::Observability* obs = nullptr;
  std::string_view model;
  obs::Counter* counter = nullptr;
  void Increment();
};

// Closed after kDone/kError. The one kError chunk a stream can end with
// carries no text: whoever sends it sets `error` first, and the reader
// takes the text from the channel.
class ResponseChannel final : public engine::TokenSink {
 public:
  explicit ResponseChannel(sim::Simulation& sim)
      : sim_(&sim), timer_(&sim, sim::SimDuration(0)) {}
  ResponseChannel(const ResponseChannel&) = delete;
  ResponseChannel& operator=(const ResponseChannel&) = delete;
  ~ResponseChannel() {
    SWAP_CHECK_MSG(reader_ == nullptr,
                   "response channel destroyed with its reader blocked");
  }

  class [[nodiscard]] RecvAwaiter {
   public:
    explicit RecvAwaiter(ResponseChannel* ch) : ch_(ch) {}
    bool await_ready() { return ch_->TryTake(value_); }
    void await_suspend(std::coroutine_handle<> h) { ch_->Wait(this, h); }
    std::optional<ResponseChunk> await_resume() {
      // Woken by its timer: the chunk it slept for is due.
      if (ch_->reader_ == this) {
        ch_->reader_ = nullptr;
        ch_->TakeScheduled(value_);
      }
      return std::move(value_);
    }

   private:
    friend class ResponseChannel;
    ResponseChannel* ch_;
    std::optional<ResponseChunk> value_;
    std::coroutine_handle<> handle_;
  };

  // co_await ch.Recv() -> the next chunk, or std::nullopt once the channel
  // is closed and drained.
  RecvAwaiter Recv() { return RecvAwaiter(this); }

  // Non-blocking send; false when full or closed. A parked reader gets the
  // chunk directly.
  bool TrySend(ResponseChunk&& chunk);
  void Close();

  // Count streamed chunks in `counter` (nullable) as they fall due.
  void CountChunksIn(ChunkCounter* counter) { chunk_counter_ = counter; }
  // Tokens this attempt's schedule sends: all of them once it began,
  // those already out once a crash cut it, 0 before any schedule.
  std::int64_t streamed_tokens() const { return limit_; }

  // engine::TokenSink
  void Begin(const engine::TokenSchedule& schedule) override;
  sim::SimTime Cut() override;

  std::string error;

 private:
  bool ScheduledPending() const { return sent_ < limit_; }
  // The next scheduled chunk, if it is due, else a buffered chunk; true
  // also once closed and drained (value stays empty).
  bool TryTake(std::optional<ResponseChunk>& out);
  void TakeScheduled(std::optional<ResponseChunk>& out);
  // Suspend `r`: on its timer until the next scheduled chunk, or parked
  // until a plain chunk, a schedule or Close.
  void Wait(RecvAwaiter* r, std::coroutine_handle<> h);
  void Arm(RecvAwaiter* r);

  // A bound on plain chunks the reader has not taken (a reply sends at
  // most three: first, body and done, or one error).
  static constexpr std::size_t kCapacity = 128;

  // What a streamed chunk's wake-up reads comes first, on as few cache
  // lines as it takes.
  sim::Simulation* sim_;
  // The blocked reader, if any, and whether it sleeps on its timer (else
  // it is parked for a plain chunk).
  RecvAwaiter* reader_ = nullptr;
  bool reader_timed_ = false;
  bool closed_ = false;
  // The current attempt's schedule and the reader's place in it.
  std::int64_t sent_ = 0;   // tokens the reader has taken
  std::int64_t limit_ = 0;  // tokens it may take
  sim::SimTime next_at_;    // when the chunk after `sent_` falls due
  ChunkCounter* chunk_counter_ = nullptr;
  engine::TokenSchedule schedule_;
  // What the reader sleeps on to reach a scheduled chunk.
  sim::Simulation::DelayAwaiter timer_;
  sim::SmallRing<ResponseChunk> buffer_;
};
using ResponseChannelPtr = std::shared_ptr<ResponseChannel>;

// The per-chunk paths stay inline, as sim::Channel's are.

inline bool ResponseChannel::TryTake(std::optional<ResponseChunk>& out) {
  if (ScheduledPending()) {
    if (next_at_ > sim_->Now()) return false;
    TakeScheduled(out);
    return true;
  }
  if (!buffer_.empty()) {
    out = buffer_.front();
    buffer_.pop_front();
    return true;
  }
  return closed_;
}

inline void ResponseChannel::TakeScheduled(
    std::optional<ResponseChunk>& out) {
  const std::int64_t tokens = schedule_.ChunkAfter(sent_);
  out = ResponseChunk{.kind = sent_ == 0 ? ResponseChunk::Kind::kFirstToken
                                         : ResponseChunk::Kind::kTokens,
                      .token_count = tokens};
  sent_ += tokens;
  if (sent_ < schedule_.total_tokens) {
    next_at_ += schedule_.ChunkTime(schedule_.ChunkAfter(sent_));
  }
  if (chunk_counter_ != nullptr) chunk_counter_->Increment();
}

inline void ResponseChannel::Wait(RecvAwaiter* r, std::coroutine_handle<> h) {
  SWAP_CHECK_MSG(reader_ == nullptr, "a response channel has one reader");
  r->handle_ = h;
  reader_ = r;
  reader_timed_ = false;
  if (ScheduledPending()) Arm(r);
}

inline void ResponseChannel::Arm(RecvAwaiter* r) {
  reader_timed_ = true;
  timer_.delay = next_at_ - sim_->Now();
  timer_.await_suspend(r->handle_);
}

inline bool ResponseChannel::TrySend(ResponseChunk&& chunk) {
  if (closed_) return false;
  if (reader_ != nullptr && !reader_timed_) {
    RecvAwaiter* r = reader_;
    reader_ = nullptr;
    r->value_ = chunk;
    sim_->Post(r->handle_);
    return true;
  }
  if (buffer_.size() >= kCapacity) return false;
  buffer_.push_back(chunk);
  return true;
}

}  // namespace swapserve::core
