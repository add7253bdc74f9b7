// A streamed reply as a schedule (DESIGN.md §16).
//
// An engine decodes a streamed request in one sleep, like any other; what
// the client sees chunk by chunk is a TokenSchedule, handed once to the
// request's TokenSink (the response channel), whose reader sleeps to each
// chunk's instant itself. Chunk i falls due at the prefill end plus the
// per-chunk sim::Seconds() roundings of every chunk up to it — the
// instants a decode loop of one Delay per chunk reaches, nanosecond for
// nanosecond.

#pragma once

#include <algorithm>
#include <cstdint>

#include "sim/time.h"

namespace swapserve::engine {

struct TokenSchedule {
  sim::SimTime first_token_at;  // prefill end: decode starts here
  double token_s = 0;           // decode time per token
  std::int64_t chunk_tokens = 16;
  std::int64_t total_tokens = 0;

  // Tokens in the chunk that follows `sent` tokens.
  std::int64_t ChunkAfter(std::int64_t sent) const {
    return std::min(chunk_tokens, total_tokens - sent);
  }
  // Decode time of one chunk of `tokens`, rounded as one Delay.
  sim::SimDuration ChunkTime(std::int64_t tokens) const {
    return sim::Seconds(token_s * static_cast<double>(tokens));
  }
  // When the last chunk falls due: the full chunks' rounding times their
  // count, plus the remainder's.
  sim::SimTime End() const {
    const std::int64_t rest = total_tokens % chunk_tokens;
    return first_token_at +
           ChunkTime(chunk_tokens) * (total_tokens / chunk_tokens) +
           (rest > 0 ? ChunkTime(rest) : sim::SimDuration(0));
  }
};

// Where a streamed Generate delivers its tokens. The engine calls Begin
// once per attempt, before it sleeps; a crash calls Cut.
class TokenSink {
 public:
  // This attempt's schedule; chunks fall due on their own from here on.
  virtual void Begin(const TokenSchedule& schedule) = 0;
  // The engine died at Now(). Chunks already out stay deliverable: those
  // due before Now(), and one due at Now() that its reader has taken. The
  // rest are cut. Returns the instant of the first cut chunk — where a
  // per-chunk decode loop would have found the engine gone — or the
  // prefill end while Now() has not passed it.
  virtual sim::SimTime Cut() = 0;

 protected:
  ~TokenSink() = default;
};

}  // namespace swapserve::engine
