// Server-Sent Events framing for streamed chat completions (§16).
//
// Encodes the simulator's ResponseChunk stream into the OpenAI-compatible
// SSE wire format: one "data: {json}\n\n" frame per token chunk, a final
// frame carrying finish_reason + usage, then the "data: [DONE]\n\n"
// terminator. The simulator carries token *counts*, not token text, so
// delta objects report {"tokens": N} where a real server would carry
// {"content": "..."} — the framing, ordering, and termination contract are
// what downstream code (and the golden SSE tests) depend on.
//
// Frames are deterministic: fields come from the chunk and the fixed
// request identity only (ids are request ids, timestamps are virtual
// seconds), so equal runs produce byte-identical event streams.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "core/types.h"
#include "json/json.h"

namespace swapserve::core {

class SseEncoder {
 public:
  SseEncoder(RequestId request_id, std::string model)
      : request_id_(request_id), model_(std::move(model)) {}

  // One frame per chunk (stateful: token chunks accumulate into the usage
  // block the kDone frame reports):
  //   kFirstToken/kTokens -> delta frame with the chunk's token count
  //   kDone               -> finish frame (finish_reason "stop" + usage)
  //   kError              -> error frame carrying `error`, the text the
  //                          sender set on the response channel
  std::string Encode(const ResponseChunk& chunk, std::string_view error = {});

  // The stream terminator ("data: [DONE]\n\n").
  static std::string Done();

 private:
  std::string Frame(const json::Value& payload) const;

  RequestId request_id_;
  std::string model_;
  std::int64_t streamed_tokens_ = 0;
};

}  // namespace swapserve::core
