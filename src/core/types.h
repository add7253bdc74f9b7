// Request/response plumbing types shared across the SwapServeLLM core.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>

#include "sim/channel.h"
#include "sim/time.h"

namespace swapserve::core {

using RequestId = std::uint64_t;

// The numeric part of a validated request: everything the queue, the worker
// and the engine read once the request is past the door.
struct RequestParams {
  RequestId id = 0;
  std::int64_t prompt_tokens = 0;
  std::int64_t max_tokens = 0;  // output-token cap
  double temperature = 0.0;
  std::uint64_t seed = 0;
  bool stream = true;
  double arrival_time_s = 0;
  // Optional client deadline: if serving has not *started* by this virtual
  // time the worker drops the request (client disconnect / timeout).
  double deadline_s = 0;  // 0 = none
};

// A validated inference request, after OpenAI-payload parsing. The names
// are borrowed: RequestHandler::Accept reads them to pick the backend and
// to admit the request, and only the RequestParams reach the queue, so the
// viewed strings need to outlive the Accept call only.
struct InferenceRequest : RequestParams {
  std::string_view model;
  // Admission-control identity (§16): OpenAI "user" field and the SLO
  // class the tenant's requests are budgeted under. Both optional; empty
  // slo_class falls back to the default queue-delay budget.
  std::string_view tenant;
  std::string_view slo_class;
};

struct ResponseChunk {
  enum class Kind { kFirstToken, kTokens, kDone, kError };
  Kind kind = Kind::kTokens;
  std::int64_t token_count = 0;

  // Completion summary, carried on kDone.
  double ttft_s = 0;        // arrival -> first token (incl. queue + swap)
  double total_s = 0;       // arrival -> last token
  double swap_wait_s = 0;   // part of ttft spent waiting for swap-in
};

// Both travel by copy through channels on every hop.
static_assert(std::is_trivially_copyable_v<RequestParams>);
static_assert(std::is_trivially_copyable_v<ResponseChunk>);

// Streamed back to the client; closed after kDone/kError. The one
// kError chunk a stream can end with carries no text: whoever sends it
// sets `error` first, and the reader takes the text from the channel.
class ResponseChannel : public sim::Channel<ResponseChunk> {
 public:
  using Channel::Channel;
  std::string error;
};
using ResponseChannelPtr = std::shared_ptr<ResponseChannel>;

// What the request handler enqueues per backend (§3.1: "encapsulates the
// inference request, response channel, and relevant metadata").
struct QueuedRequest {
  RequestParams request;
  ResponseChannelPtr response;
  // How many times this request has already been attempted; the worker's
  // requeue path bumps it and gives up past the configured retry budget.
  int attempt = 0;
};

// Final per-request outcome, as observed by callers of helpers like
// SwapServe::ChatAndWait.
struct ChatResult {
  bool ok = false;
  std::string error;
  std::int64_t output_tokens = 0;
  double ttft_s = 0;
  double total_s = 0;
  double swap_wait_s = 0;
};

}  // namespace swapserve::core
