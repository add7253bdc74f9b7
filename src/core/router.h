// The OpenAI-compatible API router (§3.1 circle 1, §4.1).
//
// Accepts /v1/chat/completions payloads as JSON text, authenticates,
// validates the body against the OpenAI specification subset SwapServeLLM
// supports, estimates prompt tokens, and hands the validated request to the
// request handler. There is no HTTP framing here — the paper's router
// contribution is the validation/queuing/dispatch logic, which this class
// reproduces in-process (DESIGN.md §1).

#pragma once

#include <string>

#include "core/request_handler.h"
#include "core/types.h"
#include "json/document.h"
#include "json/json.h"
#include "util/status.h"

namespace swapserve::core {

class OpenAiRouter {
 public:
  explicit OpenAiRouter(RequestHandler& handler) : handler_(handler) {}

  // POST /v1/chat/completions. `bearer_token` is the Authorization header
  // value (without the "Bearer " prefix). Returns the streaming response
  // channel, or:
  //   INVALID_ARGUMENT  - malformed/unsupported payload (HTTP 400)
  //   UNAUTHENTICATED is modelled as FAILED_PRECONDITION (HTTP 401)
  //   NOT_FOUND         - unknown model (HTTP 404)
  //   RESOURCE_EXHAUSTED- queue full or admission shed (HTTP 429)
  //
  // The body is parsed with the zero-copy in-situ parser (§16) through a
  // router-owned scratch buffer, so steady-state request validation does
  // not allocate per string. Not reentrant: one parse per router at a
  // time, which matches the simulator's synchronous dispatch.
  [[nodiscard]] Result<ResponseChannelPtr> ChatCompletions(
      const std::string& body_json, const std::string& bearer_token = "");

  // GET /v1/models.
  json::Value ListModels() const;

  // Rough BPE estimate used when the payload does not carry token counts:
  // ~4 characters per token, plus a small per-message overhead. Accepts
  // both plain string content and OpenAI content-part arrays (each part's
  // "text" field counts); non-string scalar content is ignored. A value
  // that is not an array of messages estimates to the 1-token floor.
  static std::int64_t EstimatePromptTokens(json::Document::View messages);

  // Emit auth/validate/enqueue spans and outcome counters (nullable).
  void BindObservability(obs::Observability* obs) { obs_ = obs; }

 private:
  RequestHandler& handler_;
  obs::Observability* obs_ = nullptr;
  // In-situ parse state, reused across requests: the body is copied into
  // scratch_ (capacity persists) and doc_'s node arena is recycled, so a
  // warm router parses with zero steady-state allocations.
  std::string scratch_;
  json::Document doc_;
};

}  // namespace swapserve::core
