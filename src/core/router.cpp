#include "core/router.h"

#include <algorithm>

namespace swapserve::core {

std::int64_t OpenAiRouter::EstimatePromptTokens(json::Document::View messages) {
  if (!messages.is_array()) return 1;
  std::int64_t chars = 0;
  std::int64_t message_count = 0;
  for (json::Document::View msg = messages.FirstChild(); msg;
       msg = msg.NextSibling()) {
    if (!msg.is_object()) continue;
    ++message_count;
    const json::Document::View content = msg.Find("content");
    if (!content.valid()) continue;
    if (content.is_string()) {
      chars += static_cast<std::int64_t>(content.AsString().size());
    } else if (content.is_array()) {
      // OpenAI content-part form: [{"type":"text","text":"..."}, ...].
      // Non-text parts (image_url, audio) carry no countable characters.
      for (json::Document::View part = content.FirstChild(); part;
           part = part.NextSibling()) {
        if (!part.is_object()) continue;
        const json::Document::View text = part.Find("text");
        if (text.is_string()) {
          chars += static_cast<std::int64_t>(text.AsString().size());
        }
      }
    }
  }
  return std::max<std::int64_t>(1, chars / 4 + message_count * 4);
}

Result<ResponseChannelPtr> OpenAiRouter::ChatCompletions(
    const std::string& body_json, const std::string& bearer_token) {
  obs::Span api_span = obs::StartSpan(obs_, "router.chat_completions",
                                      "router", "router");
  const auto fail = [this](const char* outcome, Status status) {
    obs::IncCounter(obs_, "swapserve_router_requests_total",
                    {{"outcome", outcome}});
    return status;
  };

  {
    obs::Span auth_span = obs::StartSpan(obs_, "auth", "router", "router");
    const std::string& expected = handler_.global().auth_token;
    if (!expected.empty() && bearer_token != expected) {
      return fail("unauthenticated",
                  FailedPrecondition("invalid authentication token"));
    }
  }

  obs::Span validate_span =
      obs::StartSpan(obs_, "validate", "router", "router");
  // In-situ parse through the router's scratch buffer: assign() reuses
  // capacity, the Document recycles its node arena, and every string the
  // validation below reads is a view into scratch_.
  scratch_.assign(body_json);
  Status parsed = doc_.ParseInSitu(scratch_);
  if (!parsed.ok()) return fail("invalid", parsed);
  const json::Document::View body = doc_.root();
  if (!body.is_object()) {
    return fail("invalid",
                InvalidArgument("request body must be a JSON object"));
  }

  const std::string_view model = body.GetString("model", "");
  if (model.empty()) {
    return fail("invalid", InvalidArgument("missing required field: model"));
  }

  const json::Document::View messages = body.Find("messages");
  if (!messages.is_array() || messages.size() == 0) {
    return fail("invalid",
                InvalidArgument("messages must be a non-empty array"));
  }
  for (json::Document::View msg = messages.FirstChild(); msg;
       msg = msg.NextSibling()) {
    if (!msg.is_object() || msg.GetString("role", "").empty()) {
      return fail("invalid", InvalidArgument("each message needs a role"));
    }
  }

  const double temperature = body.GetDouble("temperature", 0.0);
  if (temperature < 0.0 || temperature > 2.0) {
    return fail("invalid", InvalidArgument("temperature must be in [0, 2]"));
  }
  const std::int64_t max_tokens = body.GetInt("max_tokens", 512);
  if (max_tokens <= 0 || max_tokens > 16384) {
    return fail("invalid",
                InvalidArgument("max_tokens must be in [1, 16384]"));
  }
  validate_span.End();

  InferenceRequest request;
  request.model.assign(model);
  request.prompt_tokens = EstimatePromptTokens(messages);
  request.max_tokens = max_tokens;
  request.temperature = temperature;
  request.seed = static_cast<std::uint64_t>(body.GetInt("seed", 0));
  request.stream = body.GetBool("stream", true);
  request.tenant.assign(body.GetString("user", ""));
  request.slo_class.assign(body.GetString("slo_class", ""));

  obs::Span enqueue_span =
      obs::StartSpan(obs_, "enqueue", "router", "router");
  enqueue_span.AddArg("model", request.model);
  Result<ResponseChannelPtr> accepted = handler_.Accept(std::move(request));
  if (!accepted.ok()) {
    const bool full = accepted.status().code() == StatusCode::kResourceExhausted;
    return fail(full ? "queue_full" : "not_found", accepted.status());
  }
  obs::IncCounter(obs_, "swapserve_router_requests_total",
                  {{"outcome", "accepted"}});
  return accepted;
}

json::Value OpenAiRouter::ListModels() const {
  json::Value out = json::Value::MakeObject();
  out["object"] = json::Value("list");
  out["data"] = json::Value::MakeArray();
  for (const auto& [name, backend] : handler_.backends()) {
    json::Value entry = json::Value::MakeObject();
    entry["id"] = json::Value(name);
    entry["object"] = json::Value("model");
    entry["owned_by"] = json::Value("swapserve");
    entry["engine"] = json::Value(std::string(backend->engine->kind_name()));
    entry["state"] = json::Value(
        std::string(engine::BackendStateName(backend->engine->state())));
    out["data"].PushBack(std::move(entry));
  }
  return out;
}

}  // namespace swapserve::core
