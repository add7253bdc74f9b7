#include "core/router.h"

#include <algorithm>

namespace swapserve::core {

namespace {

// The body members ChatCompletions reads; an absent member is an invalid
// view.
struct BodyFields {
  json::Document::View model, messages, temperature, max_tokens, seed, stream,
      user, slo_class;
};

// One walk over the body's members. The first of duplicate keys wins, as
// View::Find would have it; a member of the wrong type is left for the
// caller's typed fallback.
BodyFields ReadBodyFields(json::Document::View body) {
  BodyFields f;
  for (json::Document::View m = body.FirstChild(); m; m = m.NextSibling()) {
    const std::string_view key = m.key();
    json::Document::View* slot = nullptr;
    switch (key.size()) {
      case 4:
        slot = key == "seed" ? &f.seed : key == "user" ? &f.user : nullptr;
        break;
      case 5: slot = key == "model" ? &f.model : nullptr; break;
      case 6: slot = key == "stream" ? &f.stream : nullptr; break;
      case 8: slot = key == "messages" ? &f.messages : nullptr; break;
      case 9: slot = key == "slo_class" ? &f.slo_class : nullptr; break;
      case 10: slot = key == "max_tokens" ? &f.max_tokens : nullptr; break;
      case 11: slot = key == "temperature" ? &f.temperature : nullptr; break;
      default: break;
    }
    if (slot != nullptr && !slot->valid()) *slot = m;
  }
  return f;
}

}  // namespace

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

  const BodyFields f = ReadBodyFields(body);
  const std::string_view model = f.model.StringOr("");
  if (model.empty()) {
    return fail("invalid", InvalidArgument("missing required field: model"));
  }

  if (!f.messages.is_array() || f.messages.size() == 0) {
    return fail("invalid",
                InvalidArgument("messages must be a non-empty array"));
  }
  for (json::Document::View msg = f.messages.FirstChild(); msg;
       msg = msg.NextSibling()) {
    if (!msg.is_object() || msg.GetString("role", "").empty()) {
      return fail("invalid", InvalidArgument("each message needs a role"));
    }
  }

  const double temperature = f.temperature.DoubleOr(0.0);
  if (temperature < 0.0 || temperature > 2.0) {
    return fail("invalid", InvalidArgument("temperature must be in [0, 2]"));
  }
  const std::int64_t max_tokens = f.max_tokens.IntOr(512);
  if (max_tokens <= 0 || max_tokens > 16384) {
    return fail("invalid",
                InvalidArgument("max_tokens must be in [1, 16384]"));
  }
  validate_span.End();

  // The names view scratch_, which outlives the Accept call that reads
  // them.
  InferenceRequest request;
  request.model = model;
  request.prompt_tokens = EstimatePromptTokens(f.messages);
  request.max_tokens = max_tokens;
  request.temperature = temperature;
  request.seed = static_cast<std::uint64_t>(f.seed.IntOr(0));
  request.stream = f.stream.BoolOr(true);
  request.tenant = f.user.StringOr("");
  request.slo_class = f.slo_class.StringOr("");

  obs::Span enqueue_span =
      obs::StartSpan(obs_, "enqueue", "router", "router");
  enqueue_span.AddArg("model", request.model);
  Result<ResponseChannelPtr> accepted = handler_.Accept(request);
  if (!accepted.ok()) {
    const bool full = accepted.status().code() == StatusCode::kResourceExhausted;
    return fail(full ? "queue_full" : "not_found", accepted.status());
  }
  if (obs_ != nullptr) {
    if (accepted_ == nullptr) {
      accepted_ = &obs_->metrics.GetCounter("swapserve_router_requests_total",
                                            {{"outcome", "accepted"}});
    }
    accepted_->Increment();
  }
  return accepted;
}

}  // namespace swapserve::core
