#include "core/sse.h"

namespace swapserve::core {

std::string SseEncoder::Frame(const json::Value& payload) const {
  return "data: " + payload.Dump() + "\n\n";
}

std::string SseEncoder::Done() { return "data: [DONE]\n\n"; }

std::string SseEncoder::Encode(const ResponseChunk& chunk,
                               std::string_view error) {
  json::Value payload = json::Value::MakeObject();
  payload["id"] = json::Value("chatcmpl-" + std::to_string(request_id_));
  payload["object"] = json::Value("chat.completion.chunk");
  payload["model"] = json::Value(model_);

  json::Value choice = json::Value::MakeObject();
  choice["index"] = json::Value(std::int64_t{0});

  switch (chunk.kind) {
    case ResponseChunk::Kind::kFirstToken:
    case ResponseChunk::Kind::kTokens: {
      streamed_tokens_ += chunk.token_count;
      json::Value delta = json::Value::MakeObject();
      delta["tokens"] = json::Value(chunk.token_count);
      choice["delta"] = std::move(delta);
      choice["finish_reason"] = json::Value(nullptr);
      break;
    }
    case ResponseChunk::Kind::kDone: {
      choice["delta"] = json::Value::MakeObject();
      choice["finish_reason"] = json::Value("stop");
      json::Value usage = json::Value::MakeObject();
      usage["completion_tokens"] = json::Value(streamed_tokens_);
      payload["usage"] = std::move(usage);
      json::Value timing = json::Value::MakeObject();
      timing["ttft_s"] = json::Value(chunk.ttft_s);
      timing["total_s"] = json::Value(chunk.total_s);
      timing["swap_wait_s"] = json::Value(chunk.swap_wait_s);
      payload["timing"] = std::move(timing);
      break;
    }
    case ResponseChunk::Kind::kError: {
      choice["delta"] = json::Value::MakeObject();
      choice["finish_reason"] = json::Value("error");
      json::Value message = json::Value::MakeObject();
      message["message"] = json::Value(std::string(error));
      payload["error"] = std::move(message);
      break;
    }
  }

  json::Value choices = json::Value::MakeArray();
  choices.PushBack(std::move(choice));
  payload["choices"] = std::move(choices);
  return Frame(payload);
}

}  // namespace swapserve::core
