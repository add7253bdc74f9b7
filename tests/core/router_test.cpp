// OpenAI router validation + request handler admission tests.

#include "core/router.h"

#include <optional>
#include <string>

#include <gtest/gtest.h>

#include "fixture.h"

namespace swapserve::core {
namespace {

using testing::TestBed;

// Router tests run against a full SwapServe so accepted requests are
// actually served.
struct RouterBed {
  RouterBed(TestBed& bed, GlobalConfig global = {})
      : config(MakeConfig(bed, std::move(global))),
        serve(bed.sim, config, bed.catalog, bed.hardware()) {}

  static Config MakeConfig(TestBed& bed, GlobalConfig global) {
    Config cfg = bed.MakeConfig({{"llama-3.2-1b-fp16", "ollama"}});
    cfg.global = std::move(global);
    return cfg;
  }

  Config config;
  SwapServe serve;
};

const char* kValidBody = R"({
  "model": "llama-3.2-1b-fp16",
  "messages": [{"role": "user", "content": "hello there, assistant"}],
  "max_tokens": 32,
  "temperature": 0
})";

TEST(RouterTest, ValidRequestAcceptedAndServed) {
  TestBed bed;
  RouterBed rb(bed);
  ChatResult result;
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await rb.serve.Initialize()).ok());
    Result<ResponseChannelPtr> ch =
        rb.serve.router().ChatCompletions(kValidBody);
    EXPECT_TRUE(ch.ok()) << ch.status();
    result = co_await SwapServe::CollectResponse(*ch);
    rb.serve.Shutdown();
  });
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.output_tokens, 32);
}

TEST(RouterTest, MalformedJsonRejected) {
  TestBed bed;
  RouterBed rb(bed);
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await rb.serve.Initialize()).ok());
    auto r = rb.serve.router().ChatCompletions("{not json");
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    rb.serve.Shutdown();
  });
}

TEST(RouterTest, ValidationErrors) {
  TestBed bed;
  RouterBed rb(bed);
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await rb.serve.Initialize()).ok());
    OpenAiRouter& router = rb.serve.router();
    // Missing model.
    EXPECT_EQ(router.ChatCompletions(R"({"messages":[{"role":"user"}]})")
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
    // Missing messages.
    EXPECT_EQ(
        router.ChatCompletions(R"({"model":"llama-3.2-1b-fp16"})")
            .status()
            .code(),
        StatusCode::kInvalidArgument);
    // Empty messages.
    EXPECT_EQ(router
                  .ChatCompletions(
                      R"({"model":"llama-3.2-1b-fp16","messages":[]})")
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
    // Message without role.
    EXPECT_EQ(router
                  .ChatCompletions(
                      R"({"model":"llama-3.2-1b-fp16","messages":[{"content":"x"}]})")
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
    // Bad temperature.
    EXPECT_EQ(
        router
            .ChatCompletions(
                R"({"model":"llama-3.2-1b-fp16","messages":[{"role":"user","content":"x"}],"temperature":3.0})")
            .status()
            .code(),
        StatusCode::kInvalidArgument);
    // Bad max_tokens.
    EXPECT_EQ(
        router
            .ChatCompletions(
                R"({"model":"llama-3.2-1b-fp16","messages":[{"role":"user","content":"x"}],"max_tokens":0})")
            .status()
            .code(),
        StatusCode::kInvalidArgument);
    // max_tokens beyond int64 saturates and is rejected, with no
    // out-of-range float-to-int cast on the way.
    EXPECT_EQ(
        router
            .ChatCompletions(
                R"({"model":"llama-3.2-1b-fp16","messages":[{"role":"user","content":"x"}],"max_tokens":1e300})")
            .status()
            .code(),
        StatusCode::kInvalidArgument);
    // Unknown model -> 404 semantics.
    EXPECT_EQ(
        router
            .ChatCompletions(
                R"({"model":"ghost","messages":[{"role":"user","content":"x"}]})")
            .status()
            .code(),
        StatusCode::kNotFound);
    rb.serve.Shutdown();
  });
}

TEST(RouterTest, AuthTokenEnforced) {
  TestBed bed;
  GlobalConfig global;
  global.auth_token = "secret-token";
  RouterBed rb(bed, global);
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await rb.serve.Initialize()).ok());
    OpenAiRouter& router = rb.serve.router();
    EXPECT_EQ(router.ChatCompletions(kValidBody, "").status().code(),
              StatusCode::kFailedPrecondition);
    EXPECT_EQ(router.ChatCompletions(kValidBody, "wrong").status().code(),
              StatusCode::kFailedPrecondition);
    EXPECT_TRUE(router.ChatCompletions(kValidBody, "secret-token").ok());
    rb.serve.Shutdown();
  });
}

// Estimates off JSON text through the in-situ parser, as ChatCompletions
// does with the body's "messages" member.
std::int64_t EstimateText(std::string text) {
  json::Document doc;
  EXPECT_TRUE(doc.ParseInSitu(text).ok()) << text;
  return OpenAiRouter::EstimatePromptTokens(doc.root());
}

TEST(RouterTest, TokenEstimation) {
  // 400 chars / 4 + 1 message * 4 = 104.
  EXPECT_EQ(EstimateText(R"([{"role":"user","content":")" +
                         std::string(400, 'x') + R"("}])"),
            104);
}

TEST(RouterTest, TokenEstimationMinimumOne) {
  EXPECT_EQ(EstimateText("[]"), 1);
}

TEST(RouterTest, TokenEstimationNonArrayFloorsToOne) {
  EXPECT_EQ(EstimateText(R"("a string")"), 1);
  EXPECT_EQ(EstimateText("7"), 1);
  EXPECT_EQ(EstimateText("{}"), 1);
  EXPECT_EQ(EstimateText("null"), 1);
}

TEST(RouterTest, TokenEstimationIgnoresNonStringContent) {
  // Numeric content and absent content count no characters, and
  // non-message entries in the array don't count toward overhead:
  // 0 chars, 2 well-formed messages * 4 overhead.
  EXPECT_EQ(EstimateText(R"([{"role":"user","content":12345},)"
                         R"({"role":"assistant"},"stray"])"),
            8);
}

TEST(RouterTest, TokenEstimationSumsContentParts) {
  // 400 chars across text parts / 4 + 1 message * 4 = 104.
  EXPECT_EQ(EstimateText(R"([{"role":"user","content":[)"
                         R"({"type":"text","text":")" +
                         std::string(200, 'a') +
                         R"("},{"type":"image_url"},)"
                         R"({"type":"text","text":")" +
                         std::string(200, 'b') + R"("}]}])"),
            104);
}

TEST(RouterTest, ListModelsReflectsState) {
  TestBed bed;
  RouterBed rb(bed);
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await rb.serve.Initialize()).ok());
    json::Value models = rb.serve.router().ListModels();
    EXPECT_EQ(models.GetString("object", ""), "list");
    const auto& data = models.Find("data")->AsArray();
    EXPECT_EQ(data.size(), 1u);
    if (data.size() != 1u) { rb.serve.Shutdown(); co_return; }
    EXPECT_EQ(data[0].GetString("id", ""), "llama-3.2-1b-fp16");
    EXPECT_EQ(data[0].GetString("engine", ""), "ollama");
    EXPECT_EQ(data[0].GetString("state", ""), "swapped-out");
    rb.serve.Shutdown();
  });
}

TEST(RouterTest, DefaultsApplied) {
  TestBed bed;
  RouterBed rb(bed);
  ChatResult result;
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await rb.serve.Initialize()).ok());
    // No max_tokens -> default 512; no temperature -> 0.
    auto ch = rb.serve.router().ChatCompletions(
        R"({"model":"llama-3.2-1b-fp16","messages":[{"role":"user","content":"hi"}]})");
    EXPECT_TRUE(ch.ok());
    result = co_await SwapServe::CollectResponse(*ch);
    rb.serve.Shutdown();
  });
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.output_tokens, 512);
}

// Routes `body` through a router whose backend never starts and returns the
// request the handler queued, so every field the router read can be checked.
Result<InferenceRequest> RouteOnly(RouterBed& rb, const std::string& body) {
  Result<ResponseChannelPtr> ch = rb.serve.router().ChatCompletions(body);
  if (!ch.ok()) return ch.status();
  std::optional<QueuedRequest> item = rb.serve.backends()[0]->queue->TryRecv();
  if (!item.has_value()) return Internal("accepted but nothing queued");
  return std::move(item->request);
}

// The router reads the body's members in one walk; it must keep what eight
// separate Find lookups meant: the first of duplicate keys wins, a member of
// the wrong type falls back to its default, and validation errors come in a
// fixed order whatever the order of the members.
TEST(RouterTest, OneWalkKeepsFindSemantics) {
  TestBed bed;
  RouterBed rb(bed);
  const std::string model = R"("model":"llama-3.2-1b-fp16")";
  const std::string msgs = R"("messages":[{"role":"user","content":"hi"}])";

  Result<InferenceRequest> r = RouteOnly(
      rb, "{" + model + R"(,"model":"ghost",)" + msgs +
              R"(,"max_tokens":7,"max_tokens":9})");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->model, "llama-3.2-1b-fp16");
  EXPECT_EQ(r->max_tokens, 7);
  EXPECT_EQ(RouteOnly(rb, R"({"model":"ghost",)" + model + "," + msgs + "}")
                .status()
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(RouteOnly(rb, "{" + model + "," + msgs +
                              R"(,"max_tokens":0,"max_tokens":9})")
                .status()
                .message(),
            "max_tokens must be in [1, 16384]");

  r = RouteOnly(rb, "{" + model + "," + msgs +
                        R"(,"max_tokens":"12","stream":1,"temperature":"hot",)"
                        R"("seed":"7","user":5,"slo_class":null})");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->max_tokens, 512);
  EXPECT_TRUE(r->stream);
  EXPECT_EQ(r->temperature, 0.0);
  EXPECT_EQ(r->seed, 0u);
  EXPECT_EQ(r->tenant, "");
  EXPECT_EQ(r->slo_class, "");

  r = RouteOnly(rb, R"({"slo_class":"gold","user":"t1","seed":7,)"
                    R"("stream":false,"temperature":1.5,"max_tokens":12,)" +
                        msgs + "," + model + "}");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->max_tokens, 12);
  EXPECT_FALSE(r->stream);
  EXPECT_EQ(r->temperature, 1.5);
  EXPECT_EQ(r->seed, 7u);
  EXPECT_EQ(r->tenant, "t1");
  EXPECT_EQ(r->slo_class, "gold");

  const auto error = [&rb](const std::string& body) {
    return RouteOnly(rb, body).status().message();
  };
  EXPECT_EQ(error(R"({"max_tokens":0,"temperature":9,"messages":[]})"),
            "missing required field: model");
  EXPECT_EQ(error(R"({"max_tokens":0,"temperature":9,"messages":[],)" +
                  model + "}"),
            "messages must be a non-empty array");
  EXPECT_EQ(error(R"({"max_tokens":0,"temperature":9,)"
                  R"("messages":[{"content":"x"}],)" +
                  model + "}"),
            "each message needs a role");
  EXPECT_EQ(error(R"({"max_tokens":0,"temperature":9,)" + msgs + "," +
                  model + "}"),
            "temperature must be in [0, 2]");
  EXPECT_EQ(error(R"({"max_tokens":0,)" + msgs + "," + model + "}"),
            "max_tokens must be in [1, 16384]");
}

}  // namespace
}  // namespace swapserve::core
