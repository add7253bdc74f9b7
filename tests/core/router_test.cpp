// OpenAI router validation + request handler admission tests.

#include "core/router.h"

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

}  // namespace
}  // namespace swapserve::core
