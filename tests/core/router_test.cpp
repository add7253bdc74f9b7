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

// Two backends that never start, behind admission control: a request
// estimates 1 s of queueing delay (the swap penalty; nothing is ahead of
// it). The empty class and "silver" have budgets that admit it; any other
// class falls to the default budget, which sheds it.
struct OneWalkBed {
  explicit OneWalkBed(TestBed& bed)
      : serve(bed.sim, MakeConfig(bed), bed.catalog, bed.hardware()) {}

  static Config MakeConfig(TestBed& bed) {
    Config cfg = bed.MakeConfig(
        {{"llama-3.2-1b-fp16", "ollama"}, {"deepseek-r1-7b-fp16", "ollama"}});
    cfg.admission.enabled = true;
    cfg.admission.default_budget_s = 0.5;
    cfg.admission.class_budget_s[""] = 10;
    cfg.admission.class_budget_s["silver"] = 10;
    cfg.admission.swap_penalty_s = 1;
    return cfg;
  }

  const AdmissionController::TenantStats& tenant(const std::string& name) {
    return serve.admission()->tenant_stats().at(name);
  }

  SwapServe serve;
};

// What the handler queued for a routed body, and the model whose queue
// holds it.
struct Routed {
  std::string model;
  RequestParams params;
};

// Routes `body` and takes the request back off whichever backend's queue
// it landed on, so every field the router read can be checked.
Result<Routed> RouteOnly(OneWalkBed& rb, const std::string& body) {
  Result<ResponseChannelPtr> ch = rb.serve.router().ChatCompletions(body);
  if (!ch.ok()) return ch.status();
  for (Backend* backend : rb.serve.backends()) {
    if (std::optional<QueuedRequest> item = backend->queue->TryRecv()) {
      return Routed{.model = backend->name(), .params = item->request};
    }
  }
  return Internal("accepted but nothing queued");
}

// The router reads the body's members in one walk; it must keep what eight
// separate Find lookups meant: the first of duplicate keys wins, a member of
// the wrong type falls back to its default, and validation errors come in a
// fixed order whatever the order of the members. The names never reach the
// queue: the model shows in which queue holds the request, the tenant in
// the admission tallies, the SLO class in the budget that decided it.
TEST(RouterTest, OneWalkKeepsFindSemantics) {
  TestBed bed;
  OneWalkBed rb(bed);
  const std::string model = R"("model":"llama-3.2-1b-fp16")";
  const std::string other = R"("model":"deepseek-r1-7b-fp16")";
  const std::string msgs = R"("messages":[{"role":"user","content":"hi"}])";

  Result<Routed> r = RouteOnly(rb, "{" + model + "," + other + "," + msgs +
                                       R"(,"max_tokens":7,"max_tokens":9})");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->model, "llama-3.2-1b-fp16");
  EXPECT_EQ(r->params.max_tokens, 7);
  EXPECT_EQ(rb.tenant("").admitted, 1u);
  EXPECT_EQ(RouteOnly(rb, R"({"model":"ghost",)" + model + "," + msgs + "}")
                .status()
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(RouteOnly(rb, "{" + model + "," + msgs +
                              R"(,"max_tokens":0,"max_tokens":9})")
                .status()
                .message(),
            "max_tokens must be in [1, 16384]");

  // A non-string user and slo_class read as empty: the default tenant,
  // admitted under the empty class's budget.
  r = RouteOnly(rb, "{" + model + "," + msgs +
                        R"(,"max_tokens":"12","stream":1,"temperature":"hot",)"
                        R"("seed":"7","user":5,"slo_class":null})");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->params.max_tokens, 512);
  EXPECT_TRUE(r->params.stream);
  EXPECT_EQ(r->params.temperature, 0.0);
  EXPECT_EQ(r->params.seed, 0u);
  EXPECT_EQ(rb.tenant("").admitted, 2u);
  EXPECT_EQ(rb.tenant("").shed, 0u);

  const std::string typed =
      R"("user":"t1","seed":7,"stream":false,"temperature":1.5,)"
      R"("max_tokens":12,)" +
      msgs + ",";
  // "gold" is read: it has no budget of its own, so the default budget
  // sheds the request, and t1 is charged.
  Result<Routed> shed =
      RouteOnly(rb, R"({"slo_class":"gold",)" + typed + other + "}");
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(shed.status().message().find("exceeds budget 0.500000s"),
            std::string::npos)
      << shed.status();
  EXPECT_EQ(rb.tenant("t1").shed, 1u);
  EXPECT_EQ(rb.tenant("t1").admitted, 0u);

  r = RouteOnly(rb, R"({"slo_class":"silver",)" + typed + other + "}");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->model, "deepseek-r1-7b-fp16");
  EXPECT_EQ(r->params.max_tokens, 12);
  EXPECT_FALSE(r->params.stream);
  EXPECT_EQ(r->params.temperature, 1.5);
  EXPECT_EQ(r->params.seed, 7u);
  EXPECT_EQ(rb.tenant("t1").admitted, 1u);

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
