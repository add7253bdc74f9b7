// SSE token-streaming tests (DESIGN.md §16): the encoder's deterministic
// wire format, end-to-end chunked delivery through ChatAndStream, and the
// default-off identity (no stream_tokens -> the classic three-chunk burst
// wrapped in the same framing).

#include "core/sse.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/swap_serve.h"
#include "fixture.h"

namespace swapserve::core {
namespace {

using testing::TestBed;

ResponseChunk TokenChunk(ResponseChunk::Kind kind, std::int64_t n) {
  ResponseChunk c;
  c.kind = kind;
  c.token_count = n;
  return c;
}

TEST(SseEncoderTest, DeltaFrameFormat) {
  SseEncoder enc(/*request_id=*/1, "m");
  EXPECT_EQ(
      enc.Encode(TokenChunk(ResponseChunk::Kind::kFirstToken, 16)),
      "data: {\"choices\":[{\"delta\":{\"tokens\":16},\"finish_reason\":null,"
      "\"index\":0}],\"id\":\"chatcmpl-1\",\"model\":\"m\","
      "\"object\":\"chat.completion.chunk\"}\n\n");
}

TEST(SseEncoderTest, FinishFrameCarriesUsageAndTiming) {
  SseEncoder enc(/*request_id=*/7, "m");
  (void)enc.Encode(TokenChunk(ResponseChunk::Kind::kFirstToken, 16));
  (void)enc.Encode(TokenChunk(ResponseChunk::Kind::kTokens, 16));
  ResponseChunk done;
  done.kind = ResponseChunk::Kind::kDone;
  done.ttft_s = 0.5;
  done.total_s = 1.5;
  done.swap_wait_s = 0;
  EXPECT_EQ(
      enc.Encode(done),
      "data: {\"choices\":[{\"delta\":{},\"finish_reason\":\"stop\","
      "\"index\":0}],\"id\":\"chatcmpl-7\",\"model\":\"m\","
      "\"object\":\"chat.completion.chunk\","
      "\"timing\":{\"swap_wait_s\":0,\"total_s\":1.5,\"ttft_s\":0.5},"
      "\"usage\":{\"completion_tokens\":32}}\n\n");
}

TEST(SseEncoderTest, ErrorFrameFormat) {
  SseEncoder enc(/*request_id=*/2, "m");
  ResponseChunk err;
  err.kind = ResponseChunk::Kind::kError;
  EXPECT_EQ(
      enc.Encode(err, "engine crashed"),
      "data: {\"choices\":[{\"delta\":{},\"finish_reason\":\"error\","
      "\"index\":0}],\"error\":{\"message\":\"engine crashed\"},"
      "\"id\":\"chatcmpl-2\",\"model\":\"m\","
      "\"object\":\"chat.completion.chunk\"}\n\n");
}

TEST(SseEncoderTest, DoneTerminator) {
  EXPECT_EQ(SseEncoder::Done(), "data: [DONE]\n\n");
}

// --- End to end through the assembled stack ------------------------------

Config StreamingConfig(TestBed& bed, bool stream_tokens) {
  Config cfg = bed.MakeConfig({{"llama-3.2-1b-fp16", "ollama"}});
  cfg.global.stream_tokens = stream_tokens;
  cfg.global.stream_chunk_tokens = 16;
  return cfg;
}

TEST(StreamingTest, StreamedResponseDeliversChunkedSseEvents) {
  TestBed bed;
  SwapServe serve(bed.sim, StreamingConfig(bed, true), bed.catalog,
                  bed.hardware());
  ChatResult result;
  std::vector<std::string> events;
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serve.Initialize()).ok());
    result = co_await serve.ChatAndStream("llama-3.2-1b-fp16",
                                          /*prompt_tokens=*/128,
                                          /*max_tokens=*/64, &events);
    serve.Shutdown();
  });
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.output_tokens, 64);

  // 64 tokens in 16-token chunks: 4 delta frames, a finish frame, [DONE].
  ASSERT_EQ(events.size(), 6u);
  for (const std::string& e : events) {
    EXPECT_EQ(e.rfind("data: ", 0), 0u) << e;
    EXPECT_EQ(e.substr(e.size() - 2), "\n\n") << e;
  }
  for (int i = 0; i < 4; ++i) {
    EXPECT_NE(events[static_cast<std::size_t>(i)].find("\"tokens\":16"),
              std::string::npos)
        << events[static_cast<std::size_t>(i)];
  }
  EXPECT_NE(events[4].find("\"finish_reason\":\"stop\""), std::string::npos);
  EXPECT_NE(events[4].find("\"completion_tokens\":64"), std::string::npos);
  EXPECT_EQ(events[5], "data: [DONE]\n\n");
}

TEST(StreamingTest, StreamingOffCollapsesToTheClassicBurst) {
  TestBed bed;
  SwapServe serve(bed.sim, StreamingConfig(bed, false), bed.catalog,
                  bed.hardware());
  ChatResult result;
  std::vector<std::string> events;
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serve.Initialize()).ok());
    result = co_await serve.ChatAndStream("llama-3.2-1b-fp16", 128, 64,
                                          &events);
    serve.Shutdown();
  });
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.output_tokens, 64);
  // kFirstToken(1) + kTokens(63) + finish + [DONE]: same framing, no
  // incremental delivery.
  ASSERT_EQ(events.size(), 4u);
  EXPECT_NE(events[0].find("\"tokens\":1"), std::string::npos);
  EXPECT_NE(events[1].find("\"tokens\":63"), std::string::npos);
  EXPECT_NE(events[2].find("\"finish_reason\":\"stop\""), std::string::npos);
  EXPECT_EQ(events[3], "data: [DONE]\n\n");
}

TEST(StreamingTest, StreamingDoesNotChangeCompletionTiming) {
  ChatResult streamed;
  ChatResult burst;
  {
    TestBed bed;
    SwapServe serve(bed.sim, StreamingConfig(bed, true), bed.catalog,
                    bed.hardware());
    bed.RunTask([&]() -> sim::Task<> {
      EXPECT_TRUE((co_await serve.Initialize()).ok());
      streamed = co_await serve.ChatAndStream("llama-3.2-1b-fp16", 128, 64,
                                              nullptr);
      serve.Shutdown();
    });
  }
  {
    TestBed bed;
    SwapServe serve(bed.sim, StreamingConfig(bed, false), bed.catalog,
                    bed.hardware());
    bed.RunTask([&]() -> sim::Task<> {
      EXPECT_TRUE((co_await serve.Initialize()).ok());
      burst = co_await serve.ChatAndWait("llama-3.2-1b-fp16", 128, 64);
      serve.Shutdown();
    });
  }
  ASSERT_TRUE(streamed.ok && burst.ok);
  EXPECT_EQ(streamed.output_tokens, burst.output_tokens);
  // Chunked decode delays sum to the same schedule (up to tick rounding).
  EXPECT_NEAR(streamed.total_s, burst.total_s, 1e-6);
  EXPECT_NEAR(streamed.ttft_s, burst.ttft_s, 1e-6);
}

// A request that fails terminally still tells the client why: the text
// the worker sets on the response channel reaches both the ChatResult and
// the SSE error frame.
TEST(StreamingTest, TerminalErrorTextReachesResultAndErrorFrame) {
  TestBed bed;
  Config cfg = StreamingConfig(bed, true);
  fault::FaultRule crash;
  crash.point = "engine.crash";
  crash.code = StatusCode::kInternal;
  crash.message = "armed by the test";
  cfg.fault.plan.rules.push_back(crash);
  SwapServe serve(bed.sim, cfg, bed.catalog, bed.hardware());
  ChatResult result;
  std::vector<std::string> events;
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serve.Initialize()).ok());
    result = co_await serve.ChatAndStream("llama-3.2-1b-fp16", 128, 64,
                                          &events);
    serve.Shutdown();
  });
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("armed by the test"), std::string::npos)
      << result.error;
  // The error frame, then [DONE].
  ASSERT_EQ(events.size(), 2u);
  const std::string& frame = events[0];
  ASSERT_EQ(frame.rfind("data: ", 0), 0u) << frame;
  Result<json::Value> payload =
      json::Parse(std::string_view(frame).substr(6));
  ASSERT_TRUE(payload.ok()) << payload.status();
  const json::Value* error = payload->Find("error");
  ASSERT_NE(error, nullptr) << frame;
  EXPECT_EQ(error->GetString("message", ""), result.error);
  EXPECT_EQ(events[1], SseEncoder::Done());
}

TEST(StreamingTest, PerRequestOptOutSkipsChunking) {
  TestBed bed;
  SwapServe serve(bed.sim, StreamingConfig(bed, true), bed.catalog,
                  bed.hardware());
  ChatResult result;
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serve.Initialize()).ok());
    InferenceRequest request;
    request.model = "llama-3.2-1b-fp16";
    request.prompt_tokens = 128;
    request.max_tokens = 64;
    request.stream = false;  // client opted out of streaming
    Result<ResponseChannelPtr> channel = serve.handler().Accept(request);
    EXPECT_TRUE(channel.ok());
    if (channel.ok()) {
      result = co_await SwapServe::CollectResponse(*channel);
    }
    serve.Shutdown();
  });
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.output_tokens, 64);
}

}  // namespace
}  // namespace swapserve::core
