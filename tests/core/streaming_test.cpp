// SSE token-streaming tests (DESIGN.md §16): the encoder's deterministic
// wire format, end-to-end chunked delivery through ChatAndStream, the
// default-off identity (no stream_tokens -> the classic three-chunk burst
// wrapped in the same framing), and what a client sees when the engine
// loses power mid-stream.

#include "core/sse.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/swap_serve.h"
#include "fixture.h"
#include "util/log.h"

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
  cfg.fault.rules.push_back(crash);
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

// --- Crashes mid-stream ----------------------------------------------------

// One chunk as its reader saw it: the instant (ns after the streams were
// opened), the kind and the token count.
struct Seen {
  std::int64_t at_ns = 0;
  ResponseChunk::Kind kind = ResponseChunk::Kind::kTokens;
  std::int64_t tokens = 0;
};

struct CrashRun {
  std::vector<std::vector<Seen>> streams;  // per stream, in arrival order
  int aborted = 0;                         // "stream:aborted" instants
  std::uint64_t requeues = 0;
};

sim::Task<> ReadStream(sim::Simulation* sim, sim::SimTime t0,
                       ResponseChannelPtr channel, std::vector<Seen>* seen) {
  while (std::optional<ResponseChunk> c = co_await channel->Recv()) {
    seen->push_back({(sim->Now() - t0).ns(), c->kind, c->token_count});
  }
}

sim::Task<> OpenStream(sim::Simulation* sim, SwapServe* serve,
                       sim::SimTime at, sim::SimTime t0,
                       std::vector<Seen>* seen) {
  co_await sim->WaitUntil(at);
  InferenceRequest request;
  request.model = "llama-3.2-1b-fp16";
  request.prompt_tokens = 128;
  request.max_tokens = 64;
  request.stream = true;
  request.arrival_time_s = sim->Now().ToSeconds();
  Result<ResponseChannelPtr> channel = serve->handler().Accept(request);
  EXPECT_TRUE(channel.ok()) << channel.status();
  if (!channel.ok()) co_return;
  co_await ReadStream(sim, t0, std::move(*channel), seen);
}

// A warm Ollama llama-3.2-1b streaming 64-token replies in 16-token chunks.
// One stream opens at each of `opens` (ns after warm-up); when `crash_ns`
// is set, the engine loses power at that instant through MarkCrashed, the
// path a node's power loss takes.
CrashRun RunStreams(const std::vector<std::int64_t>& opens,
                    std::optional<std::int64_t> crash_ns) {
  TestBed bed;
  SwapServe serve(bed.sim, StreamingConfig(bed, true), bed.catalog,
                  bed.hardware());
  CrashRun run;
  run.streams.resize(opens.size());
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serve.Initialize()).ok());
    EXPECT_TRUE((co_await serve.SwapIn("llama-3.2-1b-fp16")).ok());
    const sim::SimTime t0 = bed.sim.Now();
    for (std::size_t i = 0; i < opens.size(); ++i) {
      bed.sim.Go(OpenStream(&bed.sim, &serve,
                            t0 + sim::SimDuration(opens[i]), t0,
                            &run.streams[i]));
    }
    if (crash_ns.has_value()) {
      engine::InferenceEngine* engine =
          serve.backend("llama-3.2-1b-fp16")->engine.get();
      bed.sim.ScheduleAt(t0 + sim::SimDuration(*crash_ns), [engine] {
        engine->MarkCrashed("test power loss");
      });
    }
    co_await bed.sim.Delay(sim::Seconds(300));
    serve.Shutdown();
  });
  for (const obs::TraceEvent& e : serve.obs().trace.Snapshot()) {
    if (e.name == "stream:aborted") ++run.aborted;
  }
  run.requeues = serve.metrics().requeues;
  return run;
}

std::int64_t TokensOf(const std::vector<Seen>& seen) {
  std::int64_t total = 0;
  for (const Seen& s : seen) total += s.tokens;
  return total;
}

TEST(StreamingCrashTest, CrashDuringPrefillRequeuesAndDeliversAll) {
  const CrashRun ref = RunStreams({0}, std::nullopt);
  const std::vector<Seen>& chunks = ref.streams[0];
  ASSERT_EQ(chunks.size(), 5u);  // 4 token chunks + done
  // The first chunk lands one chunk of decode after the prefill end, so a
  // crash 1 µs after the request opened falls inside the prefill.
  const std::int64_t prefill_ns =
      chunks[0].at_ns - (chunks[1].at_ns - chunks[0].at_ns);
  ASSERT_GT(prefill_ns, 1000);
  const CrashRun run = RunStreams({0}, 1000);
  const std::vector<Seen>& seen = run.streams[0];
  ASSERT_EQ(seen.size(), 5u);
  EXPECT_EQ(seen[0].kind, ResponseChunk::Kind::kFirstToken);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(seen[static_cast<std::size_t>(i)].tokens, 16);
  }
  EXPECT_EQ(seen[4].kind, ResponseChunk::Kind::kDone);
  EXPECT_EQ(TokensOf(seen), 64);
  // Served by the retry, after the engine came back.
  EXPECT_GT(seen[0].at_ns, chunks[3].at_ns);
  EXPECT_EQ(run.requeues, 1u);
  EXPECT_EQ(run.aborted, 0);
}

TEST(StreamingCrashTest, CrashMidDecodeEndsTheStreamAtTheNextChunk) {
  const CrashRun ref = RunStreams({0}, std::nullopt);
  const std::vector<Seen>& chunks = ref.streams[0];
  ASSERT_EQ(chunks.size(), 5u);
  // Between the second and third chunk.
  const std::int64_t crash = (chunks[1].at_ns + chunks[2].at_ns) / 2;
  const CrashRun run = RunStreams({0}, crash);
  const std::vector<Seen>& seen = run.streams[0];
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0].kind, ResponseChunk::Kind::kFirstToken);
  EXPECT_EQ(seen[0].at_ns, chunks[0].at_ns);
  EXPECT_EQ(seen[1].kind, ResponseChunk::Kind::kTokens);
  EXPECT_EQ(seen[1].at_ns, chunks[1].at_ns);
  EXPECT_EQ(TokensOf(seen), 32);
  // The error chunk comes at the instant the third chunk was due, and it
  // is terminal: tokens already reached the client, so nothing retries.
  EXPECT_EQ(seen[2].kind, ResponseChunk::Kind::kError);
  EXPECT_EQ(seen[2].at_ns, chunks[2].at_ns);
  EXPECT_EQ(run.aborted, 1);
  EXPECT_EQ(run.requeues, 0u);
}

// FNV-1a over every chunk of every run: stream, instant, kind, tokens.
struct Digest {
  std::uint64_t h = 14695981039346656037ull;
  void Add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
};

// Two overlapping streams, the engine crashing at 330 instants: 240 spread
// from the first request's prefill to past the second's last chunk, 40
// inside each prefill, and every chunk instant and prefill end exactly
// (a crash scheduled before the streams opened fires first at a tie).
// Every chunk's instant, kind and token count must match what the
// per-chunk decode loop delivered: the value below was recorded from that
// loop, and a change that moves it re-baselines through ROADMAP item 13.
TEST(StreamingCrashTest, CrashSweepOverTwoStreamsMatchesRecordedDigest) {
  // 330 runs of crash warnings say nothing the digest does not.
  Logger::Global().set_level(LogLevel::kError);
  const CrashRun ref = RunStreams({0}, std::nullopt);
  ASSERT_EQ(ref.streams[0].size(), 5u);
  const std::int64_t chunk_ns =
      ref.streams[0][1].at_ns - ref.streams[0][0].at_ns;
  const std::int64_t prefill_ns = ref.streams[0][0].at_ns - chunk_ns;
  ASSERT_GT(prefill_ns, 0);
  // The second stream opens between the first one's first two chunks.
  const std::vector<std::int64_t> opens = {
      0, (ref.streams[0][0].at_ns + ref.streams[0][1].at_ns) / 2};
  const CrashRun overlap = RunStreams(opens, std::nullopt);
  const std::int64_t span = overlap.streams[1].back().at_ns;

  std::vector<std::int64_t> crashes;
  for (int i = 0; i < 240; ++i) {
    // Odd ns offsets, so the sweep does not sit on a grid of its own.
    crashes.push_back(span * (i + 1) / 240 + 7 * i + 1);
  }
  for (const std::int64_t open : opens) {
    for (int i = 0; i < 40; ++i) {
      crashes.push_back(open + prefill_ns * (i + 1) / 41 + 3 * i);
    }
    crashes.push_back(open + prefill_ns);
  }
  for (const std::vector<Seen>& stream : overlap.streams) {
    for (const Seen& c : stream) {
      if (c.kind != ResponseChunk::Kind::kDone) crashes.push_back(c.at_ns);
    }
  }
  ASSERT_EQ(crashes.size(), 330u);

  Digest digest;
  int aborted = 0;
  std::uint64_t requeues = 0;
  for (const std::int64_t crash : crashes) {
    const CrashRun run = RunStreams(opens, crash);
    aborted += run.aborted;
    requeues += run.requeues;
    for (std::size_t s = 0; s < run.streams.size(); ++s) {
      for (const Seen& c : run.streams[s]) {
        digest.Add(s);
        digest.Add(static_cast<std::uint64_t>(c.at_ns));
        digest.Add(static_cast<std::uint64_t>(c.kind));
        digest.Add(static_cast<std::uint64_t>(c.tokens));
      }
    }
    digest.Add(~std::uint64_t{0});  // run separator
  }
  // Both outcomes occur: a stream cut after its first chunk aborts, one
  // cut before it is retried.
  EXPECT_GT(aborted, 0);
  EXPECT_GT(requeues, 0u);
  EXPECT_EQ(digest.h, 0xe41b392ef46615bfull) << std::hex << digest.h;
  Logger::Global().set_level(LogLevel::kWarning);
}

}  // namespace
}  // namespace swapserve::core
