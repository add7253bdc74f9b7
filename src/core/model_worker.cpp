#include "core/model_worker.h"

#include <utility>

#include "core/admission.h"
#include "util/log.h"

namespace swapserve::core {

void ModelWorker::Start() {
  SWAP_CHECK_MSG(!running_, "worker already started");
  running_ = true;
  sim_.Go([this]() -> sim::Task<> {
    co_await Run();
    running_ = false;
  });
}

void ModelWorker::RespondError(const QueuedRequest& item, std::string error) {
  item.response->error = std::move(error);
  (void)item.response->TrySend(
      ResponseChunk{.kind = ResponseChunk::Kind::kError});
  item.response->Close();
}

sim::Task<> ModelWorker::FailOrRequeue(QueuedRequest item, Status status,
                                       std::string error) {
  const bool deadline_ok =
      item.request.deadline_s <= 0 ||
      sim_.Now().ToSeconds() < item.request.deadline_s;
  if (fault::IsRetryable(status) && item.attempt < kRequestRetries &&
      deadline_ok) {
    ++item.attempt;
    metrics_.RecordRequeue(MetricsHandle());
    const sim::SimDuration backoff = backoff_.BackoffBefore(item.attempt, rng_);
    SWAP_LOG(kWarning, "worker")
        << backend_.name() << ": request " << item.request.id
        << " failed, requeueing (attempt " << item.attempt << "/"
        << kRequestRetries << ") in " << backoff.ToString() << ": "
        << status;
    obs::Instant(obs_, "requeue", "worker", backend_.name(),
                 {{"request_id", item.request.id},
                  {"attempt", item.attempt}});
    co_await sim_.Delay(backoff);
    QueuedRequest copy = item;  // for the terminal error if refused
    if (backend_.queue->TrySend(std::move(item))) co_return;
    item = std::move(copy);  // queue full or closed: the error is terminal
  }
  if (fault::IsRetryable(status)) {
    // The failure was the kind a retry could have fixed; the attempt budget
    // (or the client deadline) ran out first.
    obs::IncCounter(obs_, "swapserve_retry_exhausted_total",
                    {{"component", "worker"}, {"model", backend_.name()}});
  }
  metrics_.RecordFailed(MetricsHandle());
  RespondError(item, std::move(error));
}

sim::Task<> ModelWorker::Run() {
  while (true) {
    while (paused_) co_await resumed_.Wait();
    std::optional<QueuedRequest> next = co_await backend_.queue->Recv();
    if (!next.has_value()) break;  // queue closed and drained
    QueuedRequest& item = *next;
    // A pause can land while we were parked in Recv (an arriving request
    // wakes the receiver regardless): hold the request until the node
    // powers back on instead of serving it from a dead machine.
    while (paused_) co_await resumed_.Wait();

    // §4.1: verify the client connection is still active before spending
    // any resources on the request.
    if (item.request.deadline_s > 0 &&
        sim_.Now().ToSeconds() >= item.request.deadline_s) {
      metrics_.RecordExpired(MetricsHandle());
      obs::Instant(obs_, "expire:deadline", "worker", backend_.name(),
                   {{"request_id", item.request.id}});
      RespondError(item, "client deadline expired while queued");
      continue;
    }
    if (obs_ != nullptr) {
      backend_.QueueDepthGauge(*obs_).Set(
          static_cast<double>(backend_.queue->size()));
    }

    // ④⑩ Coordinate swap-in and forward concurrently, so the engine
    // batches while we keep polling the queue. The relay's own frame is
    // the spawned task, and it takes itself off active_relays_.
    ++active_relays_;
    sim::Spawn(Relay(std::move(item)));
  }
}

void ModelWorker::StreamRelay::Send(std::int64_t tokens) {
  ResponseChunk chunk;
  chunk.kind = streamed_tokens == 0 ? ResponseChunk::Kind::kFirstToken
                                    : ResponseChunk::Kind::kTokens;
  chunk.token_count = tokens;
  streamed_tokens += tokens;
  (void)item->response->TrySend(std::move(chunk));
  if (worker->obs_ != nullptr) {
    if (worker->stream_chunks_ == nullptr) {
      worker->stream_chunks_ = &worker->obs_->metrics.GetCounter(
          "swapserve_stream_chunks_total",
          {{"model", worker->backend_.name()}});
    }
    worker->stream_chunks_->Increment();
  }
}

sim::Task<> ModelWorker::Relay(QueuedRequest item) {
  // Run() counted this relay; it ends when the frame does, whichever way
  // it returns.
  struct Counted {
    int& relays;
    ~Counted() { --relays; }
  } counted{active_relays_};
  // Pin the backend: the guard holds shared access, so a concurrent
  // preemption (exclusive) waits for this request to drain, and the
  // scheduler guarantees a freshly swapped-in backend serves us before it
  // can be evicted again.
  const sim::SimTime t0 = sim_.Now();
  obs::Span serve_span =
      obs::StartSpan(obs_, "request.serve", "worker", backend_.name());
  serve_span.AddArg("request_id", item.request.id);
  if (obs_ != nullptr) {
    if (queue_wait_ == nullptr) {
      queue_wait_ = &obs_->metrics.GetHistogram(
          "swapserve_queue_wait_seconds", {{"model", backend_.name()}});
    }
    queue_wait_->Observe(t0.ToSeconds() - item.request.arrival_time_s);
  }
  const bool was_resident =
      backend_.engine->state() == engine::BackendState::kRunning;
  serve_span.AddArg("resident", was_resident ? "true" : "false");
  Result<sim::SimRwLock::SharedGuard> pin =
      co_await scheduler_.EnsureRunningAndPin(backend_);
  const double swap_wait_s =
      was_resident ? 0.0 : (sim_.Now() - t0).ToSeconds();
  if (!pin.ok()) {
    co_await FailOrRequeue(std::move(item), pin.status(),
                           "swap-in failed: " + pin.status().ToString());
    co_return;
  }

  engine::GenerationRequest gen{
      .prompt_tokens = item.request.prompt_tokens,
      .output_tokens = item.request.max_tokens,
      .temperature = item.request.temperature,
      .seed = item.request.seed,
  };
  // SSE streaming (§16): relay each decode chunk to the client as it is
  // produced. Only wired when both the server and the request opted in —
  // an unset callback keeps the engine on its single-delay decode, so
  // non-streaming schedules are byte-identical to the pre-streaming code.
  // The callback captures one pointer to this frame's relay state, which
  // fits std::function's inline buffer: relaying does not allocate.
  StreamRelay stream{.worker = this, .item = &item};
  if (stream_enabled_ && item.request.stream) {
    gen.stream_chunk_tokens = stream_chunk_tokens_;
    gen.on_tokens = [relay = &stream](std::int64_t tokens) {
      relay->Send(tokens);
    };
  }
  const double serve_start_s = sim_.Now().ToSeconds();
  Result<engine::GenerationResult> result =
      co_await backend_.engine->Generate(std::move(gen));
  pin->Release();

  if (!result.ok()) {
    if (stream.streamed_tokens > 0) {
      // Tokens already reached the client; a retry would replay them.
      // The failure is terminal for this request, exactly like a real
      // server that cannot un-send part of an SSE stream.
      obs::Instant(obs_, "stream:aborted", "worker", backend_.name(),
                   {{"request_id", item.request.id}});
      metrics_.RecordFailed(MetricsHandle());
      RespondError(item, result.status().ToString());
      co_return;
    }
    // A mid-request engine crash surfaces here; the requeued attempt finds
    // the backend kCrashed and the scheduler restores it behind a
    // reservation, like a swapped-out backend.
    co_await FailOrRequeue(std::move(item), result.status(),
                           result.status().ToString());
    co_return;
  }

  const double arrival = item.request.arrival_time_s;
  const double ttft_s = (serve_start_s - arrival) +
                        result->time_to_first_token.ToSeconds();
  const double total_s = sim_.Now().ToSeconds() - arrival;

  if (stream.streamed_tokens == 0) {
    ResponseChunk first;
    first.kind = ResponseChunk::Kind::kFirstToken;
    first.token_count = 1;
    (void)item.response->TrySend(std::move(first));
    if (result->output_tokens > 1) {
      ResponseChunk body;
      body.kind = ResponseChunk::Kind::kTokens;
      body.token_count = result->output_tokens - 1;
      (void)item.response->TrySend(std::move(body));
    }
  }
  ResponseChunk done;
  done.kind = ResponseChunk::Kind::kDone;
  done.token_count = 0;
  done.ttft_s = ttft_s;
  done.total_s = total_s;
  done.swap_wait_s = swap_wait_s;
  (void)item.response->TrySend(std::move(done));
  item.response->Close();

  if (admission_ != nullptr) {
    // Feed the EWMA with generation-only service time: swap waits are
    // modelled separately by the controller's swap_penalty_s knob.
    admission_->ObserveService(backend_.name(),
                               sim_.Now().ToSeconds() - serve_start_s);
  }
  metrics_.RecordCompleted(MetricsHandle(), ttft_s, total_s, swap_wait_s,
                           result->output_tokens);
}

}  // namespace swapserve::core
