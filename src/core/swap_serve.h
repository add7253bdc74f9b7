// SwapServe: the assembled framework (§3.1 / Figure 4).
//
// Owns the task manager, engine controller, scheduler, request handler,
// router, per-model backends and workers, the checkpoint engine and
// snapshot store. Initialize() performs the paper's §3.2 startup: run a
// container per configured model, fully initialize each engine, snapshot
// it, and leave it swapped out — so the first request to any model pays a
// hot-swap, never a cold start.

#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ckpt/checkpoint_engine.h"
#include "ckpt/snapshot_store.h"
#include "ckpt/snapshot_tier.h"
#include "core/admin.h"
#include "core/admission.h"
#include "core/backend.h"
#include "core/config.h"
#include "core/engine_controller.h"
#include "core/idle_reaper.h"
#include "core/metrics.h"
#include "core/model_worker.h"
#include "core/request_handler.h"
#include "core/router.h"
#include "core/scheduler.h"
#include "core/snapshot_prefetcher.h"
#include "core/task_manager.h"
#include "fault/fault_injector.h"
#include "hw/gpu_device.h"
#include "hw/gpu_monitor.h"
#include "hw/link.h"
#include "model/catalog.h"
#include "obs/observability.h"
#include "sim/simulation.h"
#include "util/status.h"

namespace swapserve::core {

struct Hardware {
  std::vector<hw::GpuDevice*> gpus;     // not owned
  hw::StorageDevice* storage = nullptr;  // not owned
  container::ContainerRuntime* runtime = nullptr;  // not owned
};

struct SwapServeOptions {
  PreemptionPolicy preemption_policy = PreemptionPolicy::kDemandAware;
  // Keep every backend resident after Initialize() instead of snapshotting
  // and swapping out (useful for ablations; fails if they don't all fit).
  bool keep_resident_after_init = false;
};

// The result of a request refused before it reached a queue.
ChatResult Refused(const Status& status);
// A task that completes with `result` on its first resume.
sim::Task<ChatResult> Ready(ChatResult result);

class SwapServe {
 public:
  SwapServe(sim::Simulation& sim, Config config,
            const model::ModelCatalog& catalog, Hardware hardware,
            SwapServeOptions options = {});
  SwapServe(const SwapServe&) = delete;
  SwapServe& operator=(const SwapServe&) = delete;

  // §3.2 initialization. Must complete before requests are submitted.
  sim::Task<Status> Initialize();

  // Close all queues; resolves once workers drained (call, then Run()).
  void Shutdown();

  // --- serving entry points ---------------------------------------------
  OpenAiRouter& router() { return router_; }
  RequestHandler& handler() { return handler_; }
  // Explicit swap control + status + CSV export (§4.2's explicit API path).
  AdminApi& admin() { return admin_; }

  // Convenience for examples/benches: submit and await the full response.
  // The name is resolved here, before the task starts (a pure lookup);
  // the task submits on its first resume. An unknown model yields a ready
  // task with the NOT_FOUND result.
  // swaplint-ok(coro-ref-param): not a coroutine; the name is resolved before the task exists
  sim::Task<ChatResult> ChatAndWait(std::string_view model_id,
                                    std::int64_t prompt_tokens,
                                    std::int64_t max_tokens);

  // Streaming variant (§16): submit with stream=true and render every
  // response chunk through the SSE encoder into `sse_events` (nullable;
  // one "data: {...}\n\n" frame per chunk plus the "data: [DONE]\n\n"
  // terminator). Token chunks arrive as they are decoded when
  // global.stream_tokens is on; otherwise the frames collapse to the
  // non-streaming burst, same framing either way.
  // swaplint-ok(coro-ref-param): sse_events is caller-owned; awaited to completion before read
  sim::Task<ChatResult> ChatAndStream(std::string model_id,
                                      std::int64_t prompt_tokens,
                                      std::int64_t max_tokens,
                                      std::vector<std::string>* sse_events);

  // Await all chunks from a response channel.
  static sim::Task<ChatResult> CollectResponse(ResponseChannelPtr channel);

  // --- introspection ------------------------------------------------------
  Backend* backend(const std::string& model_id);
  std::vector<Backend*> backends();
  // Total in-flight demand: requests still queued plus relays waiting on
  // swap-in or generating. Workers drain their queue eagerly (one spawned
  // relay per request), so queue depth alone undercounts load — cluster
  // placement scores use this as the node-pressure signal.
  std::size_t InFlight() const;
  Metrics& metrics() { return metrics_; }
  obs::Observability& obs() { return obs_; }
  TaskManager& task_manager() { return task_manager_; }
  EngineController& controller() { return controller_; }
  Scheduler& scheduler() { return scheduler_; }
  ckpt::SnapshotStore& snapshot_store() { return snapshot_store_; }
  ckpt::CheckpointEngine& ckpt_engine() { return ckpt_engine_; }
  // Never null. Unbounded (nothing ever demotes) unless
  // global.host_cache_mib > 0.
  ckpt::SnapshotTierManager* tier_manager() { return &tier_manager_; }
  hw::GpuMonitor& monitor() { return *monitor_; }
  // The shared fault injector (armed only when config.fault has rules; an
  // unarmed injector perturbs nothing). Tests may Configure() it directly.
  fault::FaultInjector& fault_injector() { return fault_injector_; }
  // Null unless admission.enabled (the default path never consults it, so
  // admission-off runs are byte-identical to the pre-admission code).
  AdmissionController* admission() { return admission_.get(); }
  // Fleet failover hooks (cluster::Node::Crash/Boot): park or resume every
  // model worker so a powered-off node consumes nothing from its queues.
  void PauseWorkers();
  void ResumeWorkers();
  bool initialized() const { return initialized_; }

 private:
  // ChatAndWait's task, for a resolved backend.
  // swaplint-ok(coro-ref-param): backends live as long as their SwapServe
  sim::Task<ChatResult> ServeAndWait(Backend& backend,
                                     std::int64_t prompt_tokens,
                                     std::int64_t max_tokens);

  sim::Simulation& sim_;
  Config config_;
  Hardware hardware_;
  SwapServeOptions options_;

  obs::Observability obs_;
  Metrics metrics_;
  fault::FaultInjector fault_injector_;
  ckpt::SnapshotStore snapshot_store_;
  ckpt::SnapshotTierManager tier_manager_;  // see accessor
  ckpt::CheckpointEngine ckpt_engine_;
  TaskManager task_manager_;
  EngineController controller_;
  Scheduler scheduler_;
  RequestHandler handler_;
  OpenAiRouter router_;
  AdminApi admin_;
  std::unique_ptr<SnapshotPrefetcher> prefetcher_;  // null unless prefetch on
  std::unique_ptr<hw::GpuMonitor> monitor_;
  std::unique_ptr<IdleReaper> idle_reaper_;  // null unless configured
  std::unique_ptr<AdmissionController> admission_;  // null unless enabled

  std::vector<std::unique_ptr<Backend>> backends_;
  std::vector<std::unique_ptr<ModelWorker>> workers_;
  bool initialized_ = false;
};

}  // namespace swapserve::core
