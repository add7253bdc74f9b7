// Request-plane microbenchmark (DESIGN.md §16): wall-clock cost of parsing
// and dispatching one /v1/chat/completions request.
//
//   parse_dom       json::Parse into a Value tree, the reference parser
//   parse_insitu    the zero-copy in-situ Document the router uses
//   dispatch_insitu OpenAiRouter::ChatCompletions: parse + validate +
//                   admission + enqueue through the real RequestHandler
//                   (queue drained synchronously so it never fills; no
//                   engines are started — Initialize is skipped, so this
//                   measures the request plane, not the simulator)
//
// Both µs/request and allocations/request are reported; the global
// operator new override below counts every heap allocation on the path.
// Set SWAPSERVE_BENCH_JSON=<path> for machine-readable output;
// scripts/check_perf.sh gates the in-situ parse speedup (>= 2x over DOM)
// and regressions against the checked-in BENCH_request_plane.json.
// SWAPSERVE_BENCH_N overrides the per-benchmark iteration count.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <new>
#include <string>
#include <vector>

#include "common.h"
#include "core/router.h"
#include "core/swap_serve.h"
#include "json/document.h"
#include "json/json.h"
#include "util/table.h"

// --- allocation counting ---------------------------------------------------
// Single-threaded binary: a plain counter is enough, and keeping the
// override trivial avoids perturbing what it measures.

namespace {
std::uint64_t g_allocs = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocs;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace swapserve::bench {
namespace {

// A realistic chat body: multi-message, content-part array, options — the
// shape the router validates on every request.
const std::string kBody = R"({
  "model": "llama-3.2-1b-fp16",
  "messages": [
    {"role": "system", "content": "You are a terse assistant. Answer in one sentence unless asked otherwise."},
    {"role": "user", "content": "Summarize the tradeoffs between model hot-swapping and dedicated per-model GPU pools."},
    {"role": "assistant", "content": "Hot-swapping trades higher tail latency on cold models for much better aggregate GPU utilization."},
    {"role": "user", "content": [{"type": "text", "text": "Now give the longer version, with numbers."}]}
  ],
  "max_tokens": 256,
  "temperature": 0.7,
  "stream": true,
  "seed": 42,
  "user": "tenant-7"
})";

struct Sample {
  double us_per_request = 0;
  double allocs_per_request = 0;
};

template <typename F>
Sample Measure(int n, F&& fn) {
  for (int i = 0; i < 1000; ++i) fn();  // warm caches and scratch capacity
  const std::uint64_t allocs_before = g_allocs;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < n; ++i) fn();
  const auto stop = std::chrono::steady_clock::now();
  const double us =
      std::chrono::duration<double, std::micro>(stop - start).count();
  Sample s;
  s.us_per_request = us / n;
  s.allocs_per_request =
      static_cast<double>(g_allocs - allocs_before) / n;
  return s;
}

}  // namespace
}  // namespace swapserve::bench

int main() {
  using namespace swapserve;
  using namespace swapserve::bench;

  PrintHeader("Request plane: parse + dispatch cost per request",
              "dom = Value tree (the reference parser), insitu = Document "
              "(zero-copy views, recycled arena). The dispatch row adds "
              "validation, admission, and the handler enqueue on top of the "
              "in-situ parse.");

  int n = 1000000;
  if (const char* env = std::getenv("SWAPSERVE_BENCH_N"); env != nullptr) {
    n = std::max(1, std::atoi(env));
  }

  std::int64_t sink = 0;

  // --- parse layer ---------------------------------------------------------
  const Sample parse_dom = Measure(n, [&] {
    Result<json::Value> v = json::Parse(kBody);
    sink += v.ok() ? static_cast<std::int64_t>(v->AsObject().size()) : 0;
  });

  // Reused scratch + Document: the steady-state router configuration.
  std::string scratch;
  json::Document doc;
  const Sample parse_insitu = Measure(n, [&] {
    scratch.assign(kBody);
    sink += doc.ParseInSitu(scratch).ok()
                ? static_cast<std::int64_t>(doc.root().size())
                : 0;
  });

  // --- dispatch layer ------------------------------------------------------
  // Real handler + router + backend queue, engines never initialized: the
  // queue is drained synchronously after every accept so dispatch cost is
  // measured, not queue-full rejection.
  Bed bed(Machine::kH100);
  core::Config cfg;
  core::ModelEntry entry;
  entry.model_id = "llama-3.2-1b-fp16";
  entry.engine = "ollama";
  cfg.models.push_back(entry);
  core::SwapServe serve(bed.sim, cfg, bed.catalog, bed.hardware());
  core::Backend* backend = serve.backends()[0];

  const Sample dispatch_insitu = Measure(n, [&] {
    Result<core::ResponseChannelPtr> r = serve.router().ChatCompletions(kBody);
    sink += r.ok() ? 1 : 0;
    if (auto item = backend->queue->TryRecv()) sink += 1;
  });

  TablePrinter table({"path", "us/request", "allocs/request"});
  const auto row = [&table](const char* name, const Sample& s) {
    table.AddRow({name, TablePrinter::Num(s.us_per_request, 3),
                  TablePrinter::Num(s.allocs_per_request, 2)});
  };
  row("parse_dom", parse_dom);
  row("parse_insitu", parse_insitu);
  row("dispatch_insitu", dispatch_insitu);
  table.Print(std::cout);
  std::printf("\nin-situ parse speedup over DOM: %.2fx\n",
              parse_dom.us_per_request / parse_insitu.us_per_request);
  std::printf("(%d iterations per row; sink=%lld)\n", n,
              static_cast<long long>(sink));

  if (const char* path = std::getenv("SWAPSERVE_BENCH_JSON");
      path != nullptr) {
    WriteBenchJson(
        path, "per_request",
        {
            {"parse_dom_us", parse_dom.us_per_request},
            {"parse_dom_allocs", parse_dom.allocs_per_request},
            {"parse_insitu_us", parse_insitu.us_per_request},
            {"parse_insitu_allocs", parse_insitu.allocs_per_request},
            {"dispatch_insitu_us", dispatch_insitu.us_per_request},
            {"dispatch_insitu_allocs", dispatch_insitu.allocs_per_request},
        },
        "Request-plane cost per request (microseconds / heap allocations). "
        "See BENCH_request_plane.json for the gated baseline.");
  }
  return 0;
}
