// Golden-trace regression harness (satellite of the snapshot-tier PR).
//
// Runs the Figure-6a contention scenario — two vLLM models that cannot
// share one H100, each request forcing a full eviction + restore — and
// serializes the complete observability event stream (span phases, names,
// categories, tracks, timestamps, args) plus the end-of-run transfer and
// swap totals into a canonical text form, after checking that every layer
// that counts swaps counts the same number. The result is diffed against a
// checked-in golden file, so ANY change to the simulator's event ordering
// or byte accounting shows up as a reviewable textual diff instead of a
// silent drift.
//
// Updating after an intentional behavior change:
//   ./tests/golden/golden_trace_test --update-golden
// or SWAPSERVE_UPDATE_GOLDEN=1 ctest -L golden
// then commit the rewritten tests/golden/data/*.golden with the change.
//
// A second test pins the tentpole's neutrality guarantee: enabling the
// snapshot tier with an uncontended cache and prefetch off must leave the
// serialized stream byte-identical to the legacy unbounded store. A third
// reruns the scenario with every log statement enabled: disabled
// statements skip their operands, so the stream must not depend on the
// log level.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

#include "../core/fixture.h"
#include "cluster/cluster.h"
#include "core/swap_serve.h"
#include "obs/trace.h"
#include "util/log.h"

namespace swapserve::core {
namespace {

using testing::TestBed;

bool g_update_golden = false;

std::string GoldenPath(const std::string& name) {
  return std::string(SWAPSERVE_GOLDEN_DIR) + "/" + name + ".golden";
}

// Canonical text form of one trace event. '|' never occurs in the names
// this repo emits; args keep their emit order (it is part of the contract).
void AppendEvent(std::ostringstream& out, const obs::TraceEvent& e) {
  out << static_cast<char>(e.phase) << ' ' << e.ts_ns << ' ' << e.dur_ns
      << ' ' << e.name << '|' << e.category << '|' << e.track;
  for (const auto& [key, value] : e.args) out << ' ' << key << '=' << value;
  out << '\n';
}

// One `swapserve_swaps_total` series' count, read without creating it
// (0 when the run never wrote it).
std::uint64_t SwapsTotal(const obs::MetricsRegistry& registry,
                         std::string_view direction,
                         std::string_view trigger) {
  const auto family = registry.families().find("swapserve_swaps_total");
  if (family == registry.families().end()) return 0;
  const auto series = family->second.series.find(obs::MetricsRegistry::LabelKey(
      {{"direction", direction}, {"trigger", trigger}}));
  if (series == family->second.series.end()) return 0;
  return static_cast<std::uint64_t>(series->second.counter->value());
}

// The canonical text of a finished run: its event stream, then its
// completion, swap and transfer totals. Both fig6a scenarios serialize
// through here. Every swap is counted three times, by core::Metrics, by the
// checkpoint engine and by the registry's swapserve_swaps_total series;
// the three must agree on swap-ins, swap-outs and preemptions before the
// totals are written.
std::string SerializeGolden(
    SwapServe& serve, const std::vector<std::unique_ptr<hw::GpuDevice>>& gpus,
    const hw::StorageDevice& storage) {
  const Metrics& metrics = serve.metrics();
  const ckpt::CheckpointEngine& ckpt = serve.ckpt_engine();
  const obs::MetricsRegistry& registry = serve.obs().metrics;
  const std::uint64_t preemptions =
      SwapsTotal(registry, "out", "preemption");
  EXPECT_EQ(metrics.swap_ins, ckpt.swap_in_count());
  EXPECT_EQ(metrics.swap_ins, SwapsTotal(registry, "in", "demand"));
  EXPECT_EQ(metrics.swap_outs, ckpt.swap_out_count());
  EXPECT_EQ(metrics.swap_outs,
            SwapsTotal(registry, "out", "explicit") + preemptions);
  EXPECT_EQ(metrics.preemptions, preemptions);

  std::ostringstream out;
  out << "# swapserve golden trace v1\n";
  out << "# scenario: fig6a two-model vllm contention, 2 rounds\n";
  const std::vector<obs::TraceEvent> events = serve.obs().trace.Snapshot();
  SWAP_CHECK_MSG(serve.obs().trace.dropped() == 0,
                 "trace ring wrapped; golden stream is incomplete");
  for (const obs::TraceEvent& e : events) AppendEvent(out, e);
  out << "# totals\n";
  out << "completed=" << metrics.TotalCompleted()
      << " failed=" << metrics.TotalFailed() + metrics.TotalExpired()
      << " swap_outs=" << ckpt.swap_out_count()
      << " swap_ins=" << ckpt.swap_in_count() << '\n';
  for (std::size_t g = 0; g < gpus.size(); ++g) {
    out << "gpu" << g << ".h2d="
        << gpus[g]->pcie().h2d().total_transferred().count() << " gpu" << g
        << ".d2h=" << gpus[g]->pcie().d2h().total_transferred().count()
        << '\n';
  }
  out << "nvme.read=" << storage.total_read().count()
      << " nvme.write=" << storage.total_written().count() << '\n';
  return out.str();
}

// The fig6a contention scenario, optionally with the snapshot tier armed.
std::string RunFig6aScenario(double host_cache_mib, bool prefetch) {
  TestBed bed;
  std::vector<std::pair<std::string, std::string>> entries = {
      {"llama-3.2-1b-fp16", "vllm"}, {"llama-3.1-8b-fp16", "vllm"}};
  Config cfg = bed.MakeConfig(entries);
  cfg.global.host_cache_mib = host_cache_mib;
  cfg.global.snapshot_prefetch = prefetch;
  SwapServe serve(bed.sim, cfg, bed.catalog, bed.hardware());
  bed.RunTask([&]() -> sim::Task<> {
    SWAP_CHECK((co_await serve.Initialize()).ok());
    // Both models are ~72 GiB resident: alternating forces a swap per
    // request, which is the event ladder the golden file pins.
    for (int round = 0; round < 2; ++round) {
      for (const ModelEntry& entry : cfg.models) {
        ChatResult r = co_await serve.ChatAndWait(entry.model_id, 64, 16);
        SWAP_CHECK_MSG(r.ok, r.error);
      }
    }
    serve.Shutdown();
  });

  return SerializeGolden(serve, bed.gpus, bed.storage);
}

// The same fig6a scenario, but assembled through the cluster layer with
// cluster.nodes = 1 (the default). The node owns its hardware, so totals
// serialize from the node's devices; everything else must line up with
// RunFig6aScenario byte for byte.
std::string RunFig6aCluster() {
  sim::Simulation sim;
  model::ModelCatalog catalog = model::ModelCatalog::Default();
  Config cfg;
  for (const char* model_id : {"llama-3.2-1b-fp16", "llama-3.1-8b-fp16"}) {
    ModelEntry m;
    m.model_id = model_id;
    m.engine = "vllm";
    cfg.models.push_back(std::move(m));
  }
  cluster::ClusterServe fleet(sim, cfg, catalog);
  sim::Spawn([&]() -> sim::Task<> {
    SWAP_CHECK((co_await fleet.Initialize()).ok());
    for (int round = 0; round < 2; ++round) {
      for (const ModelEntry& entry : cfg.models) {
        ChatResult r = co_await fleet.ChatAndWait(entry.model_id, 64, 16);
        SWAP_CHECK_MSG(r.ok, r.error);
      }
    }
    fleet.Shutdown();
  });
  sim.Run();

  return SerializeGolden(fleet.node(0).serve(), fleet.node(0).gpus(),
                         fleet.node(0).storage());
}

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Line-oriented diff summary: gtest's full-string failure output is
// unreadable at this size, so point at the first divergence instead.
void ExpectGoldenMatch(const std::string& name, const std::string& actual) {
  const std::string path = GoldenPath(name);
  if (g_update_golden) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    SUCCEED() << "updated " << path;
    return;
  }
  const std::string expected = ReadFileOrEmpty(path);
  ASSERT_FALSE(expected.empty())
      << path << " is missing; run with --update-golden to create it";
  if (expected == actual) return;
  std::istringstream want(expected), got(actual);
  std::string want_line, got_line;
  for (std::size_t line = 1;; ++line) {
    const bool have_want = static_cast<bool>(std::getline(want, want_line));
    const bool have_got = static_cast<bool>(std::getline(got, got_line));
    if (!have_want && !have_got) break;
    if (want_line != got_line || have_want != have_got) {
      FAIL() << "golden mismatch vs " << path << " at line " << line
             << "\n  golden: " << (have_want ? want_line : "<eof>")
             << "\n  actual: " << (have_got ? got_line : "<eof>")
             << "\nIf the change is intentional, refresh with "
                "--update-golden and commit the diff.";
    }
  }
  FAIL() << "golden mismatch vs " << path << " (content differs)";
}

TEST(GoldenTraceTest, Fig6aEventStreamMatchesGolden) {
  ExpectGoldenMatch("fig6a_trace", RunFig6aScenario(0.0, false));
}

// Determinism gate for the harness itself: two runs of the scenario must
// serialize identically, otherwise the golden diff would flap.
TEST(GoldenTraceTest, Fig6aScenarioIsDeterministic) {
  EXPECT_EQ(RunFig6aScenario(0.0, false), RunFig6aScenario(0.0, false));
}

// An uncontended bounded tier (cache as large as the snapshot budget,
// prefetch off) must schedule exactly what the unbounded tier does: same
// event ordering, same transfer totals.
TEST(GoldenTraceTest, UncontendedTierIsByteIdenticalToLegacyPath) {
  const std::string unbounded = RunFig6aScenario(0.0, false);
  const std::string bounded = RunFig6aScenario(192.0 * 1024, false);
  EXPECT_EQ(unbounded, bounded)
      << "an idle bounded tier perturbed the event stream";
}

// Swallows what std::clog is given, counting the characters.
class DiscardBuf : public std::streambuf {
 public:
  std::size_t written() const { return written_; }

 protected:
  int overflow(int c) override {
    ++written_;
    return traits_type::not_eof(c);
  }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    written_ += static_cast<std::size_t>(n);
    return n;
  }

 private:
  std::size_t written_ = 0;
};

// Logs every statement to a discarded std::clog for its lifetime.
class VerboseLogScope {
 public:
  VerboseLogScope()
      : saved_buf_(std::clog.rdbuf(&buf_)),
        saved_level_(Logger::Global().level()) {
    Logger::Global().set_level(LogLevel::kTrace);
  }
  ~VerboseLogScope() {
    Logger::Global().set_level(saved_level_);
    std::clog.rdbuf(saved_buf_);
  }
  VerboseLogScope(const VerboseLogScope&) = delete;
  VerboseLogScope& operator=(const VerboseLogScope&) = delete;
  std::size_t written() const { return buf_.written(); }

 private:
  DiscardBuf buf_;
  std::streambuf* saved_buf_;
  LogLevel saved_level_;
};

// A disabled SWAP_LOG evaluates none of its operands, so an operand with a
// side effect would make the simulation depend on the log level. With
// every statement enabled, the stream must still match the golden file.
TEST(GoldenTraceTest, LogLevelDoesNotChangeTheSimulation) {
  std::string verbose;
  std::size_t logged = 0;
  {
    VerboseLogScope scope;
    verbose = RunFig6aScenario(0.0, false);
    logged = scope.written();
  }
  EXPECT_GT(logged, 0u) << "the scenario logged nothing at kTrace";
  ExpectGoldenMatch("fig6a_trace", verbose);
}

// Cluster-layer acceptance: a one-node fleet is inert — the serialized
// fig6a stream must be byte-identical to the plain single-machine path
// (and therefore to the checked-in golden file).
TEST(GoldenTraceTest, SingleNodeClusterIsByteIdenticalToSingleMachine) {
  const std::string fleet = RunFig6aCluster();
  EXPECT_EQ(RunFig6aScenario(0.0, false), fleet)
      << "a one-node cluster perturbed the event stream";
  ExpectGoldenMatch("fig6a_trace", fleet);
}

}  // namespace
}  // namespace swapserve::core

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--update-golden") {
      swapserve::core::g_update_golden = true;
    }
  }
  if (const char* env = std::getenv("SWAPSERVE_UPDATE_GOLDEN");
      env != nullptr && env[0] == '1') {
    swapserve::core::g_update_golden = true;
  }
  return RUN_ALL_TESTS();
}
