// The fleet's migration sweep: a Stop()+Start() within one interval leaves
// exactly one loop sweeping.

#include <gtest/gtest.h>

#include <cstdint>

#include "cluster/cluster.h"
#include "model/catalog.h"
#include "sim/simulation.h"

namespace swapserve::cluster {
namespace {

constexpr const char* kModel = "llama-3.2-1b-fp16";

core::Config MigrationConfig() {
  core::Config cfg;
  core::ModelEntry m;
  m.model_id = kModel;
  m.engine = "vllm";
  cfg.models.push_back(m);
  cfg.cluster.nodes = 2;
  cfg.cluster.migration = true;
  cfg.cluster.migrate_interval_s = 1.0;
  return cfg;
}

struct Bed {
  sim::Simulation sim;
  model::ModelCatalog catalog = model::ModelCatalog::Default();
  ClusterServe cluster{sim, MigrationConfig(), catalog};

  template <typename F>
  void RunTask(F body) {
    sim::Spawn(std::move(body));
    sim.Run();
  }
  // Long generations keep queue pressure up for the whole test.
  void Load(int requests) {
    for (int i = 0; i < requests; ++i) {
      core::InferenceRequest req;
      req.model = kModel;
      req.prompt_tokens = 64;
      req.max_tokens = 16384;
      SWAP_CHECK(cluster.Accept(std::move(req)).ok());
    }
  }
};

TEST(MigrationLoopTest, StopThenStartRunsOneLoop) {
  Bed bed;
  bed.RunTask([&]() -> sim::Task<> {
    SWAP_CHECK((co_await bed.cluster.Initialize()).ok());
    bed.Load(4);
    co_await bed.sim.Delay(sim::Seconds(3) + sim::Millis(100));
    sim::GridLoop& loop = bed.cluster.migration_loop();
    loop.Stop();
    co_await bed.sim.Delay(sim::Millis(300));
    loop.Start();
    const std::uint64_t before = loop.passes();
    co_await bed.sim.Delay(sim::Seconds(10) + sim::Millis(100));
    EXPECT_EQ(loop.passes() - before, 10u);
    bed.cluster.Shutdown();
  });
}

}  // namespace
}  // namespace swapserve::cluster
