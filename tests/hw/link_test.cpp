#include "hw/link.h"

#include <gtest/gtest.h>

#include "sim/random.h"
#include "sim/task.h"

namespace swapserve::hw {
namespace {

TEST(LinkTest, TransferTimeMatchesBandwidth) {
  sim::Simulation sim;
  Link link(sim, "pcie", GBps(10));
  double done_at = -1;
  sim.Go([&]() -> sim::Task<> {
    co_await link.Transfer(GB(30));
    done_at = sim.Now().ToSeconds();
  });
  sim.Run();
  EXPECT_DOUBLE_EQ(done_at, 3.0);
  EXPECT_EQ(link.total_transferred(), GB(30));
  EXPECT_EQ(link.transfer_count(), 1u);
}

TEST(LinkTest, SetupLatencyAdds) {
  sim::Simulation sim;
  Link link(sim, "pcie", GBps(10), sim::Millis(500));
  double done_at = -1;
  sim.Go([&]() -> sim::Task<> {
    co_await link.Transfer(GB(10));
    done_at = sim.Now().ToSeconds();
  });
  sim.Run();
  EXPECT_DOUBLE_EQ(done_at, 1.5);
}

TEST(LinkTest, ConcurrentTransfersSerializeFifo) {
  sim::Simulation sim;
  Link link(sim, "pcie", GBps(10));
  std::vector<double> done;
  for (int i = 0; i < 3; ++i) {
    sim.Go([&]() -> sim::Task<> {
      co_await link.Transfer(GB(10));  // 1 s each
      done.push_back(sim.Now().ToSeconds());
    });
  }
  sim.Run();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_DOUBLE_EQ(done[0], 1.0);
  EXPECT_DOUBLE_EQ(done[1], 2.0);
  EXPECT_DOUBLE_EQ(done[2], 3.0);
  EXPECT_EQ(link.in_flight(), 0);
}

TEST(LinkTest, IdleTransferTimeIsPureTiming) {
  sim::Simulation sim;
  Link link(sim, "x", GBps(5));
  EXPECT_DOUBLE_EQ(link.IdleTransferTime(GB(10)).ToSeconds(), 2.0);
}

TEST(LinkTest, IdleTransferTimeIncludesSetupLatency) {
  sim::Simulation sim;
  Link link(sim, "x", GBps(5), sim::Millis(500));
  // What Transfer() actually takes on an idle link — setup included.
  EXPECT_DOUBLE_EQ(link.IdleTransferTime(GB(10)).ToSeconds(), 2.5);
  double done_at = -1;
  sim.Go([&]() -> sim::Task<> {
    co_await link.Transfer(GB(10));
    done_at = sim.Now().ToSeconds();
  });
  sim.Run();
  EXPECT_DOUBLE_EQ(done_at, link.IdleTransferTime(GB(10)).ToSeconds());
}

TEST(LinkTest, EstimatedTransferTimeAccountsForQueue) {
  sim::Simulation sim;
  Link link(sim, "x", GBps(10), sim::Millis(100));
  EXPECT_DOUBLE_EQ(link.EstimatedTransferTime(GB(10)).ToSeconds(), 1.1);
  sim.Go([&]() -> sim::Task<> { co_await link.Transfer(GB(20)); });
  sim.Go([&]() -> sim::Task<> {
    // 20 GB pending + one in-flight setup ahead of us.
    EXPECT_DOUBLE_EQ(link.EstimatedTransferTime(GB(10)).ToSeconds(),
                     2.0 + 0.1 + 1.1);
    co_return;
  });
  sim.Run();
}

TEST(LinkTest, ChunkedMatchesMonolithicTiming) {
  sim::Simulation sim;
  Link whole(sim, "a", GBps(10), sim::Millis(250));
  Link chunked(sim, "b", GBps(10), sim::Millis(250));
  double whole_at = -1;
  double chunked_at = -1;
  sim.Go([&]() -> sim::Task<> {
    co_await whole.Transfer(GB(8));
    whole_at = sim.Now().ToSeconds();
  });
  sim.Go([&]() -> sim::Task<> {
    TransferOptions opts;
    opts.chunk_bytes = MiB(512);
    co_await chunked.TransferChunked(GB(8), opts);
    chunked_at = sim.Now().ToSeconds();
  });
  sim.Run();
  // Setup is charged once; per-chunk wire time only rounds per chunk.
  EXPECT_NEAR(chunked_at, whole_at, 1e-7);
}

// Chunking only yields the channel: across random sizes, chunk sizes,
// bandwidths and setup latencies a chunked transfer on an idle link lands
// when the monolithic one does, setup charged once.
TEST(LinkTest, ChunkedMatchesMonolithicAcrossSeeds) {
  sim::Rng rng(0x5eed0001);
  for (int trial = 0; trial < 50; ++trial) {
    const Bytes size = MiB(static_cast<double>(rng.UniformInt(1, 64 * 1024)));
    const Bytes chunk = MiB(static_cast<double>(rng.UniformInt(1, 4096)));
    const auto bw = GBps(rng.Uniform(1.0, 60.0));
    const auto setup = sim::Millis(rng.Uniform(0.0, 800.0));

    sim::Simulation sim;
    Link whole(sim, "whole", bw, setup);
    Link chunked(sim, "chunked", bw, setup);
    double whole_at = -1;
    double chunked_at = -1;
    sim.Go([&]() -> sim::Task<> {
      co_await whole.Transfer(size);
      whole_at = sim.Now().ToSeconds();
    });
    sim.Go([&]() -> sim::Task<> {
      TransferOptions opts;
      opts.chunk_bytes = chunk;
      co_await chunked.TransferChunked(size, opts);
      chunked_at = sim.Now().ToSeconds();
    });
    sim.Run();
    // Only per-chunk ns rounding may differ, far below one setup latency.
    EXPECT_NEAR(chunked_at, whole_at, 1e-5)
        << "size=" << size.ToString() << " chunk=" << chunk.ToString();
    EXPECT_EQ(whole.total_transferred(), chunked.total_transferred());
  }
}

TEST(LinkTest, UrgentChunksJumpAheadOfBackground) {
  sim::Simulation sim;
  Link link(sim, "x", GBps(1));
  double background_at = -1;
  double urgent_at = -1;
  sim.Go([&]() -> sim::Task<> {
    TransferOptions opts;
    opts.chunk_bytes = GB(1);  // yields between 1 s chunks
    opts.priority = TransferPriority::kBackground;
    co_await link.TransferChunked(GB(10), opts);
    background_at = sim.Now().ToSeconds();
  });
  sim.Go([&]() -> sim::Task<> {
    co_await sim.Delay(sim::Millis(100));  // arrive mid-chunk
    TransferOptions opts;
    opts.priority = TransferPriority::kUrgent;
    co_await link.TransferChunked(GB(2), opts);
    urgent_at = sim.Now().ToSeconds();
  });
  sim.Run();
  // The urgent transfer waits only for the in-progress chunk, then takes
  // the channel ahead of the remaining background chunks.
  EXPECT_DOUBLE_EQ(urgent_at, 3.0);       // 1 s chunk boundary + 2 s
  EXPECT_DOUBLE_EQ(background_at, 12.0);  // pays the 2 s detour
}

TEST(LinkTest, DuplexDirectionsDoNotContend) {
  sim::Simulation sim;
  DuplexLink pcie(sim, "pcie", GBps(10), GBps(8));
  double h2d_at = -1;
  double d2h_at = -1;
  sim.Go([&]() -> sim::Task<> {
    co_await pcie.h2d().Transfer(GB(20));
    h2d_at = sim.Now().ToSeconds();
  });
  sim.Go([&]() -> sim::Task<> {
    co_await pcie.d2h().Transfer(GB(16));
    d2h_at = sim.Now().ToSeconds();
  });
  sim.Run();
  // Full-duplex: both finish as if alone on the wire.
  EXPECT_DOUBLE_EQ(h2d_at, 2.0);
  EXPECT_DOUBLE_EQ(d2h_at, 2.0);
}

TEST(StorageDeviceTest, ReadFilePaysOpenOverhead) {
  sim::Simulation sim;
  StorageDevice disk(sim, "nvme", GBps(6), sim::Seconds(0.4));
  double done_at = -1;
  sim.Go([&]() -> sim::Task<> {
    co_await disk.ReadFile(GB(12));
    done_at = sim.Now().ToSeconds();
  });
  sim.Run();
  EXPECT_DOUBLE_EQ(done_at, 0.4 + 2.0);
  EXPECT_EQ(disk.total_read(), GB(12));
}

TEST(StorageDeviceTest, ShardedReadOverlapsOpensWithReads) {
  sim::Simulation sim;
  StorageDevice disk(sim, "nvme", GBps(10), sim::Seconds(0.1));
  double done_at = -1;
  sim.Go([&]() -> sim::Task<> {
    co_await disk.ReadSharded(GB(20), 4);
    done_at = sim.Now().ToSeconds();
  });
  sim.Run();
  // Shard 0's open (0.1 s) + 2 s of reads; shard N+1's open (0.1 s)
  // overlaps shard N's read (0.5 s) and is off the critical path.
  EXPECT_NEAR(done_at, 2.1, 1e-9);
  EXPECT_EQ(disk.total_read(), GB(20));
}

TEST(StorageDeviceTest, ShardedReadSlowReadsBoundedByOpens) {
  sim::Simulation sim;
  // Opens (1 s) dominate the tiny reads: the pipeline degenerates to
  // open-after-open with reads hidden inside them.
  StorageDevice disk(sim, "nvme", GBps(10), sim::Seconds(1.0));
  double done_at = -1;
  sim.Go([&]() -> sim::Task<> {
    co_await disk.ReadSharded(GB(1), 4);
    done_at = sim.Now().ToSeconds();
  });
  sim.Run();
  // 4 serial opens + only the last shard's read exposed.
  EXPECT_NEAR(done_at, 4.0 + 0.025, 1e-9);
  EXPECT_EQ(disk.total_read(), GB(1));
}

TEST(StorageDeviceTest, ShardRemainderGoesToFirstShard) {
  sim::Simulation sim;
  StorageDevice disk(sim, "nvme", GBps(1), sim::SimDuration(0));
  sim.Go([&]() -> sim::Task<> { co_await disk.ReadSharded(Bytes(10), 3); });
  sim.Run();
  EXPECT_EQ(disk.total_read(), Bytes(10));  // no bytes lost to rounding
}

}  // namespace
}  // namespace swapserve::hw
