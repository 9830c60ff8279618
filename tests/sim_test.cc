// Unit tests for src/sim: latency model calibration and busy-until FIFO resources.
#include <gtest/gtest.h>

#include "src/sim/latency_model.h"
#include "src/sim/resource.h"

namespace mind {
namespace {

TEST(LatencyModel, SerializationScalesWithBytes) {
  LatencyModel lat;
  EXPECT_EQ(lat.Serialize(0), 0u);
  // 4 KB at 100 Gbps = 4096*8/100 ns = 327 ns.
  EXPECT_NEAR(static_cast<double>(lat.Serialize(4096)), 327.0, 1.0);
  // Halving bandwidth doubles the delay.
  LatencyModel slow = lat;
  slow.link_bandwidth_gbps = 50.0;
  EXPECT_NEAR(static_cast<double>(slow.Serialize(4096)),
              2.0 * static_cast<double>(lat.Serialize(4096)), 2.0);
}

TEST(LatencyModel, PageHopExceedsControlHop) {
  LatencyModel lat;
  EXPECT_GT(lat.PageHop(), lat.ControlHop());
}

TEST(LatencyModel, OneRttFetchMatchesPaperBand) {
  // Fig. 7 (left): transitions without invalidations land at 8.5-9.4 us end to end.
  LatencyModel lat;
  const double us = ToMicros(lat.OneRttFetch());
  EXPECT_GE(us, 8.0);
  EXPECT_LE(us, 9.5);
}

TEST(LatencyModel, LocalHitFarBelowRemote) {
  LatencyModel lat;
  // Local DRAM hit < 100 ns (§7.2); remote is two orders of magnitude above.
  EXPECT_LT(lat.local_cache_hit, 100u);
  EXPECT_GT(lat.OneRttFetch() / lat.local_cache_hit, 50u);
}

TEST(FifoResource, NoWaitWhenIdle) {
  FifoResource r;
  const auto g = r.Acquire(100, 50);
  EXPECT_EQ(g.start, 100u);
  EXPECT_EQ(g.finish, 150u);
  EXPECT_EQ(g.wait, 0u);
}

TEST(FifoResource, QueuesBackToBack) {
  FifoResource r;
  (void)r.Acquire(100, 50);
  const auto g2 = r.Acquire(110, 50);  // Arrives while busy.
  EXPECT_EQ(g2.start, 150u);
  EXPECT_EQ(g2.finish, 200u);
  EXPECT_EQ(g2.wait, 40u);
}

TEST(FifoResource, IdleGapResets) {
  FifoResource r;
  (void)r.Acquire(100, 50);
  const auto g2 = r.Acquire(1000, 50);  // Arrives long after the server drained.
  EXPECT_EQ(g2.start, 1000u);
  EXPECT_EQ(g2.wait, 0u);
}

TEST(FifoResource, AccountsTotals) {
  FifoResource r;
  (void)r.Acquire(0, 10);
  (void)r.Acquire(0, 10);
  EXPECT_EQ(r.jobs(), 2u);
  EXPECT_EQ(r.total_busy(), 20u);
  EXPECT_EQ(r.total_wait(), 10u);  // Second job waited 10.
}

}  // namespace
}  // namespace mind
