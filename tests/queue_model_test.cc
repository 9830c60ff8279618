// Unit tests for src/net/queue_model.h: kFifo equivalence with FifoResource,
// windowed-M/G/1 load response, and the determinism contract — channel replay stays
// bit-identical to the per-op oracle of tests/replay_conformance.h with a non-trivial
// queue model enabled under a live fault schedule.
#include <gtest/gtest.h>

#include <memory>

#include "src/baselines/mind_system.h"
#include "src/net/queue_model.h"
#include "src/sim/resource.h"
#include "src/workload/generators.h"
#include "src/workload/replay.h"
#include "tests/replay_conformance.h"

namespace mind {
namespace {

FabricConfig Config(QueueModelKind kind, SimTime window = 200'000) {
  FabricConfig c;
  c.queue_model = kind;
  c.window_ns = window;
  return c;
}

// --- kFifo: bit-identical to the historical FifoResource ------------------------------

TEST(QueueModel, FifoBitIdenticalToFifoResource) {
  const auto model = MakeQueueModel(Config(QueueModelKind::kFifo));
  FifoResource reference;
  // A deterministic mix of backlogged, idle-gap and zero-service requests.
  SimTime arrival = 0;
  for (int i = 0; i < 500; ++i) {
    const SimTime service = static_cast<SimTime>((i * 37) % 400);
    arrival += static_cast<SimTime>((i * 13) % 250);
    const auto got = model->Acquire(arrival, service);
    const auto want = reference.Acquire(arrival, service);
    ASSERT_EQ(got.start, want.start) << "request " << i;
    ASSERT_EQ(got.finish, want.finish) << "request " << i;
    ASSERT_EQ(got.wait, want.wait) << "request " << i;
  }
  EXPECT_EQ(model->total_busy(), reference.total_busy());
  EXPECT_EQ(model->total_wait(), reference.total_wait());
  EXPECT_EQ(model->jobs(), reference.jobs());
}

TEST(QueueModel, FifoStageModelIsPassThrough) {
  // Historical switch pipeline: a flat constant every message pays concurrently. The
  // default stage model must never add wait, whatever the backlog.
  const auto stage = MakeStageModel(Config(QueueModelKind::kFifo));
  for (int i = 0; i < 100; ++i) {
    const auto g = stage->Acquire(/*arrival=*/50, /*service=*/1000);
    EXPECT_EQ(g.start, 50u);
    EXPECT_EQ(g.finish, 1050u);
    EXPECT_EQ(g.wait, 0u);
  }
  // Demand is still recorded: occupancy feedback works under the default too.
  EXPECT_GT(stage->Utilization(), 0.0);
}

// --- Windowed M/G/1: analytical load response ------------------------------------------

TEST(QueueModel, WindowedMG1IdlePortHasNoWait) {
  const auto model = MakeQueueModel(Config(QueueModelKind::kWindowedMG1));
  const auto g = model->Acquire(/*arrival=*/0, /*service=*/500);
  EXPECT_EQ(g.wait, 0u);  // First request sees an empty window.
  EXPECT_EQ(g.finish, 500u);
}

TEST(QueueModel, WindowedMG1WaitRisesWithOfferedLoad) {
  // Same service, increasing arrival density: the M/G/1 estimate must be monotone in
  // windowed utilization and stay finite at saturation (rho clamp).
  constexpr SimTime kService = 1'000;
  SimTime last_wait = 0;
  for (const int jobs : {4, 16, 64, 160}) {
    const auto model = MakeQueueModel(Config(QueueModelKind::kWindowedMG1,
                                             /*window=*/100'000));
    QueueModel::Grant g{};
    for (int i = 0; i < jobs; ++i) {
      g = model->Acquire(/*arrival=*/static_cast<SimTime>(i), kService);
    }
    EXPECT_GE(g.wait, last_wait) << jobs << " jobs";
    last_wait = g.wait;
  }
  EXPECT_GT(last_wait, 0u);
  // rho <= 0.98 bounds the estimate at rho*S/(2(1-rho)) = 24.5 * S.
  EXPECT_LE(last_wait, 25 * kService);
}

TEST(QueueModel, WindowedMG1UtilizationIsPureFunctionOfStream) {
  // Two models fed the same serialized stream must agree exactly — Utilization() has no
  // "current time" input that could diverge across replay modes.
  const auto a = MakeQueueModel(Config(QueueModelKind::kWindowedMG1));
  const auto b = MakeQueueModel(Config(QueueModelKind::kWindowedMG1));
  for (int i = 0; i < 100; ++i) {
    const SimTime arrival = static_cast<SimTime>(i) * 777;
    const SimTime service = static_cast<SimTime>((i * 31) % 900);
    const auto ga = a->Acquire(arrival, service);
    const auto gb = b->Acquire(arrival, service);
    ASSERT_EQ(ga.start, gb.start);
    ASSERT_EQ(ga.wait, gb.wait);
    ASSERT_DOUBLE_EQ(a->Utilization(), b->Utilization());
  }
}

// --- Determinism: a live queue model + fault schedule ------------------------------------

TEST(QueueModel, ChannelReplayBitIdenticalWithMG1UnderFaults) {
  // The acceptance case: a coherence-dense trace on a kWindowedMG1 fabric with message
  // loss, a blade death and a scheduled drain. Every report field AND the canonical
  // semantic byte stream must be identical between the oracle and channel replay.
  RackConfig config;
  config.num_compute_blades = 4;
  config.num_memory_blades = 4;
  config.memory_blade_capacity = 2ull << 30;
  config.compute_cache_bytes = 8ull << 20;
  config.directory_slots = 2048;
  config.splitting.epoch_length = 2 * kMillisecond;
  config.fabric = Config(QueueModelKind::kWindowedMG1);
  config.prefetch.policy = PrefetchPolicy::kNextN;  // Exercises occupancy throttling.
  config.fault.reliability.loss_probability = 0.02;
  config.fault.death.blade = 1;
  config.fault.death.at = 40 * kMillisecond;
  config.fault.drains.push_back(
      FaultPlaneConfig::BladeDrain{/*blade=*/0, /*dst=*/1, /*at=*/20 * kMillisecond});

  WorkloadSpec spec = MemcachedASpec(/*blades=*/4, /*threads_per_blade=*/2,
                                     /*accesses_per_thread=*/2000);
  spec.shared_pages = 4096;
  const WorkloadTraces traces = GenerateTraces(spec);

  const Conformance result = ExpectEngineMatchesOracle(
      [&] { return std::make_unique<MindSystem>(config); }, traces, /*trace=*/true);
  ASSERT_GT(result.oracle.total_ops, 0u);
  EXPECT_GT(result.oracle.counters.breakdown_sums.fabric_wait, 0u);
}

TEST(QueueModel, QueueModelsActuallyChangeTimingUnderLoad) {
  // Sanity that the matrix above is not vacuous: a contended run must produce nonzero
  // fabric wait under kWindowedMG1 and a different makespan than the kFifo default.
  RackConfig fifo_cfg;
  fifo_cfg.num_compute_blades = 4;
  fifo_cfg.num_memory_blades = 2;  // Few ports: concentrated incast.
  fifo_cfg.compute_cache_bytes = 8ull << 20;
  RackConfig mg1_cfg = fifo_cfg;
  mg1_cfg.fabric = Config(QueueModelKind::kWindowedMG1);

  WorkloadSpec spec = MemcachedASpec(/*blades=*/4, /*threads_per_blade=*/2,
                                     /*accesses_per_thread=*/2000);
  spec.shared_pages = 4096;
  spec.think_time = 0;  // Saturating offered load.
  const WorkloadTraces traces = GenerateTraces(spec);

  MindSystem fifo_sys(fifo_cfg);
  MindSystem mg1_sys(mg1_cfg);
  TraceScope fifo_trace;
  TraceScope mg1_trace;
  const ReplayReport fifo = PerOpLoop(&fifo_sys, traces, &fifo_trace);
  const ReplayReport mg1 = PerOpLoop(&mg1_sys, traces, &mg1_trace);
  EXPECT_GT(mg1.counters.breakdown_sums.fabric_wait, 0u);
  EXPECT_NE(mg1.makespan, fifo.makespan);
  // Access spans carry the changed timing.
  EXPECT_NE(mg1_trace.SemanticDigest(), fifo_trace.SemanticDigest());
}

}  // namespace
}  // namespace mind
