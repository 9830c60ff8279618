// Unit tests for src/net/queue_model.h: kFifo equivalence with FifoResource,
// windowed-M/G/1 load response, and the
// determinism contract — replay stays bit-identical across the execution matrix with a
// non-trivial queue model enabled under a live fault schedule.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/baselines/mind_system.h"
#include "src/net/queue_model.h"
#include "src/sim/resource.h"
#include "src/workload/generators.h"
#include "src/workload/replay.h"

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

// --- Determinism: the execution matrix with a live queue model + fault schedule --------

struct RunResult {
  ReplayReport report;
  std::string semantic_bytes;
  uint64_t digest = 0;
};

RunResult RunMind(const RackConfig& config, const WorkloadTraces& traces,
                  ReplayOptions opts) {
  opts.trace = true;
  MindSystem sys(config);
  ReplayEngine engine(&sys, &traces, opts);
  EXPECT_TRUE(engine.Setup().ok());
  RunResult out;
  out.report = engine.Run();
  const TraceScope* scope = engine.trace_scope();
  EXPECT_NE(scope, nullptr);
  out.semantic_bytes = scope->SemanticBytes();
  out.digest = scope->SemanticDigest();
  return out;
}

TEST(QueueModel, ShardedReplayBitIdenticalWithMG1UnderFaults) {
  // The acceptance case: a coherence-dense trace on a kWindowedMG1 fabric with message
  // loss, a blade death and a scheduled drain. Counters, histograms AND the canonical
  // semantic byte stream must be identical across 1/2/4/8 shards and groups on/off.
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

  ReplayOptions ref_opts;
  ref_opts.use_channels = false;
  const RunResult want = RunMind(config, traces, ref_opts);
  ASSERT_GT(want.report.total_ops, 0u);

  struct Mode {
    bool groups;
    int shards;
  };
  for (const Mode& m : std::vector<Mode>{{true, 1}, {true, 2}, {true, 4}, {true, 8},
                                         {false, 4}}) {
    SCOPED_TRACE(::testing::Message()
                 << (m.groups ? "groups" : "plain") << "/" << m.shards << "shards");
    ReplayOptions opts;
    opts.shards = m.shards;
    opts.use_channel_groups = m.groups;
    const RunResult got = RunMind(config, traces, opts);
    EXPECT_EQ(want.report.makespan, got.report.makespan);
    EXPECT_EQ(want.report.total_ops, got.report.total_ops);
    EXPECT_EQ(want.report.counters.total_accesses, got.report.counters.total_accesses);
    EXPECT_EQ(want.report.counters.invalidations, got.report.counters.invalidations);
    EXPECT_EQ(want.report.counters.breakdown_sums.fabric_wait,
              got.report.counters.breakdown_sums.fabric_wait);
    EXPECT_TRUE(want.report.latency_histogram == got.report.latency_histogram);
    EXPECT_EQ(want.digest, got.digest);
    EXPECT_EQ(want.semantic_bytes, got.semantic_bytes);  // Byte-for-byte.
  }
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

  ReplayOptions opts;
  const RunResult fifo = RunMind(fifo_cfg, traces, opts);
  const RunResult mg1 = RunMind(mg1_cfg, traces, opts);
  EXPECT_GT(mg1.report.counters.breakdown_sums.fabric_wait, 0u);
  EXPECT_NE(mg1.report.makespan, fifo.report.makespan);
  EXPECT_NE(mg1.digest, fifo.digest);  // Access spans carry the changed timing.
}

}  // namespace
}  // namespace mind
