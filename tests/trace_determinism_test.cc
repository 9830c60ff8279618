// TraceScope determinism tests (src/obs/): the semantic event stream — access spans,
// invalidation waves, directory splits/merges, fault timeouts/resets, drains, prefetch
// lifecycle — is recorded only on serialized paths, so its canonical byte serialization
// (TraceScope::SemanticBytes) must be BIT-IDENTICAL between channel replay and the per-op
// oracle of tests/replay_conformance.h, for the same seed and fault schedule, on all three
// systems. And tracing must be a pure observer: every report field must be bit-identical
// with tracing on vs off.
// Unit tests of the sink/merge/export machinery live in observability_test.cc.
#include <gtest/gtest.h>

#include <memory>

#include "src/baselines/fastswap.h"
#include "src/baselines/gam.h"
#include "src/baselines/mind_system.h"
#include "src/workload/generators.h"
#include "src/workload/replay.h"
#include "tests/replay_conformance.h"

namespace mind {
namespace {

ReplayReport RunEngine(const SystemFactory& make, const WorkloadTraces& traces,
                       ReplayOptions opts) {
  auto sys = make();
  ReplayEngine engine(sys.get(), &traces, opts);
  EXPECT_TRUE(engine.Setup().ok());
  return engine.Run();
}

// --- Configs: coherence-dense traffic with a live fault schedule ----------------------

RackConfig TracedRackConfig() {
  RackConfig c;
  c.num_compute_blades = 4;
  c.num_memory_blades = 4;
  c.memory_blade_capacity = 2ull << 30;
  c.compute_cache_bytes = 8ull << 20;  // Small cache: real LRU evictions during replay.
  c.directory_slots = 2048;            // Small directory: capacity evictions + merges.
  c.splitting.epoch_length = 2 * kMillisecond;
  c.fault.reliability.loss_probability = 0.02;
  return c;
}

WorkloadSpec CoherenceSpec(int blades) {
  WorkloadSpec spec = MemcachedASpec(blades, /*threads_per_blade=*/2,
                                     /*accesses_per_thread=*/2000);
  spec.shared_pages = 4096;
  return spec;
}

// --- Channel replay reproduces the oracle's semantic stream ---------------------------

TEST(TraceDeterminism, MindSemanticStreamInvariantUnderFaults) {
  RackConfig config = TracedRackConfig();
  // A mid-run blade death (reset path) and a scheduled drain: the fault events, the
  // reset flush wave and the drain/migration events must all land identically.
  config.fault.death.blade = 1;
  config.fault.death.at = 40 * kMillisecond;
  config.fault.drains.push_back(
      FaultPlaneConfig::BladeDrain{/*blade=*/0, /*dst=*/1, /*at=*/20 * kMillisecond});
  const WorkloadTraces traces = GenerateTraces(CoherenceSpec(4));
  const SystemFactory make = [&] { return std::make_unique<MindSystem>(config); };
  ExpectEngineMatchesOracle(make, traces, /*trace=*/true);
}

TEST(TraceDeterminism, GamSemanticStreamInvariant) {
  GamConfig config;
  config.num_compute_blades = 4;
  config.num_memory_blades = 4;
  config.compute_cache_bytes = 8ull << 20;
  config.fault.reliability.loss_probability = 0.02;
  const WorkloadTraces traces = GenerateTraces(CoherenceSpec(4));
  const SystemFactory make = [&] { return std::make_unique<GamSystem>(config); };
  ExpectEngineMatchesOracle(make, traces, /*trace=*/true);
}

TEST(TraceDeterminism, FastSwapSemanticStreamInvariant) {
  FastSwapConfig config;
  config.num_memory_blades = 4;
  config.compute_cache_bytes = 4ull << 20;  // 1024 frames: real faults and evictions.
  config.fault.reliability.loss_probability = 0.02;
  const WorkloadTraces traces = GenerateTraces(CoherenceSpec(1));
  const SystemFactory make = [&] { return std::make_unique<FastSwapSystem>(config); };
  ExpectEngineMatchesOracle(make, traces, /*trace=*/true);
}

TEST(TraceDeterminism, MindSemanticStreamInvariantWithPrefetch) {
  RackConfig config = TracedRackConfig();
  config.prefetch.policy = PrefetchPolicy::kNextN;
  const WorkloadTraces traces = GenerateTraces(CoherenceSpec(4));
  const SystemFactory make = [&] { return std::make_unique<MindSystem>(config); };
  ExpectEngineMatchesOracle(make, traces, /*trace=*/true);
}

// --- Tracing is a pure observer -------------------------------------------------------

void ExpectTracingPure(const SystemFactory& make, const WorkloadTraces& traces) {
  ReplayOptions traced;
  traced.trace = true;
  ExpectReportsIdentical(RunEngine(make, traces, ReplayOptions{}),
                         RunEngine(make, traces, traced));
}

TEST(TraceDeterminism, TracingOnVsOffCountersIdenticalMind) {
  RackConfig config = TracedRackConfig();
  config.fault.death.blade = 1;
  config.fault.death.at = 40 * kMillisecond;
  const WorkloadTraces traces = GenerateTraces(CoherenceSpec(4));
  ExpectTracingPure([&] { return std::make_unique<MindSystem>(config); }, traces);
}

TEST(TraceDeterminism, TracingOnVsOffCountersIdenticalGam) {
  GamConfig config;
  config.num_compute_blades = 4;
  config.num_memory_blades = 4;
  config.compute_cache_bytes = 8ull << 20;
  config.fault.reliability.loss_probability = 0.02;
  config.prefetch.policy = PrefetchPolicy::kMajorityStride;
  const WorkloadTraces traces = GenerateTraces(CoherenceSpec(4));
  ExpectTracingPure([&] { return std::make_unique<GamSystem>(config); }, traces);
}

TEST(TraceDeterminism, TracingOnVsOffCountersIdenticalFastSwap) {
  FastSwapConfig config;
  config.num_memory_blades = 4;
  config.compute_cache_bytes = 4ull << 20;
  config.fault.reliability.loss_probability = 0.02;
  config.prefetch.policy = PrefetchPolicy::kNextN;
  const WorkloadTraces traces = GenerateTraces(CoherenceSpec(1));
  ExpectTracingPure([&] { return std::make_unique<FastSwapSystem>(config); }, traces);
}

// Profiling reads the host clock but never simulated state: results with profile on must
// equal results with both off, and the profiler must have recorded real lanes.
TEST(TraceDeterminism, ProfilingIsAPureObserver) {
  const RackConfig config = TracedRackConfig();
  const WorkloadTraces traces = GenerateTraces(CoherenceSpec(4));
  const SystemFactory make = [&] { return std::make_unique<MindSystem>(config); };
  const ReplayReport off = RunEngine(make, traces, ReplayOptions{});
  auto sys = make();
  ReplayOptions opts;
  opts.profile = true;
  ReplayEngine engine(sys.get(), &traces, opts);
  ASSERT_TRUE(engine.Setup().ok());
  const ReplayReport on = engine.Run();
  ExpectReportsIdentical(off, on);
  const PhaseProfiler* prof = engine.profiler();
  ASSERT_NE(prof, nullptr);
  EXPECT_EQ(prof->num_lanes(), 2u);  // The channel lane + the serial lane.
  uint64_t recorded = 0;
  for (size_t l = 0; l < prof->num_lanes(); ++l) {
    for (int p = 0; p < PhaseProfiler::kNumPhases; ++p) {
      recorded += prof->lane(l).count[p];
    }
  }
  EXPECT_GT(recorded, 0u);
}

}  // namespace
}  // namespace mind
