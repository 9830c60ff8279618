// TraceScope determinism tests (src/obs/): the semantic event stream — access spans,
// invalidation waves, directory splits/merges, fault timeouts/resets, drains, prefetch
// lifecycle — is recorded only on serialized paths, so its canonical byte serialization
// (TraceScope::SemanticBytes) must be BIT-IDENTICAL across 1/2/4/8 shards, channel groups
// on/off and the per-op reference path, for the same seed and fault schedule, on all
// three systems. And tracing must be a pure observer: every
// counter block and the latency histogram must be bit-identical with tracing on vs off.
// Unit tests of the sink/merge/export machinery live in observability_test.cc.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/baselines/fastswap.h"
#include "src/baselines/gam.h"
#include "src/baselines/mind_system.h"
#include "src/workload/generators.h"
#include "src/workload/replay.h"

namespace mind {
namespace {

using SystemFactory = std::function<std::unique_ptr<MemorySystem>()>;

struct TracedRun {
  ReplayReport report;
  std::string semantic_bytes;
  size_t semantic_events = 0;
  uint64_t digest = 0;
};

TracedRun RunTraced(const SystemFactory& make, const WorkloadTraces& traces,
                    ReplayOptions opts) {
  opts.trace = true;
  auto sys = make();
  ReplayEngine engine(sys.get(), &traces, opts);
  EXPECT_TRUE(engine.Setup().ok());
  TracedRun out;
  out.report = engine.Run();
  const TraceScope* scope = engine.trace_scope();
  EXPECT_NE(scope, nullptr);
  EXPECT_TRUE(scope->finalized());
  out.semantic_bytes = scope->SemanticBytes();
  out.semantic_events = scope->semantic_events();
  out.digest = scope->SemanticDigest();
  return out;
}

ReplayReport RunPlain(const SystemFactory& make, const WorkloadTraces& traces,
                      ReplayOptions opts) {
  auto sys = make();
  ReplayEngine engine(sys.get(), &traces, opts);
  EXPECT_TRUE(engine.Setup().ok());
  return engine.Run();
}

void ExpectReportsIdentical(const ReplayReport& want, const ReplayReport& got) {
  EXPECT_EQ(want.makespan, got.makespan);
  EXPECT_EQ(want.total_ops, got.total_ops);
  EXPECT_EQ(want.counters.total_accesses, got.counters.total_accesses);
  EXPECT_EQ(want.counters.local_hits, got.counters.local_hits);
  EXPECT_EQ(want.counters.remote_accesses, got.counters.remote_accesses);
  EXPECT_EQ(want.counters.invalidations, got.counters.invalidations);
  EXPECT_EQ(want.counters.pages_flushed, got.counters.pages_flushed);
  EXPECT_EQ(want.counters.false_invalidations, got.counters.false_invalidations);
  EXPECT_TRUE(want.latency_histogram == got.latency_histogram);
  EXPECT_DOUBLE_EQ(want.avg_latency_us, got.avg_latency_us);
  EXPECT_DOUBLE_EQ(want.throughput_mops, got.throughput_mops);
  EXPECT_TRUE(want.fault == got.fault);
}

// The execution-strategy matrix the semantic stream must be invariant under.
struct Mode {
  bool reference = false;
  bool groups = true;
  int shards = 1;
};

std::vector<Mode> DeterminismMatrix() {
  return {
      Mode{/*reference=*/true, true, 1},
      Mode{false, /*groups=*/true, 1},
      Mode{false, /*groups=*/true, 2},
      Mode{false, /*groups=*/true, 4},
      Mode{false, /*groups=*/true, 8},
      Mode{false, /*groups=*/false, 4},
  };
}

void ExpectSemanticStreamInvariant(const SystemFactory& make,
                                   const WorkloadTraces& traces,
                                   bool expect_events = true) {
  ReplayOptions ref_opts;
  ref_opts.use_channels = false;
  const TracedRun want = RunTraced(make, traces, ref_opts);
  if (expect_events) {
    ASSERT_GT(want.semantic_events, 0u);  // The schedule must actually emit.
  }
  for (const Mode& m : DeterminismMatrix()) {
    if (m.reference) {
      continue;  // `want` already is the reference run.
    }
    SCOPED_TRACE(::testing::Message()
                 << (m.groups ? "groups" : "plain") << "/" << m.shards << "shards");
    ReplayOptions opts;
    opts.shards = m.shards;
    opts.use_channel_groups = m.groups;
    const TracedRun got = RunTraced(make, traces, opts);
    ExpectReportsIdentical(want.report, got.report);
    EXPECT_EQ(want.semantic_events, got.semantic_events);
    EXPECT_EQ(want.digest, got.digest);
    EXPECT_EQ(want.semantic_bytes, got.semantic_bytes);  // Byte-for-byte.
  }
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

// --- Semantic-stream invariance across the execution matrix ---------------------------

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
  ExpectSemanticStreamInvariant(make, traces);
}

TEST(TraceDeterminism, GamSemanticStreamInvariant) {
  GamConfig config;
  config.num_compute_blades = 4;
  config.num_memory_blades = 4;
  config.compute_cache_bytes = 8ull << 20;
  config.fault.reliability.loss_probability = 0.02;
  const WorkloadTraces traces = GenerateTraces(CoherenceSpec(4));
  const SystemFactory make = [&] { return std::make_unique<GamSystem>(config); };
  ExpectSemanticStreamInvariant(make, traces);
}

TEST(TraceDeterminism, FastSwapSemanticStreamInvariant) {
  FastSwapConfig config;
  config.num_memory_blades = 4;
  config.compute_cache_bytes = 4ull << 20;  // 1024 frames: real faults and evictions.
  config.fault.reliability.loss_probability = 0.02;
  const WorkloadTraces traces = GenerateTraces(CoherenceSpec(1));
  const SystemFactory make = [&] { return std::make_unique<FastSwapSystem>(config); };
  ExpectSemanticStreamInvariant(make, traces);
}

TEST(TraceDeterminism, MindSemanticStreamInvariantWithPrefetch) {
  RackConfig config = TracedRackConfig();
  config.prefetch.policy = PrefetchPolicy::kNextN;
  const WorkloadTraces traces = GenerateTraces(CoherenceSpec(4));
  const SystemFactory make = [&] { return std::make_unique<MindSystem>(config); };
  ExpectSemanticStreamInvariant(make, traces);
}

// --- Tracing is a pure observer -------------------------------------------------------

void ExpectTracingPure(const SystemFactory& make, const WorkloadTraces& traces) {
  for (const int shards : {1, 4}) {
    SCOPED_TRACE(shards);
    ReplayOptions opts;
    opts.shards = shards;
    const ReplayReport off = RunPlain(make, traces, opts);
    const TracedRun on = RunTraced(make, traces, opts);
    ExpectReportsIdentical(off, on.report);
    EXPECT_EQ(off.prefetch.issued, on.report.prefetch.issued);
    EXPECT_EQ(off.prefetch.useful, on.report.prefetch.useful);
    EXPECT_EQ(off.prefetch.late, on.report.prefetch.late);
    EXPECT_EQ(off.prefetch.discarded_stale, on.report.prefetch.discarded_stale);
  }
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
  ReplayOptions opts;
  opts.shards = 4;
  const ReplayReport off = RunPlain(make, traces, opts);
  auto sys = make();
  opts.profile = true;
  ReplayEngine engine(sys.get(), &traces, opts);
  ASSERT_TRUE(engine.Setup().ok());
  const ReplayReport on = engine.Run();
  ExpectReportsIdentical(off, on);
  const PhaseProfiler* prof = engine.profiler();
  ASSERT_NE(prof, nullptr);
  EXPECT_EQ(prof->num_lanes(), 5u);  // 4 shard lanes + the serial lane.
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
