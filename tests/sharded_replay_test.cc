// Determinism tests for the channel-based replay engine: channel replay must produce
// results bit-identical to the per-op oracle of tests/replay_conformance.h (every op
// through MemorySystem::Access in global (clock, thread) order): same makespan, same
// counter block, same latency histogram (every bucket), same throughput. The epoch-horizon
// merge design makes this a hard invariant, not a tolerance. Cross-system conformance of
// the AccessChannel contract itself (MIND, GAM, FastSwap) lives in access_channel_test.cc.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "src/baselines/gam.h"
#include "src/baselines/mind_system.h"
#include "src/workload/generators.h"
#include "src/workload/replay.h"
#include "tests/replay_conformance.h"

namespace mind {
namespace {

RackConfig TestRackConfig(int blades) {
  RackConfig c;
  c.num_compute_blades = blades;
  c.num_memory_blades = 4;
  c.memory_blade_capacity = 2ull << 30;
  c.compute_cache_bytes = 8ull << 20;  // Small cache: real LRU evictions during replay.
  c.directory_slots = 2048;            // Small directory: capacity evictions + merges.
  c.tcam_rules = 45000;
  c.splitting.epoch_length = 2 * kMillisecond;  // Many epoch boundaries per run.
  return c;
}

WorkloadSpec CoherenceHeavySpec(int blades) {
  // Memcached/YCSB-A flavor: zipfian shared table with 50/50 GET/SET plus hot metadata —
  // dense invalidation waves, upgrades and directory splits crossing blades.
  WorkloadSpec spec = MemcachedASpec(blades, /*threads_per_blade=*/2,
                                     /*accesses_per_thread=*/4000);
  spec.shared_pages = 4096;
  return spec;
}

WorkloadSpec HitHeavySpec(int blades) {
  // Blade-resident flavor: per-thread working sets that fit the 2048-frame test cache —
  // after warmup >80% of ops are blade-local hit runs, the case the channel rounds
  // accelerate. (The TF preset streams far past this cache and is covered as the
  // miss-dominant identity case in access_channel_test.cc.)
  WorkloadSpec spec;
  spec.name = "blade-resident";
  spec.num_blades = blades;
  spec.threads_per_blade = 1;
  spec.private_pages_per_thread = 1024;
  spec.private_pattern = Pattern::kUniform;
  spec.private_write_fraction = 0.5;
  spec.accesses_per_thread = 6000;
  spec.think_time = 200;
  spec.seed = 7;
  return spec;
}

// Expects channel replay of `traces` on a MIND rack to match the per-op oracle.
Conformance ExpectMindMatchesOracle(const WorkloadTraces& traces, const RackConfig& config) {
  return ExpectEngineMatchesOracle([&] { return std::make_unique<MindSystem>(config); },
                                   traces);
}

TEST(ShardedReplay, BitIdenticalCoherenceHeavy) {
  const WorkloadTraces traces = GenerateTraces(CoherenceHeavySpec(4));
  const Conformance result = ExpectMindMatchesOracle(traces, TestRackConfig(4));
  ASSERT_GT(result.oracle.total_ops, 0u);
  ASSERT_GT(result.oracle.counters.invalidations, 0u);  // The workload must cross blades.
}

TEST(ShardedReplay, BitIdenticalHitHeavy) {
  const WorkloadTraces traces = GenerateTraces(HitHeavySpec(8));
  const Conformance result = ExpectMindMatchesOracle(traces, TestRackConfig(8));
  // The channel fast path must actually engage.
  EXPECT_GT(result.accounting.parallel_hits, 0u);
}

TEST(ShardedReplay, BitIdenticalUnderPso) {
  RackConfig config = TestRackConfig(4);
  config.consistency = ConsistencyModel::kPso;
  ExpectMindMatchesOracle(GenerateTraces(CoherenceHeavySpec(4)), config);
}

TEST(ShardedReplay, BitIdenticalWithStoredPayloads) {
  RackConfig config = TestRackConfig(2);
  config.store_data = true;  // Payloads flow through the per-blade slab arenas.
  ExpectMindMatchesOracle(GenerateTraces(CoherenceHeavySpec(2)), config);
}

// Forwards every MemorySystem call but inherits the default (null) OpenChannelGroup —
// and, unless `forward_channels`, the default (null) OpenChannel: the opt-out contracts
// must route every op through the serialized drain and still match the per-op oracle
// exactly. Channels without a group never commit.
class NoChannelSystem final : public MemorySystem {
 public:
  explicit NoChannelSystem(MemorySystem* inner, bool forward_channels = false)
      : inner_(inner), forward_channels_(forward_channels) {}
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] int num_compute_blades() const override {
    return inner_->num_compute_blades();
  }
  Result<VirtAddr> Alloc(uint64_t size) override { return inner_->Alloc(size); }
  Result<ThreadId> RegisterThread(ComputeBladeId blade) override {
    return inner_->RegisterThread(blade);
  }
  AccessResult Access(ThreadId tid, ComputeBladeId blade, VirtAddr va, AccessType type,
                      SimTime now) override {
    return inner_->Access(tid, blade, va, type, now);
  }
  [[nodiscard]] SystemCounters counters() const override { return inner_->counters(); }
  std::unique_ptr<AccessChannel> OpenChannel(ThreadId tid, ComputeBladeId blade) override {
    return forward_channels_ ? inner_->OpenChannel(tid, blade) : nullptr;
  }
  void AdvanceTo(SimTime now) override { inner_->AdvanceTo(now); }

 private:
  MemorySystem* inner_;
  bool forward_channels_;
};

void ExpectSerializesWithoutGroups(bool forward_channels) {
  const RackConfig config = TestRackConfig(4);
  const WorkloadTraces traces = GenerateTraces(HitHeavySpec(4));
  MindSystem oracle_sys(config);
  const ReplayReport want = PerOpLoop(&oracle_sys, traces);
  MindSystem inner(config);
  NoChannelSystem channel_sys(&inner, forward_channels);
  ReplayEngine engine(&channel_sys, &traces);
  ASSERT_TRUE(engine.Setup().ok());
  ExpectReportsIdentical(want, engine.Run());
  EXPECT_EQ(engine.shard_reports()[0].parallel_hits, 0u);
}

TEST(ShardedReplay, SystemWithoutChannelsSerializes) {
  ExpectSerializesWithoutGroups(/*forward_channels=*/false);
}

TEST(ShardedReplay, ChannelsWithoutGroupsSerialize) {
  ExpectSerializesWithoutGroups(/*forward_channels=*/true);
}

// A sampler opens no channels, so it observes the rack at exactly the points per-op
// replay does: the same (clock, directory entry count) at every call. This is the series
// fig8_directory_entries prints.
TEST(ShardedReplay, SamplerSeesWhatPerOpReplaySees) {
  const RackConfig config = TestRackConfig(4);
  const WorkloadTraces traces = GenerateTraces(HitHeavySpec(4));
  constexpr SimTime kInterval = 50 * kMicrosecond;
  using Samples = std::vector<std::pair<SimTime, size_t>>;
  const auto recorder = [](MindSystem* sys, Samples* out) {
    return [sys, out](SimTime now) {
      out->emplace_back(now, sys->rack().directory().entry_count());
    };
  };
  MindSystem oracle_sys(config);
  Samples want;
  const ReplayReport want_report =
      PerOpLoop(&oracle_sys, traces, nullptr, recorder(&oracle_sys, &want), kInterval);
  ASSERT_GT(want.size(), 1u);
  EXPECT_NE(want.front().second, want.back().second);  // The directory fills meanwhile.

  MindSystem sys(config);
  ReplayEngine engine(&sys, &traces);
  ASSERT_TRUE(engine.Setup().ok());
  Samples got;
  ExpectReportsIdentical(want_report, engine.Run(recorder(&sys, &got), kInterval));
  EXPECT_EQ(got, want);
  ASSERT_EQ(engine.shard_reports().size(), 1u);
  EXPECT_EQ(engine.shard_reports()[0].parallel_hits, 0u);
}

// A zero sample interval means "no mid-run sampling": Run returns, the sampler never
// fires, and the registry records no series points — with and without a sampler.
TEST(ShardedReplay, ZeroSampleIntervalDisablesSampling) {
  const RackConfig config = TestRackConfig(2);
  const WorkloadTraces traces = GenerateTraces(TfSpec(2, 1, 2000));
  for (const bool with_sampler : {false, true}) {
    SCOPED_TRACE(with_sampler ? "sampler" : "no sampler");
    MindSystem sys(config);
    ReplayEngine engine(&sys, &traces);
    ASSERT_TRUE(engine.Setup().ok());
    int samples = 0;
    ReplayEngine::Sampler sampler;
    if (with_sampler) {
      sampler = [&](SimTime) { ++samples; };
    }
    const ReplayReport report = engine.Run(sampler, /*sample_interval=*/0);
    EXPECT_EQ(report.total_ops, traces.TotalOps());
    EXPECT_EQ(samples, 0);
    EXPECT_TRUE(engine.metrics()->series().empty());
  }
}

// A wave launched on one blade invalidating runs submitted on another: thread 0 (blade 0)
// writes a small shared segment that thread 1 (blade 1) keeps cached copies of, so thread
// 0's writes launch invalidation waves into blade 1 mid-run while thread 1 replays long
// blade-local runs over its own private segment. Each wave cuts the round horizon short
// and kills thread 1's runs over the shared region, and the result must still be
// bit-identical to the per-op oracle.
WorkloadTraces CrossBladeWaveTraces() {
  WorkloadTraces t;
  t.name = "cross-blade-wave";
  t.num_blades = 2;
  t.think_time = 200;
  t.segments = {SegmentSpec{/*pages=*/512}, SegmentSpec{/*pages=*/512},
                SegmentSpec{/*pages=*/4}};
  ThreadTrace t0;
  ThreadTrace t1;
  for (uint64_t i = 0; i < 4000; ++i) {
    // Thread 0: dominated by the shared segment (9 of 10 ops, half writes), sparse
    // private traffic.
    if (i % 10 != 9) {
      t0.ops.push_back({2, i % 4, i % 2 == 0 ? AccessType::kWrite : AccessType::kRead});
    } else {
      t0.ops.push_back({0, i % 512, AccessType::kRead});
    }
    // Thread 1: long blade-local runs over the middle of its private segment, with an
    // occasional shared read that caches a copy for thread 0's next wave to invalidate.
    if (i % 20 == 19) {
      t1.ops.push_back({2, i % 4, AccessType::kRead});
    } else {
      t1.ops.push_back({1, 128 + (i % 256), i % 2 == 0 ? AccessType::kRead : AccessType::kWrite});
    }
  }
  t.threads = {std::move(t0), std::move(t1)};
  return t;
}

TEST(ShardedReplay, CrossBladeWaveInvalidatesPeerRuns) {
  const Conformance result = ExpectMindMatchesOracle(CrossBladeWaveTraces(), TestRackConfig(2));
  // The waves actually cross blades.
  ASSERT_GT(result.oracle.counters.invalidations, 0u);
}

TEST(SystemCountersMerge, AddsEveryFieldWithoutDoubleCounting) {
  SystemCounters a;
  a.total_accesses = 10;
  a.local_hits = 6;
  a.remote_accesses = 4;
  a.invalidations = 3;
  a.pages_flushed = 2;
  a.false_invalidations = 1;
  a.breakdown_sums.fault = 100;
  a.breakdown_sums.network = 200;
  SystemCounters b = a;
  b.breakdown_sums.inv_queue = 50;
  a.Merge(b);
  EXPECT_EQ(a.total_accesses, 20u);
  EXPECT_EQ(a.local_hits, 12u);
  EXPECT_EQ(a.remote_accesses, 8u);
  EXPECT_EQ(a.invalidations, 6u);
  EXPECT_EQ(a.pages_flushed, 4u);
  EXPECT_EQ(a.false_invalidations, 2u);
  EXPECT_EQ(a.breakdown_sums.fault, 200u);
  EXPECT_EQ(a.breakdown_sums.network, 400u);
  EXPECT_EQ(a.breakdown_sums.inv_queue, 50u);

  const SystemCounters delta = a.DeltaSince(b);
  EXPECT_EQ(delta.total_accesses, 10u);
  EXPECT_EQ(delta.breakdown_sums.inv_queue, 0u);
}

TEST(LatencyBreakdownDelta, SubtractsEveryField) {
  LatencyBreakdown a;
  a.fault = 100;
  a.network = 200;
  a.inv_queue = 30;
  a.inv_tlb = 4;
  LatencyBreakdown b;
  b.fault = 60;
  b.network = 150;
  b.inv_queue = 30;
  b.inv_tlb = 1;
  const LatencyBreakdown d = a - b;
  EXPECT_EQ(d.fault, 40u);
  EXPECT_EQ(d.network, 50u);
  EXPECT_EQ(d.inv_queue, 0u);
  EXPECT_EQ(d.inv_tlb, 3u);
  EXPECT_EQ(d.Total(), 93u);
}

TEST(HistogramMerge, ExactBucketEqualityAfterMerge) {
  Histogram whole;
  Histogram part1;
  Histogram part2;
  for (uint64_t v : {1u, 5u, 70u, 700u, 70000u, 9u}) {
    whole.Record(v);
    (v % 2 == 0 ? part1 : part2).Record(v);
  }
  Histogram merged;
  merged.Merge(part1);
  merged.Merge(part2);
  EXPECT_TRUE(whole == merged);
  EXPECT_EQ(whole.Percentile(0.5), merged.Percentile(0.5));
}

}  // namespace
}  // namespace mind
