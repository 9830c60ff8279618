// Determinism tests for the channel-based replay engine: replaying the same trace with 1,
// 2, 4 or 8 shards — any scan window, any drain policy — must produce results
// bit-identical to the per-op reference path (use_channels = false: every op through
// MemorySystem::Access in global (clock, thread) order): same makespan, same counter
// block, same latency histogram (every bucket), same throughput. The epoch-barrier merge
// design makes this a hard invariant, not a tolerance. Cross-system conformance of the
// AccessChannel contract itself (MIND, GAM, FastSwap) lives in access_channel_test.cc.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "src/baselines/gam.h"
#include "src/baselines/mind_system.h"
#include "src/workload/generators.h"
#include "src/workload/replay.h"

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
  // dense invalidation waves, upgrades and directory splits crossing shard ownership.
  WorkloadSpec spec = MemcachedASpec(blades, /*threads_per_blade=*/2,
                                     /*accesses_per_thread=*/4000);
  spec.shared_pages = 4096;
  return spec;
}

WorkloadSpec HitHeavySpec(int blades) {
  // Blade-resident flavor: per-thread working sets that fit the 2048-frame test cache —
  // after warmup >80% of ops are blade-local hit runs, the case the parallel phase
  // accelerates. (The TF preset streams far past this cache and is covered as the
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

void ExpectReportsIdentical(const ReplayReport& want, const ReplayReport& got) {
  EXPECT_EQ(want.makespan, got.makespan);
  EXPECT_EQ(want.total_ops, got.total_ops);
  EXPECT_EQ(want.counters.total_accesses, got.counters.total_accesses);
  EXPECT_EQ(want.counters.local_hits, got.counters.local_hits);
  EXPECT_EQ(want.counters.remote_accesses, got.counters.remote_accesses);
  EXPECT_EQ(want.counters.invalidations, got.counters.invalidations);
  EXPECT_EQ(want.counters.pages_flushed, got.counters.pages_flushed);
  EXPECT_EQ(want.counters.false_invalidations, got.counters.false_invalidations);
  EXPECT_EQ(want.counters.breakdown_sums.fault, got.counters.breakdown_sums.fault);
  EXPECT_EQ(want.counters.breakdown_sums.network, got.counters.breakdown_sums.network);
  EXPECT_EQ(want.counters.breakdown_sums.inv_queue, got.counters.breakdown_sums.inv_queue);
  EXPECT_EQ(want.counters.breakdown_sums.inv_tlb, got.counters.breakdown_sums.inv_tlb);
  EXPECT_TRUE(want.latency_histogram == got.latency_histogram);
  EXPECT_DOUBLE_EQ(want.avg_latency_us, got.avg_latency_us);
  EXPECT_DOUBLE_EQ(want.throughput_mops, got.throughput_mops);
}

ReplayReport SerialReference(const WorkloadTraces& traces, const RackConfig& config) {
  MindSystem sys(config);
  ReplayOptions opts;
  opts.use_channels = false;  // Per-op reference: one virtual Access per op.
  ReplayEngine engine(&sys, &traces, opts);
  EXPECT_TRUE(engine.Setup().ok());
  return engine.Run();
}

ReplayReport RunSharded(const WorkloadTraces& traces, const RackConfig& config,
                        ReplayOptions opts,
                        std::vector<ShardReport>* shard_reports = nullptr) {
  MindSystem sys(config);
  ReplayEngine engine(&sys, &traces, opts);
  EXPECT_TRUE(engine.Setup().ok());
  ReplayReport report = engine.Run();
  if (shard_reports != nullptr) {
    *shard_reports = engine.shard_reports();
  }
  return report;
}

TEST(ShardedReplay, BitIdenticalAcrossShardCountsCoherenceHeavy) {
  const RackConfig config = TestRackConfig(4);
  const WorkloadTraces traces = GenerateTraces(CoherenceHeavySpec(4));
  const ReplayReport want = SerialReference(traces, config);
  ASSERT_GT(want.total_ops, 0u);
  ASSERT_GT(want.counters.invalidations, 0u);  // The workload must cross shards.
  for (const int shards : {1, 2, 8}) {
    SCOPED_TRACE(shards);
    ReplayOptions opts;
    opts.shards = shards;
    ExpectReportsIdentical(want, RunSharded(traces, config, opts));
  }
}

TEST(ShardedReplay, BitIdenticalAcrossShardCountsHitHeavy) {
  const RackConfig config = TestRackConfig(8);
  const WorkloadTraces traces = GenerateTraces(HitHeavySpec(8));
  const ReplayReport want = SerialReference(traces, config);
  for (const int shards : {1, 2, 4, 8}) {
    SCOPED_TRACE(shards);
    ReplayOptions opts;
    opts.shards = shards;
    std::vector<ShardReport> shard_reports;
    const ReplayReport got = RunSharded(traces, config, opts, &shard_reports);
    ExpectReportsIdentical(want, got);
    // Accounting closes: every op was committed by exactly one shard phase.
    uint64_t accounted = 0;
    for (const ShardReport& sr : shard_reports) {
      accounted += sr.parallel_hits + sr.drained_ops;
    }
    EXPECT_EQ(accounted, got.total_ops);
    uint64_t parallel = 0;
    for (const ShardReport& sr : shard_reports) {
      parallel += sr.parallel_hits;
    }
    EXPECT_GT(parallel, 0u);  // The channel fast path must actually engage.
  }
}

TEST(ShardedReplay, BitIdenticalUnderPso) {
  RackConfig config = TestRackConfig(4);
  config.consistency = ConsistencyModel::kPso;
  const WorkloadTraces traces = GenerateTraces(CoherenceHeavySpec(4));
  const ReplayReport want = SerialReference(traces, config);
  for (const int shards : {2, 4}) {
    SCOPED_TRACE(shards);
    ReplayOptions opts;
    opts.shards = shards;
    ExpectReportsIdentical(want, RunSharded(traces, config, opts));
  }
}

TEST(ShardedReplay, BitIdenticalUnderStressedRoundMachinery) {
  // Tiny scan windows and a one-op drain maximize rounds and barrier crossings; the
  // result must not move.
  const RackConfig config = TestRackConfig(4);
  const WorkloadTraces traces = GenerateTraces(CoherenceHeavySpec(4));
  const ReplayReport want = SerialReference(traces, config);
  ReplayOptions opts;
  opts.shards = 2;
  opts.scan_window_ops = 3;
  opts.drain_max_coherence_ops = 1;
  opts.drain_hit_streak_exit = 2;
  ExpectReportsIdentical(want, RunSharded(traces, config, opts));
}

TEST(ShardedReplay, BitIdenticalWithStoredPayloads) {
  RackConfig config = TestRackConfig(2);
  config.store_data = true;  // Payloads flow through the per-blade slab arenas.
  const WorkloadTraces traces = GenerateTraces(CoherenceHeavySpec(2));
  const ReplayReport want = SerialReference(traces, config);
  ReplayOptions opts;
  opts.shards = 2;
  ExpectReportsIdentical(want, RunSharded(traces, config, opts));
}

// Forwards every MemorySystem call but inherits the default (null) OpenChannel and
// OpenOwnerDrain: the opt-out contracts must route every op through the serialized
// drain's per-op merge step and still match the per-op reference exactly.
class NoChannelSystem final : public MemorySystem {
 public:
  explicit NoChannelSystem(MemorySystem* inner) : inner_(inner) {}
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
  void AdvanceTo(SimTime now) override { inner_->AdvanceTo(now); }

 private:
  MemorySystem* inner_;
};

TEST(ShardedReplay, SystemWithoutChannelsSerializes) {
  const RackConfig config = TestRackConfig(4);
  const WorkloadTraces traces = GenerateTraces(HitHeavySpec(4));

  MindSystem serial_sys(config);
  ReplayOptions ref;
  ref.use_channels = false;
  ReplayEngine serial(&serial_sys, &traces, ref);
  ASSERT_TRUE(serial.Setup().ok());
  const ReplayReport want = serial.Run();

  MindSystem inner(config);
  NoChannelSystem sharded_sys(&inner);
  ReplayOptions opts;
  opts.shards = 4;
  ReplayEngine sharded(&sharded_sys, &traces, opts);
  ASSERT_TRUE(sharded.Setup().ok());
  const ReplayReport got = sharded.Run();
  ExpectReportsIdentical(want, got);
  uint64_t parallel = 0;
  uint64_t owner_drained = 0;
  for (const ShardReport& sr : sharded.shard_reports()) {
    parallel += sr.parallel_hits;
    owner_drained += sr.owner_drained;
  }
  EXPECT_EQ(parallel, 0u);
  EXPECT_EQ(owner_drained, 0u);  // No owner contract: every drained op is ineligible.
}

TEST(ShardedReplay, SamplerFallsBackToReferencePath) {
  const RackConfig config = TestRackConfig(4);
  const WorkloadTraces traces = GenerateTraces(HitHeavySpec(4));
  MindSystem sys(config);
  ReplayOptions opts;
  opts.shards = 4;
  ReplayEngine engine(&sys, &traces, opts);
  ASSERT_TRUE(engine.Setup().ok());
  int samples = 0;
  const ReplayReport report =
      engine.Run([&](SimTime) { ++samples; }, /*sample_interval=*/50 * kMicrosecond);
  EXPECT_GT(samples, 0);
  EXPECT_EQ(engine.effective_shards(), 1);  // Documented per-op fallback.
  EXPECT_GT(report.total_ops, 0u);
  // Everything drained: the reference path never touches a channel.
  ASSERT_EQ(engine.shard_reports().size(), 1u);
  EXPECT_EQ(engine.shard_reports()[0].parallel_hits, 0u);
  EXPECT_EQ(engine.shard_reports()[0].drained_ops, report.total_ops);
}

TEST(ShardedReplay, ShardCountClampsToBlades) {
  const RackConfig config = TestRackConfig(2);
  const WorkloadTraces traces = GenerateTraces(HitHeavySpec(2));
  MindSystem sys(config);
  ReplayOptions opts;
  opts.shards = 64;
  ReplayEngine engine(&sys, &traces, opts);
  ASSERT_TRUE(engine.Setup().ok());
  (void)engine.Run();
  EXPECT_EQ(engine.effective_shards(), 2);
}

// --- Directory-region ownership: the owner drain ------------------------------------
//
// The serialized drain is partitioned by 2 MB-region ownership
// (src/workload/region_ownership.h): whenever every unfinished thread's next op below
// the global safety horizon is an owner-homed blade-local hit, the drain retires those
// ops in one sub-round instead of one merge step at a time. Like channels and groups it
// is an execution strategy, never a semantic — these tests pin the bit-identity, the
// engagement, and the shard-count invariance of the drain composition.

uint64_t SumOwnerDrained(const std::vector<ShardReport>& reports) {
  uint64_t n = 0;
  for (const ShardReport& sr : reports) {
    n += sr.owner_drained;
  }
  return n;
}

uint64_t SumDrained(const std::vector<ShardReport>& reports) {
  uint64_t n = 0;
  for (const ShardReport& sr : reports) {
    n += sr.drained_ops;
  }
  return n;
}

TEST(OwnershipDrain, ConformanceMatrixBitIdenticalAndEngaged) {
  // 1/2/4/8 shards x groups on/off, all against the serial reference. The eligibility
  // gate never consults the shard count (OwnedByAccessor compares the accessor blade to
  // the region home), so the drain composition — how many ops drained, and how many of
  // those retired in owner sub-rounds — must be identical across every matrix cell.
  const RackConfig config = TestRackConfig(8);
  const WorkloadTraces traces = GenerateTraces(HitHeavySpec(8));
  const ReplayReport want = SerialReference(traces, config);
  uint64_t owner_expected = 0;
  uint64_t drained_expected = 0;
  bool first = true;
  for (const bool groups : {true, false}) {
    for (const int shards : {1, 2, 4, 8}) {
      SCOPED_TRACE(::testing::Message()
                   << (groups ? "groups" : "plain") << "/" << shards << "shards");
      ReplayOptions opts;
      opts.shards = shards;
      opts.use_channel_groups = groups;
      std::vector<ShardReport> shard_reports;
      ExpectReportsIdentical(want, RunSharded(traces, config, opts, &shard_reports));
      const uint64_t owner = SumOwnerDrained(shard_reports);
      const uint64_t drained = SumDrained(shard_reports);
      EXPECT_GT(owner, 0u);  // The owner sub-rounds actually engage.
      EXPECT_LE(owner, drained);
      if (first) {
        owner_expected = owner;
        drained_expected = drained;
        first = false;
      } else {
        EXPECT_EQ(owner, owner_expected);
        EXPECT_EQ(drained, drained_expected);
      }
    }
  }
}

TEST(OwnershipDrain, ReferencePathEngagesOwnerParallelDrain) {
  // use_channels = false drains every op, and the ownership partition must ride along
  // there too: most of a hit-heavy trace retires in owner sub-rounds instead of per-op
  // merge steps.
  const RackConfig config = TestRackConfig(8);
  const WorkloadTraces traces = GenerateTraces(HitHeavySpec(8));
  MindSystem sys(config);
  ReplayOptions opts;
  opts.use_channels = false;
  ReplayEngine engine(&sys, &traces, opts);
  ASSERT_TRUE(engine.Setup().ok());
  const ReplayReport report = engine.Run();
  ASSERT_EQ(engine.shard_reports().size(), 1u);
  const ShardReport& sr = engine.shard_reports()[0];
  EXPECT_EQ(sr.drained_ops, report.total_ops);  // Reference path: everything drains.
  EXPECT_GT(sr.owner_drained, 0u);
  EXPECT_LE(sr.owner_drained, sr.drained_ops);
}

// A wave owned by one shard invalidating runs submitted on another: thread 0 (blade 0)
// is the majority accessor — and therefore region owner — of a small shared segment that
// thread 1 (blade 1) keeps cached copies of; thread 0's writes launch invalidation waves
// into blade 1 mid-run, while thread 1's own private segment stays homed at blade 1. At
// two shards the wave crosses shard ownership every time, and the result must still be
// bit-identical to the serial reference.
WorkloadTraces CrossRegionWaveTraces() {
  WorkloadTraces t;
  t.name = "cross-region-wave";
  t.num_blades = 2;
  t.think_time = 200;
  t.segments = {SegmentSpec{/*pages=*/512}, SegmentSpec{/*pages=*/512},
                SegmentSpec{/*pages=*/4}};
  ThreadTrace t0;
  ThreadTrace t1;
  for (uint64_t i = 0; i < 4000; ++i) {
    // Thread 0: dominated by the shared segment (9 of 10 ops, half writes), sparse
    // private traffic — the shared region's majority accessor by a wide margin.
    if (i % 10 != 9) {
      t0.ops.push_back({2, i % 4, i % 2 == 0 ? AccessType::kWrite : AccessType::kRead});
    } else {
      t0.ops.push_back({0, i % 512, AccessType::kRead});
    }
    // Thread 1: long blade-local runs over the middle of its private segment (region
    // homed at blade 1), with an occasional shared read that caches a copy for thread
    // 0's next wave to invalidate.
    if (i % 20 == 19) {
      t1.ops.push_back({2, i % 4, AccessType::kRead});
    } else {
      t1.ops.push_back({1, 128 + (i % 256), i % 2 == 0 ? AccessType::kRead : AccessType::kWrite});
    }
  }
  t.threads = {std::move(t0), std::move(t1)};
  return t;
}

TEST(OwnershipDrain, CrossRegionWaveInvalidatesOtherShardsRuns) {
  const RackConfig config = TestRackConfig(2);
  const WorkloadTraces traces = CrossRegionWaveTraces();
  const ReplayReport want = SerialReference(traces, config);
  ASSERT_GT(want.counters.invalidations, 0u);  // The waves actually cross blades.
  for (const int shards : {1, 2}) {
    SCOPED_TRACE(shards);
    ReplayOptions opts;
    opts.shards = shards;
    MindSystem sys(config);
    ReplayEngine engine(&sys, &traces, opts);
    ASSERT_TRUE(engine.Setup().ok());
    // The ownership map Setup built splits the two flows as designed: the contended
    // shared region homes at the wave-launching blade 0, thread 1's private region at
    // blade 1.
    EXPECT_EQ(engine.ownership().HomeBlade(engine.AddressOf(2, 0)), 0);
    EXPECT_EQ(engine.ownership().HomeBlade(engine.AddressOf(1, 256)), 1);
    ExpectReportsIdentical(want, engine.Run());
    EXPECT_GT(SumOwnerDrained(engine.shard_reports()), 0u);
  }
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

TEST(HistogramMerge, ExactBucketEqualityAfterShardedMerge) {
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
