// Conformance suite for the AccessChannel contract (src/core/access_channel.h), run
// against every compared system: MIND (TSO and PSO), GAM and FastSwap.
//
// Part 1 — engine-level conformance: channel-driven replay at 1/2/4/8 shards must be
// bit-identical (counters, every histogram bucket, makespan, throughput) to the per-op
// reference path that issues one virtual MemorySystem::Access per op in exact global
// order. This is the contract's whole point: channels are an execution strategy, never a
// semantic.
//
// Part 2 — channel-level contract: per-2MB-region validity stamps. A run submitted over
// private regions must survive an invalidation wave that hits a *different* (shared)
// region of the same blade, and must die when the wave lands inside one of its own
// stamped regions.
#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "src/baselines/fastswap.h"
#include "src/baselines/gam.h"
#include "src/baselines/mind_system.h"
#include "src/common/rng.h"
#include "src/core/access_channel.h"
#include "src/core/channel_group.h"
#include "src/workload/generators.h"
#include "src/workload/replay.h"

namespace mind {
namespace {

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

// --- Part 1: engine-level conformance across systems -------------------------

struct ConformanceCase {
  std::string name;
  std::function<std::unique_ptr<MemorySystem>()> make_system;
  WorkloadSpec spec;
  // The channel fast path must actually engage under sharded replay (not merely match by
  // draining everything).
  bool expect_parallel_hits = true;
  // With use_channel_groups on, per-blade group commits must actually engage (the case
  // has >= 2 threads sharing a blade and a hit-capable working set).
  bool expect_grouped_ops = false;
};

RackConfig ConformanceRackConfig() {
  RackConfig c;
  c.num_compute_blades = 4;
  c.num_memory_blades = 4;
  c.memory_blade_capacity = 2ull << 30;
  c.compute_cache_bytes = 8ull << 20;  // Small cache: real LRU evictions during replay.
  c.directory_slots = 2048;            // Small directory: capacity evictions + merges.
  c.splitting.epoch_length = 2 * kMillisecond;
  return c;
}

GamConfig ConformanceGamConfig() {
  GamConfig c;
  c.num_compute_blades = 4;
  c.num_memory_blades = 4;
  c.compute_cache_bytes = 8ull << 20;
  return c;
}

WorkloadSpec CoherenceSpec(int blades, int threads_per_blade) {
  WorkloadSpec spec = MemcachedASpec(blades, threads_per_blade,
                                     /*accesses_per_thread=*/3000);
  spec.shared_pages = 4096;
  return spec;
}

std::vector<ConformanceCase> ConformanceCases() {
  std::vector<ConformanceCase> cases;
  cases.push_back(ConformanceCase{
      "MindTso",
      [] { return std::make_unique<MindSystem>(ConformanceRackConfig()); },
      CoherenceSpec(4, 2), /*expect_parallel_hits=*/true, /*expect_grouped_ops=*/true});
  {
    RackConfig pso = ConformanceRackConfig();
    pso.consistency = ConsistencyModel::kPso;
    cases.push_back(ConformanceCase{
        "MindPso", [pso] { return std::make_unique<MindSystem>(pso); },
        CoherenceSpec(4, 2), /*expect_parallel_hits=*/true, /*expect_grouped_ops=*/true});
  }
  // GAM with one thread per blade and cache-resident per-blade working sets: the
  // channel's simulated lock queue is exact at Submit (latency_final), hit runs are
  // uniform, and sparse shared writes fire real cross-blade invalidations.
  {
    WorkloadSpec spec;
    spec.name = "gam-blade-resident";
    spec.num_blades = 4;
    spec.threads_per_blade = 1;
    spec.private_pages_per_thread = 1024;  // Fits the 2048-frame conformance cache.
    spec.private_pattern = Pattern::kSequential;
    spec.private_write_fraction = 0.5;
    spec.shared_pages = 512;
    spec.shared_access_fraction = 0.05;
    spec.shared_write_fraction = 0.2;
    spec.accesses_per_thread = 5000;
    cases.push_back(ConformanceCase{
        "GamSoleThreadBlades",
        [] { return std::make_unique<GamSystem>(ConformanceGamConfig()); }, spec});
  }
  // GAM streaming far past the cache (TF shape on an 8 MB cache): nearly every op is a
  // miss, so this pins down bit-identity when the adaptive drain carries ~the whole
  // trace. Channel engagement is not asserted — there are no runs worth batching.
  cases.push_back(ConformanceCase{
      "GamStreamingMisses",
      [] { return std::make_unique<GamSystem>(ConformanceGamConfig()); },
      TfSpec(4, /*threads_per_blade=*/1, /*accesses_per_thread=*/4000),
      /*expect_parallel_hits=*/false});
  // GAM with intra-blade contention: submit-time latencies are lower bounds; grouped
  // commits finalize them exactly inside the merged batch (and the per-thread fallback
  // op by op against the live lock queue).
  cases.push_back(ConformanceCase{
      "GamContendedBlades",
      [] { return std::make_unique<GamSystem>(ConformanceGamConfig()); },
      CoherenceSpec(4, 2), /*expect_parallel_hits=*/true, /*expect_grouped_ops=*/true});
  {
    // FastSwap, cache-resident: two threads share the swap cache, hits dominate after
    // warmup, and the same-blade (clock, thread) merge interleaves their runs.
    FastSwapConfig fs;
    fs.num_memory_blades = 4;
    fs.compute_cache_bytes = 4ull << 20;  // 1024 frames.
    WorkloadSpec spec;
    spec.name = "fastswap-resident";
    spec.num_blades = 1;
    spec.threads_per_blade = 2;
    spec.private_pages_per_thread = 400;
    spec.private_pattern = Pattern::kUniform;
    spec.private_write_fraction = 0.5;
    spec.accesses_per_thread = 5000;
    cases.push_back(ConformanceCase{
        "FastSwapResident", [fs] { return std::make_unique<FastSwapSystem>(fs); }, spec,
        /*expect_parallel_hits=*/true, /*expect_grouped_ops=*/true});
    // FastSwap, thrashing: working set ~1.5x the cache, so faults, LRU evictions and
    // dirty write-backs dominate — identity only, engagement depends on the drain policy.
    WorkloadSpec thrash = spec;
    thrash.name = "fastswap-thrash";
    thrash.private_pages_per_thread = 800;
    cases.push_back(ConformanceCase{
        "FastSwapThrashing", [fs] { return std::make_unique<FastSwapSystem>(fs); },
        thrash, /*expect_parallel_hits=*/false});
  }
  return cases;
}

class AccessChannelConformance : public ::testing::TestWithParam<ConformanceCase> {};

TEST_P(AccessChannelConformance, BitIdenticalToPerOpReference) {
  const ConformanceCase& c = GetParam();
  const WorkloadTraces traces = GenerateTraces(c.spec);

  auto ref_sys = c.make_system();
  ReplayOptions ref_opts;
  ref_opts.use_channels = false;
  ReplayEngine ref(ref_sys.get(), &traces, ref_opts);
  ASSERT_TRUE(ref.Setup().ok());
  const ReplayReport want = ref.Run();
  ASSERT_GT(want.total_ops, 0u);

  // The full execution-strategy matrix: per-thread channel commits and per-blade group
  // commits, at every shard count, must all be bit-identical to the per-op reference.
  for (const bool groups : {false, true}) {
    for (const int shards : {1, 2, 4, 8}) {
      SCOPED_TRACE(::testing::Message()
                   << (groups ? "groups" : "plain") << "/" << shards << "shards");
      auto sys = c.make_system();
      ReplayOptions opts;
      opts.shards = shards;
      opts.use_channel_groups = groups;
      ReplayEngine engine(sys.get(), &traces, opts);
      ASSERT_TRUE(engine.Setup().ok());
      const ReplayReport got = engine.Run();
      ExpectReportsIdentical(want, got);
      uint64_t parallel = 0;
      uint64_t grouped = 0;
      for (const ShardReport& sr : engine.shard_reports()) {
        parallel += sr.parallel_hits;
        grouped += sr.grouped_ops;
      }
      if (c.expect_parallel_hits) {
        EXPECT_GT(parallel, 0u) << "channel fast path never engaged";
      }
      if (groups && c.expect_grouped_ops) {
        EXPECT_GT(grouped, 0u) << "per-blade group commits never engaged";
      }
      if (!groups) {
        EXPECT_EQ(grouped, 0u) << "groups committed ops while disabled";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllSystems, AccessChannelConformance,
                         ::testing::ValuesIn(ConformanceCases()),
                         [](const ::testing::TestParamInfo<ConformanceCase>& info) {
                           return info.param.name;
                         });

// --- Part 2: per-region validity stamps --------------------------------------

// MIND: a run submitted over a private 2MB region of blade 0 survives a cross-blade
// invalidation wave that strips a *shared* region of blade 0, and dies only when a wave
// lands inside the run's own region. (Directory entries start at 16 KB, far below the
// 2 MB stamp granularity, so the shared wave cannot leak into the private region.)
TEST(AccessChannelRegionStamps, MindPrivateRunSurvivesSharedWave) {
  RackConfig cfg;
  cfg.num_compute_blades = 2;
  cfg.num_memory_blades = 2;
  MindSystem sys(cfg);
  const VirtAddr base = *sys.Alloc(8ull << 20);  // 2048 pages: spans four 2MB regions.
  const ThreadId tid_a = *sys.RegisterThread(0);
  const ThreadId tid_b = *sys.RegisterThread(1);

  SimTime t = 0;
  // Blade 0 caches private pages 0..7 (region 0) writable...
  for (uint64_t p = 0; p < 8; ++p) {
    const AccessResult r = sys.Access(tid_a, 0, base + p * kPageSize, AccessType::kWrite, t);
    ASSERT_TRUE(r.status.ok());
    t = r.completion + 1;
  }
  // ...and the shared page 1024 (region 2) read-only.
  const VirtAddr shared = base + 1024 * kPageSize;
  {
    const AccessResult r = sys.Access(tid_a, 0, shared, AccessType::kRead, t);
    ASSERT_TRUE(r.status.ok());
    t = r.completion + 1;
  }

  auto channel = sys.OpenChannel(tid_a, 0);
  ASSERT_NE(channel, nullptr);
  std::vector<LocalOp> ops;
  for (uint64_t p = 0; p < 8; ++p) {
    ops.push_back(LocalOp{base + p * kPageSize, AccessType::kRead});
  }
  std::vector<Completion> comps(ops.size());
  const SimTime submit_clock = t;
  const SubmitResult run = channel->Submit(ops.data(), ops.size(), submit_clock,
                                           /*think=*/100, comps.data());
  ASSERT_EQ(run.accepted, ops.size());
  EXPECT_TRUE(run.latency_final);
  EXPECT_GT(run.uniform_latency, 0u);
  EXPECT_TRUE(channel->RunValid());

  // Cross-blade write to the shared page: the invalidation wave strips blade 0's copy in
  // region 2. The run's stamp covers only region 0 — it must survive.
  const uint64_t inv_before = sys.counters().invalidations;
  {
    const AccessResult r = sys.Access(tid_b, 1, shared, AccessType::kWrite, t);
    ASSERT_TRUE(r.status.ok());
    t = r.completion + 1;
  }
  ASSERT_GT(sys.counters().invalidations, inv_before);  // The wave really hit blade 0.
  EXPECT_TRUE(channel->RunValid());

  // The surviving run commits, and the committed hits are real: a serial re-access of a
  // committed page still hits blade-locally.
  channel->Commit(comps.data(), comps.size(), submit_clock);
  {
    const AccessResult r = sys.Access(tid_a, 0, base, AccessType::kRead, t);
    ASSERT_TRUE(r.status.ok());
    EXPECT_TRUE(r.local_hit);
    t = r.completion + 1;
  }

  // A wave inside the run's own region kills it.
  {
    const AccessResult r = sys.Access(tid_b, 1, base + 3 * kPageSize, AccessType::kWrite, t);
    ASSERT_TRUE(r.status.ok());
  }
  EXPECT_FALSE(channel->RunValid());
}

// Same shape for GAM, whose page-granular software directory makes the wave surgical.
TEST(AccessChannelRegionStamps, GamPrivateRunSurvivesSharedWave) {
  GamConfig cfg;
  cfg.num_compute_blades = 2;
  cfg.num_memory_blades = 2;
  GamSystem sys(cfg);
  const VirtAddr base = *sys.Alloc(16ull << 20);
  const ThreadId tid_a = *sys.RegisterThread(0);
  const ThreadId tid_b = *sys.RegisterThread(1);

  SimTime t = 0;
  for (uint64_t p = 0; p < 8; ++p) {
    const AccessResult r = sys.Access(tid_a, 0, base + p * kPageSize, AccessType::kWrite, t);
    ASSERT_TRUE(r.status.ok());
    t = r.completion + 1;
  }
  const VirtAddr shared = base + 2048 * kPageSize;  // Region 4: far from the run.
  {
    const AccessResult r = sys.Access(tid_a, 0, shared, AccessType::kRead, t);
    ASSERT_TRUE(r.status.ok());
    t = r.completion + 1;
  }

  auto channel = sys.OpenChannel(tid_a, 0);
  ASSERT_NE(channel, nullptr);
  std::vector<LocalOp> ops;
  for (uint64_t p = 0; p < 8; ++p) {
    ops.push_back(LocalOp{base + p * kPageSize, AccessType::kRead});
  }
  std::vector<Completion> comps(ops.size());
  const SubmitResult run =
      channel->Submit(ops.data(), ops.size(), t, /*think=*/100, comps.data());
  ASSERT_EQ(run.accepted, ops.size());
  EXPECT_TRUE(run.latency_final);  // Blade 0 has a single registered thread.
  EXPECT_GT(run.uniform_latency, 0u);
  EXPECT_TRUE(channel->RunValid());

  // B steals the shared page: GAM invalidates blade 0's copy of that page only.
  {
    const AccessResult r = sys.Access(tid_b, 1, shared, AccessType::kWrite, t);
    ASSERT_TRUE(r.status.ok());
    t = r.completion + 1;
  }
  EXPECT_GT(sys.counters().invalidations, 0u);
  EXPECT_TRUE(channel->RunValid());

  // B steals a page inside the run's region: the run dies.
  {
    const AccessResult r = sys.Access(tid_b, 1, base + 3 * kPageSize, AccessType::kWrite, t);
    ASSERT_TRUE(r.status.ok());
  }
  EXPECT_FALSE(channel->RunValid());
}

// --- Part 3: per-blade channel groups ----------------------------------------

// GAM under intra-blade contention: per-thread Submit can only lower-bound hit latencies
// (latency_final = false), but one group commit replays the merged (clock, thread) lock
// queue and writes *exact* latencies into the completions — identical to serial per-op
// Access over the same interleaving — in a single batched call that advances the blade's
// FIFO lock once.
TEST(ChannelGroup, GamContendedBladeCommitsExactLatencies) {
  GamConfig cfg;
  cfg.num_compute_blades = 2;
  cfg.num_memory_blades = 2;
  GamSystem grouped(cfg);
  GamSystem serial(cfg);

  constexpr uint64_t kPages = 8;
  constexpr SimTime kThink = 50;
  struct Twin {
    GamSystem* sys;
    VirtAddr base = 0;
    ThreadId a = 0;
    ThreadId b = 0;
    SimTime warm_end = 0;
  };
  Twin twins[2] = {{&grouped}, {&serial}};
  for (Twin& tw : twins) {
    tw.base = *tw.sys->Alloc(1ull << 20);
    tw.a = *tw.sys->RegisterThread(0);
    tw.b = *tw.sys->RegisterThread(0);
    // Identical warm schedule on both systems: a writes pages 0..7, b pages 8..15.
    SimTime t = 0;
    for (uint64_t p = 0; p < 2 * kPages; ++p) {
      const ThreadId tid = p < kPages ? tw.a : tw.b;
      const AccessResult r =
          tw.sys->Access(tid, 0, tw.base + p * kPageSize, AccessType::kWrite, t);
      ASSERT_TRUE(r.status.ok());
      t = r.completion + 1;
    }
    tw.warm_end = t;
  }
  ASSERT_EQ(twins[0].warm_end, twins[1].warm_end);
  const SimTime t0 = twins[0].warm_end + 1000;
  const SimTime start_clock[2] = {t0, t0 + 30};

  // The replayed interleave: each thread touches its own pages with a read/write mix
  // (reads exercise the PSO barrier against the warm writes; everything is a cache hit).
  auto op_at = [](const Twin& tw, int thread, uint64_t i) {
    const uint64_t page = thread == 0 ? i : kPages + i;
    return LocalOp{tw.base + page * kPageSize,
                   i % 2 == 0 ? AccessType::kRead : AccessType::kWrite};
  };

  // Serial reference: per-op Access in (clock, thread) order against the twin system.
  std::vector<SimTime> want_latency[2];
  SimTime clock[2] = {start_clock[0], start_clock[1]};
  uint64_t next[2] = {0, 0};
  while (next[0] < kPages || next[1] < kPages) {
    int pick;
    if (next[0] >= kPages) {
      pick = 1;
    } else if (next[1] >= kPages) {
      pick = 0;
    } else {
      pick = clock[1] < clock[0] ? 1 : 0;  // Tie-break: lower thread index.
    }
    const LocalOp op = op_at(twins[1], pick, next[pick]);
    const AccessResult r = twins[1].sys->Access(pick == 0 ? twins[1].a : twins[1].b, 0,
                                                op.va, op.type, clock[pick]);
    ASSERT_TRUE(r.local_hit);
    want_latency[pick].push_back(r.latency);
    clock[pick] += r.latency + kThink;
    ++next[pick];
  }

  // Group path: submit both runs, then one CommitMerged for the whole blade.
  auto ch_a = grouped.OpenChannel(twins[0].a, 0);
  auto ch_b = grouped.OpenChannel(twins[0].b, 0);
  ASSERT_NE(ch_a, nullptr);
  ASSERT_NE(ch_b, nullptr);
  std::vector<LocalOp> ops[2];
  std::vector<Completion> comps[2];
  AccessChannel* channels[2] = {ch_a.get(), ch_b.get()};
  SubmitResult runs[2];
  for (int th = 0; th < 2; ++th) {
    for (uint64_t i = 0; i < kPages; ++i) {
      ops[th].push_back(op_at(twins[0], th, i));
    }
    comps[th].resize(kPages);
    runs[th] = channels[th]->Submit(ops[th].data(), kPages, start_clock[th], kThink,
                                    comps[th].data());
    ASSERT_EQ(runs[th].accepted, kPages);
    EXPECT_FALSE(runs[th].latency_final);  // Two registered threads share the blade.
    EXPECT_EQ(runs[th].uniform_latency, 0u);
  }
  auto group = grouped.OpenChannelGroup(0);
  ASSERT_NE(group, nullptr);
  GroupLane lanes[2];
  for (int th = 0; th < 2; ++th) {
    lanes[th].member = group->Add(channels[th]);
    lanes[th].thread_index = static_cast<size_t>(th);
    lanes[th].clock = start_clock[th];
    lanes[th].uniform_latency = runs[th].uniform_latency;
    lanes[th].comps = comps[th].data();
    lanes[th].count = kPages;
  }
  EXPECT_EQ(group->ValidMask() & 3u, 3u);
  Histogram hist;
  const uint64_t committed = group->CommitMerged(
      lanes, 2, std::numeric_limits<SimTime>::max(), kThink, hist);
  EXPECT_EQ(committed, 2 * kPages);

  for (int th = 0; th < 2; ++th) {
    SCOPED_TRACE(th);
    ASSERT_EQ(lanes[th].committed, kPages);
    for (uint64_t i = 0; i < kPages; ++i) {
      // Exact, not commit-finalized: the batched group latencies equal serial per-op
      // replay of the identical interleaving.
      EXPECT_EQ(comps[th][i].latency, want_latency[th][i]) << "op " << i;
    }
    EXPECT_EQ(lanes[th].end_clock, clock[th]);
  }

  // The blade's lock advanced to the same horizon on both systems: a probe access at the
  // merged end time must queue identically.
  const SimTime probe_at = std::max(clock[0], clock[1]);
  const AccessResult pg =
      grouped.Access(twins[0].a, 0, twins[0].base, AccessType::kRead, probe_at);
  const AccessResult ps =
      serial.Access(twins[1].a, 0, twins[1].base, AccessType::kRead, probe_at);
  EXPECT_EQ(pg.latency, ps.latency);
  EXPECT_EQ(pg.completion, ps.completion);
}

// ValidMask delivers per-member verdicts from one validation pass per blade: a wave into
// one member's stamped region clears only that member's bit.
TEST(ChannelGroup, MindValidMaskIsPerMember) {
  RackConfig cfg;
  cfg.num_compute_blades = 2;
  cfg.num_memory_blades = 2;
  MindSystem sys(cfg);
  const VirtAddr base = *sys.Alloc(8ull << 20);  // 2048 pages: four 2 MB regions.
  const ThreadId tid_a = *sys.RegisterThread(0);
  const ThreadId tid_b = *sys.RegisterThread(0);
  const ThreadId tid_c = *sys.RegisterThread(1);

  SimTime t = 0;
  auto warm = [&](ThreadId tid, uint64_t first_page) {
    for (uint64_t p = first_page; p < first_page + 8; ++p) {
      const AccessResult r =
          sys.Access(tid, 0, base + p * kPageSize, AccessType::kWrite, t);
      ASSERT_TRUE(r.status.ok());
      t = r.completion + 1;
    }
  };
  warm(tid_a, 0);      // Region 0.
  warm(tid_b, 1024);   // Region 2.

  auto ch_a = sys.OpenChannel(tid_a, 0);
  auto ch_b = sys.OpenChannel(tid_b, 0);
  auto submit = [&](AccessChannel* ch, uint64_t first_page, std::vector<Completion>* out) {
    std::vector<LocalOp> ops;
    for (uint64_t p = first_page; p < first_page + 8; ++p) {
      ops.push_back(LocalOp{base + p * kPageSize, AccessType::kRead});
    }
    out->resize(ops.size());
    const SubmitResult run = ch->Submit(ops.data(), ops.size(), t, 100, out->data());
    ASSERT_EQ(run.accepted, ops.size());
  };
  std::vector<Completion> comps_a, comps_b;
  submit(ch_a.get(), 0, &comps_a);
  submit(ch_b.get(), 1024, &comps_b);

  auto group = sys.OpenChannelGroup(0);
  ASSERT_NE(group, nullptr);
  ASSERT_EQ(group->Add(ch_a.get()), 0u);
  ASSERT_EQ(group->Add(ch_b.get()), 1u);
  EXPECT_EQ(group->ValidMask() & 3u, 3u);

  // A cross-blade write into member a's region strips blade 0's copy there: only bit 0
  // drops.
  const AccessResult r =
      sys.Access(tid_c, 1, base + 3 * kPageSize, AccessType::kWrite, t);
  ASSERT_TRUE(r.status.ok());
  const uint64_t mask = group->ValidMask();
  EXPECT_EQ(mask & 1u, 0u);
  EXPECT_EQ(mask & 2u, 2u);
}

// GroupMergeCommit dispatches its per-op argmin to a loser tree above
// kGroupMergeLinearScanMax lanes. The tree must replay exactly the linear scan's
// (end_clock, thread_index) merge order — horizon-dead and exhausted lanes skipped — so
// committing the same synthetic lane set at a lane count on each side of the crossover
// yields identical per-lane out-fields and identical merged order.
TEST(ChannelGroup, LoserTreeMatchesLinearScanOrder) {
  constexpr size_t kLanes = 32;  // > kGroupMergeLinearScanMax: the tree path.
  constexpr size_t kOps = 24;
  Rng rng(17);
  std::vector<std::vector<Completion>> comps(kLanes, std::vector<Completion>(kOps));
  std::vector<GroupLane> lanes(kLanes);
  for (size_t i = 0; i < kLanes; ++i) {
    for (size_t j = 0; j < kOps; ++j) {
      comps[i][j].latency = 50 + rng.NextBelow(100);
    }
    lanes[i].member = i;
    lanes[i].thread_index = i;
    lanes[i].clock = rng.NextBelow(64);
    lanes[i].uniform_latency = 0;
    lanes[i].comps = comps[i].data();
    lanes[i].count = kOps;
  }
  const SimTime horizon = 1500;  // Some lanes die at the horizon mid-run.
  const SimTime think = 10;
  auto latency_of = [](const GroupLane& ln, size_t idx) { return ln.comps[idx].latency; };

  // Reference: a hand-rolled linear argmin scan over all 32 lanes (GroupMergeCommit
  // itself would dispatch to the tree at this count), recording the merged order.
  std::vector<GroupLane> ref = lanes;
  std::vector<size_t> ref_order;
  for (size_t i = 0; i < kLanes; ++i) {
    ref[i].committed = 0;
    ref[i].end_clock = ref[i].clock;
    ref[i].last_start = ref[i].clock;
    ref[i].latency_sum = 0;
  }
  for (;;) {
    GroupLane* best = nullptr;
    for (size_t i = 0; i < kLanes; ++i) {
      GroupLane& ln = ref[i];
      if (ln.committed >= ln.count || ln.end_clock >= horizon) {
        continue;
      }
      if (best == nullptr || ln.end_clock < best->end_clock ||
          (ln.end_clock == best->end_clock && ln.thread_index < best->thread_index)) {
        best = &ln;
      }
    }
    if (best == nullptr) {
      break;
    }
    ref_order.push_back(best->thread_index);
    const SimTime latency = latency_of(*best, best->committed);
    best->last_start = best->end_clock;
    best->latency_sum += latency;
    best->end_clock += latency + think;
    ++best->committed;
  }
  ASSERT_GT(ref_order.size(), 0u);
  ASSERT_LT(ref_order.size(), kLanes * kOps);  // The horizon really cut lanes short.

  // Candidate: GroupMergeCommit over all 32 lanes — the loser-tree path.
  std::vector<size_t> got_order;
  Histogram got_hist;
  const uint64_t got_total = GroupMergeCommit(
      lanes.data(), kLanes, horizon, think, got_hist, latency_of,
      [&](GroupLane& ln, size_t) { got_order.push_back(ln.thread_index); });
  EXPECT_EQ(got_total, ref_order.size());
  EXPECT_EQ(got_order, ref_order);
  for (size_t i = 0; i < kLanes; ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(lanes[i].committed, ref[i].committed);
    EXPECT_EQ(lanes[i].end_clock, ref[i].end_clock);
    EXPECT_EQ(lanes[i].last_start, ref[i].last_start);
    EXPECT_EQ(lanes[i].latency_sum, ref[i].latency_sum);
  }
}

}  // namespace
}  // namespace mind
