// Golden results of prefetch-on replay: MIND, GAM and FastSwap under kNextN and
// kMajorityStride on small fixed traces, plus a 2-blade MIND trace whose invalidation
// waves discard in-flight copies and a MIND store_data trace. Each case pins the
// makespan, every SystemCounters and PrefetchStats field, the latency-histogram summary
// and the TraceScope semantic digest to constants recorded before the three systems'
// prefetch bookkeeping moved behind src/prefetch (PrefetchUnit), so any change to what a
// prefetch does — install order, join accounting, issue windows, throttling, trace
// events — shows up here as a changed row.
//
// The traces use no zipfian segment, so no constant depends on libm. MIND cases run on the
// default 30,000-slot directory and never evict a directory entry, so no split half is
// ever removed: the directory-capacity paths are pinned by rack_test.cc instead.
//
// On a mismatch the failure message prints the observed row in this file's syntax.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <ostream>

#include "src/baselines/fastswap.h"
#include "src/baselines/gam.h"
#include "src/baselines/mind_system.h"
#include "src/workload/generators.h"
#include "src/workload/replay.h"

namespace mind {
namespace {

struct Golden {
  SimTime makespan = 0;
  uint64_t total_ops = 0;
  // SystemCounters.
  uint64_t total_accesses = 0;
  uint64_t local_hits = 0;
  uint64_t remote_accesses = 0;
  uint64_t invalidations = 0;
  uint64_t pages_flushed = 0;
  uint64_t false_invalidations = 0;
  SimTime bd_fault = 0;
  SimTime bd_network = 0;
  SimTime bd_inv_queue = 0;
  SimTime bd_inv_tlb = 0;
  SimTime bd_fabric_wait = 0;
  // PrefetchStats.
  uint64_t issued = 0;
  uint64_t useful = 0;
  uint64_t late = 0;
  uint64_t evicted_unused = 0;
  uint64_t discarded_stale = 0;
  uint64_t rearmed = 0;
  uint64_t throttled = 0;
  // Latency-histogram summary (the sum stands in for the mean: integer, exact).
  uint64_t hist_count = 0;
  uint64_t hist_sum = 0;
  uint64_t hist_min = 0;
  uint64_t hist_max = 0;
  uint64_t p50 = 0;
  uint64_t p90 = 0;
  uint64_t p99 = 0;
  uint64_t p999 = 0;
  // TraceScope::SemanticDigest.
  uint64_t digest = 0;

  friend bool operator==(const Golden&, const Golden&) = default;
};

std::ostream& operator<<(std::ostream& os, const Golden& g) {
  os << "{" << g.makespan << "ull, " << g.total_ops << ", " << g.total_accesses << ", "
     << g.local_hits << ", " << g.remote_accesses << ", " << g.invalidations << ", "
     << g.pages_flushed << ", " << g.false_invalidations << ", " << g.bd_fault << "ull, "
     << g.bd_network << "ull, " << g.bd_inv_queue << "ull, " << g.bd_inv_tlb << "ull, "
     << g.bd_fabric_wait << "ull, " << g.issued << ", " << g.useful << ", " << g.late
     << ", " << g.evicted_unused << ", " << g.discarded_stale << ", " << g.rearmed << ", "
     << g.throttled << ", " << g.hist_count << ", " << g.hist_sum << "ull, " << g.hist_min
     << ", " << g.hist_max << ", " << g.p50 << ", " << g.p90 << ", " << g.p99 << ", "
     << g.p999 << ", 0x" << std::hex << g.digest << std::dec << "ull}";
  return os;
}

Golden Observe(MemorySystem& sys, const WorkloadTraces& traces, PrefetchPolicy policy) {
  ReplayOptions opts;
  opts.prefetch = policy;
  opts.trace = true;
  ReplayEngine engine(&sys, &traces, opts);
  EXPECT_TRUE(engine.Setup().ok());
  const ReplayReport r = engine.Run();
  const HistogramSummary h = r.latency_histogram.Summary();
  Golden g;
  g.makespan = r.makespan;
  g.total_ops = r.total_ops;
  g.total_accesses = r.counters.total_accesses;
  g.local_hits = r.counters.local_hits;
  g.remote_accesses = r.counters.remote_accesses;
  g.invalidations = r.counters.invalidations;
  g.pages_flushed = r.counters.pages_flushed;
  g.false_invalidations = r.counters.false_invalidations;
  g.bd_fault = r.counters.breakdown_sums.fault;
  g.bd_network = r.counters.breakdown_sums.network;
  g.bd_inv_queue = r.counters.breakdown_sums.inv_queue;
  g.bd_inv_tlb = r.counters.breakdown_sums.inv_tlb;
  g.bd_fabric_wait = r.counters.breakdown_sums.fabric_wait;
  g.issued = r.prefetch.issued;
  g.useful = r.prefetch.useful;
  g.late = r.prefetch.late;
  g.evicted_unused = r.prefetch.evicted_unused;
  g.discarded_stale = r.prefetch.discarded_stale;
  g.rearmed = r.prefetch.rearmed;
  g.throttled = r.prefetch.throttled;
  g.hist_count = h.count;
  g.hist_sum = r.latency_histogram.sum();
  g.hist_min = h.min;
  g.hist_max = h.max;
  g.p50 = h.p50;
  g.p90 = h.p90;
  g.p99 = h.p99;
  g.p999 = h.p999;
  const TraceScope* scope = engine.trace_scope();
  EXPECT_NE(scope, nullptr);
  g.digest = scope == nullptr ? 0 : scope->SemanticDigest();
  return g;
}

// Private sequential streams (30% writes) with a fifth of the ops on a small uniformly
// shared segment (30% writes): stride-1 fault streams with noise, sharing for waves, and
// a cache far below the working set for evictions.
WorkloadSpec MixedSpec(int blades, int threads_per_blade) {
  WorkloadSpec s;
  s.name = "golden-mixed";
  s.num_blades = blades;
  s.threads_per_blade = threads_per_blade;
  s.accesses_per_thread = 3000;
  s.think_time = 500;
  s.seed = 11;
  s.private_pages_per_thread = 1500;
  s.private_pattern = Pattern::kSequential;
  s.private_write_fraction = 0.3;
  s.shared_pages = 512;
  s.shared_pattern = Pattern::kUniform;
  s.shared_access_fraction = 0.2;
  s.shared_write_fraction = 0.3;
  return s;
}

// Two threads on different blades scanning one shared segment, staggered, with writes:
// each blade's waves invalidate regions the other blade has fetches in flight for.
WorkloadSpec WaveSpec() {
  WorkloadSpec s;
  s.name = "golden-waves";
  s.num_blades = 2;
  s.threads_per_blade = 1;
  s.accesses_per_thread = 3000;
  s.think_time = 300;
  s.seed = 5;
  s.shared_pages = 600;
  s.shared_pattern = Pattern::kSequential;
  s.shared_access_fraction = 1.0;
  s.shared_write_fraction = 0.25;
  return s;
}

RackConfig GoldenRack(int blades) {
  RackConfig c;
  c.num_compute_blades = blades;
  c.num_memory_blades = 2;
  c.memory_blade_capacity = 1ull << 30;
  c.compute_cache_bytes = 1ull << 20;  // 256 frames.
  return c;
}

GamConfig GoldenGam(int blades) {
  GamConfig c;
  c.num_compute_blades = blades;
  c.num_memory_blades = 2;
  c.compute_cache_bytes = 1ull << 20;
  return c;
}

FastSwapConfig GoldenFastSwap() {
  FastSwapConfig c;
  c.num_memory_blades = 2;
  c.compute_cache_bytes = 1ull << 20;
  return c;
}

// MIND cases must stay off the directory-capacity paths (see the header comment).
void ExpectNoDirectoryEvictions(MindSystem& sys) {
  EXPECT_EQ(sys.rack().stats().directory_capacity_evictions, 0u);
  EXPECT_EQ(sys.rack().config().directory_slots, 30000u);
  EXPECT_LT(sys.rack().directory().high_water(), 30000u);
}

TEST(PrefetchGolden, MindNextN) {
  MindSystem sys(GoldenRack(2));
  const Golden got = Observe(sys, GenerateTraces(MixedSpec(2, 2)), PrefetchPolicy::kNextN);
  const Golden want =
      {48433566ull, 12000, 12000, 5016, 6984, 839, 219, 152, 9079200ull, 56658296ull,
       395ull, 754000ull, 116729552ull, 58292, 6901, 1661, 44157, 5404, 1865, 0, 12000,
       183622723ull, 80, 105163, 9088, 39424, 60928, 77824, 0x3339ab4faa46d33bull};
  EXPECT_EQ(want, got);
  ExpectNoDirectoryEvictions(sys);
}

TEST(PrefetchGolden, MindMajorityStride) {
  MindSystem sys(GoldenRack(2));
  const Golden got =
      Observe(sys, GenerateTraces(MixedSpec(2, 2)), PrefetchPolicy::kMajorityStride);
  const Golden want =
      {42330249ull, 12000, 12000, 4331, 7669, 834, 210, 159, 9969700ull, 60035190ull,
       21860ull, 750000ull, 89848771ull, 47147, 5943, 1278, 35803, 4044, 1475, 8, 12000,
       160972001ull, 80, 96936, 9088, 34304, 54272, 71680, 0xc14884cf82001af5ull};
  EXPECT_EQ(want, got);
  ExpectNoDirectoryEvictions(sys);
}

TEST(PrefetchGolden, GamNextN) {
  GamSystem sys(GoldenGam(2));
  const Golden got = Observe(sys, GenerateTraces(MixedSpec(2, 2)), PrefetchPolicy::kNextN);
  const Golden want =
      {213429719ull, 12000, 12000, 4653, 7347, 818, 3571, 0, 5877600ull, 864869571ull,
       0ull, 0ull, 0ull, 44329, 6408, 2200, 31411, 4251, 1980, 0, 12000, 846999707ull, 950,
       825213, 53760, 161792, 380928, 622592, 0xdd6fe5a322088d7ull};
  EXPECT_EQ(want, got);
}

TEST(PrefetchGolden, GamMajorityStride) {
  GamSystem sys(GoldenGam(2));
  const Golden got =
      Observe(sys, GenerateTraces(MixedSpec(2, 2)), PrefetchPolicy::kMajorityStride);
  const Golden want =
      {192948223ull, 12000, 12000, 3999, 8001, 824, 3599, 0, 6400800ull, 902704693ull,
       0ull, 0ull, 0ull, 39517, 5478, 1984, 27851, 4136, 1513, 0, 12000, 760433420ull, 950,
       729164, 34304, 161792, 397312, 589824, 0x6aee70fccae5cd09ull};
  EXPECT_EQ(want, got);
}

TEST(PrefetchGolden, FastSwapNextN) {
  FastSwapSystem sys(GoldenFastSwap());
  const Golden got = Observe(sys, GenerateTraces(MixedSpec(1, 2)), PrefetchPolicy::kNextN);
  const Golden want =
      {22460680ull, 6000, 6000, 3741, 2259, 0, 1672, 0, 2936700ull, 19381804ull, 0ull,
       0ull, 19078560ull, 30634, 3616, 834, 26160, 0, 906, 0, 6000, 41696344ull, 80, 84103,
       81, 22016, 47616, 66560, 0x969b8e4312f8eaa0ull};
  EXPECT_EQ(want, got);
}

TEST(PrefetchGolden, FastSwapMajorityStride) {
  FastSwapSystem sys(GoldenFastSwap());
  const Golden got =
      Observe(sys, GenerateTraces(MixedSpec(1, 2)), PrefetchPolicy::kMajorityStride);
  const Golden want =
      {21959321ull, 6000, 6000, 3591, 2409, 0, 1680, 0, 3131700ull, 19918663ull, 0ull,
       0ull, 17261769ull, 28673, 3471, 760, 24401, 0, 805, 2, 6000, 40599412ull, 80, 72572,
       81, 20736, 45568, 61440, 0xf45898eb016283d0ull};
  EXPECT_EQ(want, got);
}

TEST(PrefetchGolden, MindWavesDiscardInFlightCopies) {
  MindSystem sys(GoldenRack(2));
  const Golden got = Observe(sys, GenerateTraces(WaveSpec()), PrefetchPolicy::kNextN);
  const Golden want =
      {27002218ull, 6000, 6000, 2549, 3451, 1212, 276, 209, 4486300ull, 31168588ull, 0ull,
       462000ull, 14381170ull, 7532, 3397, 902, 786, 2319, 514, 0, 6000, 50701978ull, 80,
       54373, 7808, 23552, 32000, 37376, 0x911c605cd73eee9bull};
  EXPECT_EQ(want, got);
  EXPECT_GT(got.discarded_stale, 0u) << "the trace must discard in-flight copies";
  ExpectNoDirectoryEvictions(sys);
}

TEST(PrefetchGolden, MindStoreData) {
  RackConfig cfg = GoldenRack(2);
  cfg.store_data = true;
  MindSystem sys(cfg);
  const Golden got =
      Observe(sys, GenerateTraces(MixedSpec(2, 1)), PrefetchPolicy::kMajorityStride);
  const Golden want =
      {22158529ull, 6000, 6000, 2581, 3419, 416, 113, 78, 4444700ull, 24137793ull, 0ull,
       406000ull, 12099513ull, 19448, 3550, 383, 13966, 1481, 749, 0, 6000, 41294486ull,
       80, 60752, 6528, 17408, 35840, 50176, 0x705842fa168ffa2dull};
  EXPECT_EQ(want, got);
  ExpectNoDirectoryEvictions(sys);
}

}  // namespace
}  // namespace mind
