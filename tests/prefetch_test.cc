// Tests for the prefetch subsystem (src/prefetch/prefetch.h):
//   1. StrideDetector vs a naive reference model — warm-up, stride changes, interleaved
//      streams, random noise.
//   2. PrefetchEngine policy predictions, adaptive window and in-flight bounds.
//   3. End-to-end coverage on all three systems: streaming/strided workloads must cover
//      a large fraction of would-be remote faults; pointer chase must not speculate; a
//      fault an arrived prefetch covers is traced useful.
//   4. Invalidation safety: a wave that lands between issue and arrival discards the
//      stale in-flight copy, and guesses never evict directory entries.
//   5. kNone conformance: with the default policy, channel replay is bit-identical to
//      the per-op oracle (tests/replay_conformance.h) for every system.
//   6. The shared pipeline's fabric-pressure throttle (PrefetchUnit, stand-in host).
#include <gtest/gtest.h>

#include <initializer_list>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "src/baselines/fastswap.h"
#include "src/baselines/gam.h"
#include "src/baselines/mind_system.h"
#include "src/blade/dram_cache.h"
#include "src/common/rng.h"
#include "src/core/access_channel.h"
#include "src/obs/trace.h"
#include "src/prefetch/prefetch.h"
#include "src/prefetch/prefetch_unit.h"
#include "src/workload/generators.h"
#include "src/workload/replay.h"
#include "tests/replay_conformance.h"

namespace mind {
namespace {

// --- Part 1: stride detector vs naive reference -------------------------------

// Naive model: keep the last `history` pages, recompute every delta's count, report the
// unique delta with a strict majority (and at least kWarmupDeltas deltas), else 0.
class NaiveDetector {
 public:
  explicit NaiveDetector(uint32_t history) : history_(history < 2 ? 2 : history) {}

  void Record(uint64_t page) {
    pages_.push_back(page);
    if (pages_.size() > history_) {
      pages_.erase(pages_.begin());
    }
  }

  [[nodiscard]] int64_t MajorityStride() const {
    if (pages_.size() < 2) {
      return 0;
    }
    const size_t deltas = pages_.size() - 1;
    if (deltas < StrideDetector::kWarmupDeltas) {
      return 0;
    }
    std::map<int64_t, size_t> counts;
    for (size_t i = 0; i + 1 < pages_.size(); ++i) {
      ++counts[static_cast<int64_t>(pages_[i + 1] - pages_[i])];
    }
    for (const auto& [delta, count] : counts) {
      if (delta != 0 && count * 2 > deltas) {
        return delta;
      }
    }
    return 0;
  }

 private:
  uint32_t history_;
  std::vector<uint64_t> pages_;
};

TEST(StrideDetector, WarmupProducesNoStride) {
  StrideDetector d(32);
  d.Record(100);
  d.Record(101);
  d.Record(102);
  EXPECT_EQ(d.MajorityStride(), 0) << "2 deltas is below the warm-up threshold";
  d.Record(103);  // 3 deltas: warm.
  EXPECT_EQ(d.MajorityStride(), 1);
}

TEST(StrideDetector, MatchesNaiveReferenceOnRandomSequences) {
  Rng rng(1234);
  for (int trial = 0; trial < 20; ++trial) {
    const uint32_t history = 4 + static_cast<uint32_t>(rng.NextBelow(60));
    StrideDetector detector(history);
    NaiveDetector naive(history);
    uint64_t page = 1'000'000;
    for (int step = 0; step < 400; ++step) {
      // Mix of steady strides, jumps and noise so majorities form and dissolve.
      const uint64_t kind = rng.NextBelow(10);
      if (kind < 6) {
        page += 3;  // Dominant stride.
      } else if (kind < 8) {
        page += rng.NextBelow(1000);
      } else {
        page -= rng.NextBelow(500);
      }
      detector.Record(page);
      naive.Record(page);
      ASSERT_EQ(detector.MajorityStride(), naive.MajorityStride())
          << "trial " << trial << " step " << step << " history " << history;
    }
  }
}

TEST(StrideDetector, AdaptsToStrideChange) {
  StrideDetector d(16);
  uint64_t page = 500;
  for (int i = 0; i < 16; ++i) {
    d.Record(page += 3);
  }
  EXPECT_EQ(d.MajorityStride(), 3);
  // After the new stride fills a majority of the ring, the vote flips.
  for (int i = 0; i < 10; ++i) {
    d.Record(page += 9);
  }
  EXPECT_EQ(d.MajorityStride(), 9);
}

TEST(StrideDetector, InterleavedStreamsNeedADominantStride) {
  // 2:1 interleave of a stride-2 stream and a far-away random stream: only 1 in 3
  // deltas equals 2, so the majority vote must refuse to guess.
  StrideDetector d(30);
  Rng rng(7);
  uint64_t a = 1'000'000;
  for (int i = 0; i < 30; ++i) {
    d.Record(a += 2);
    d.Record(a += 2);
    d.Record(4'000'000'000ull + rng.NextBelow(1'000'000));
  }
  EXPECT_EQ(d.MajorityStride(), 0);
  // 5:1 interleave: 4 of every 6 deltas equal 2 — a real majority survives the noise.
  StrideDetector d2(30);
  for (int i = 0; i < 30; ++i) {
    for (int k = 0; k < 5; ++k) {
      d2.Record(a += 2);
    }
    d2.Record(4'000'000'000ull + rng.NextBelow(1'000'000));
  }
  EXPECT_EQ(d2.MajorityStride(), 2);
}

// --- Part 2: engine predictions, window adaptation, in-flight bounds ----------

PrefetchConfig TestConfig(PrefetchPolicy policy) {
  PrefetchConfig c;
  c.policy = policy;
  c.min_window = 2;
  c.initial_window = 4;
  c.max_window = 16;
  c.max_in_flight = 8;
  return c;
}

TEST(PrefetchEngine, NextNPredictsSequentialReadahead) {
  PrefetchEngine e(TestConfig(PrefetchPolicy::kNextN));
  std::vector<uint64_t> out;
  e.Predict(100, &out);
  ASSERT_EQ(out.size(), e.window());
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], 101 + i);
  }
}

TEST(PrefetchEngine, MajorityStridePredictsOnlyAfterAPatternForms) {
  PrefetchEngine e(TestConfig(PrefetchPolicy::kMajorityStride));
  std::vector<uint64_t> out;
  e.Predict(100, &out);
  EXPECT_TRUE(out.empty()) << "no history: no speculation";
  uint64_t page = 100;
  for (int i = 0; i < 6; ++i) {
    e.RecordFault(page += 5);
  }
  e.Predict(page, &out);
  ASSERT_EQ(out.size(), e.window());
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], page + 5 * (i + 1));
  }
}

TEST(PrefetchEngine, WindowGrowsOnUsefulAndShrinksOnFeedback) {
  PrefetchEngine e(TestConfig(PrefetchPolicy::kNextN));
  EXPECT_EQ(e.window(), 4u);
  e.OnUseful(1);
  EXPECT_EQ(e.window(), 8u);
  e.OnUseful(2);
  e.OnUseful(3);
  EXPECT_EQ(e.window(), 16u) << "growth saturates at max_window";
  e.OnIssued();
  e.OnLate();
  EXPECT_EQ(e.window(), 8u);
  e.OnIssued();
  e.OnDiscardedStale();
  EXPECT_EQ(e.window(), 4u);
  e.OnEvictedUnused();
  e.OnEvictedUnused();
  EXPECT_EQ(e.window(), 2u) << "shrink saturates at min_window";
}

TEST(PrefetchEngine, InFlightBudgetIsBounded) {
  PrefetchEngine e(TestConfig(PrefetchPolicy::kNextN));
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(e.HasInFlightRoom());
    e.OnIssued();
  }
  EXPECT_FALSE(e.HasInFlightRoom());
  e.OnInstalled();
  EXPECT_TRUE(e.HasInFlightRoom());
  EXPECT_EQ(e.stats().issued, 8u);
}

// --- Part 3: end-to-end coverage on all three systems -------------------------

// Streaming scan far past the cache: without prefetching every op is a remote fault.
WorkloadSpec StreamSpec(int blades, Pattern pattern) {
  WorkloadSpec s;
  s.name = "stream";
  s.num_blades = blades;
  s.threads_per_blade = 1;
  s.private_pages_per_thread = 6000;
  s.private_pattern = pattern;
  s.stride_pages = 7;
  s.private_write_fraction = 0.3;
  s.accesses_per_thread = 8000;
  s.think_time = 600;
  s.seed = 3;
  return s;
}

RackConfig SmallRack(int blades) {
  RackConfig c;
  c.num_compute_blades = blades;
  c.num_memory_blades = 2;
  c.memory_blade_capacity = 2ull << 30;
  c.compute_cache_bytes = 8ull << 20;  // 2048 frames: far below the working set.
  return c;
}

ReplayReport Replay(MemorySystem& sys, const WorkloadTraces& traces,
                    PrefetchPolicy policy) {
  ReplayOptions opts;
  opts.prefetch = policy;
  ReplayEngine engine(&sys, &traces, opts);
  EXPECT_TRUE(engine.Setup().ok());
  return engine.Run();
}

TEST(PrefetchEndToEnd, MindStrideCoversStreamingFaults) {
  const WorkloadTraces traces = GenerateTraces(StreamSpec(2, Pattern::kSequential));
  MindSystem base(SmallRack(2));
  const ReplayReport none = Replay(base, traces, PrefetchPolicy::kNone);
  EXPECT_EQ(none.prefetch.issued, 0u);

  MindSystem sys(SmallRack(2));
  const ReplayReport got = Replay(sys, traces, PrefetchPolicy::kMajorityStride);
  EXPECT_GT(got.prefetch.issued, 0u);
  EXPECT_GT(got.prefetch.useful, 0u);
  EXPECT_GT(got.PrefetchCoverage(), 0.3) << "acceptance bar: >= 30% fault coverage";
  EXPECT_GT(got.prefetch.Accuracy(), 0.5);
  EXPECT_LT(got.makespan, none.makespan) << "covered faults must shorten the run";
  EXPECT_LT(got.counters.remote_accesses, none.counters.remote_accesses);
  EXPECT_EQ(got.total_ops, none.total_ops);
}

TEST(PrefetchEndToEnd, FastSwapStrideCoversStridedFaults) {
  const WorkloadTraces traces = GenerateTraces(StreamSpec(1, Pattern::kStrided));
  FastSwapConfig cfg;
  cfg.num_memory_blades = 2;
  cfg.compute_cache_bytes = 8ull << 20;
  FastSwapSystem base(cfg);
  const ReplayReport none = Replay(base, traces, PrefetchPolicy::kNone);

  FastSwapSystem sys(cfg);
  const ReplayReport got = Replay(sys, traces, PrefetchPolicy::kMajorityStride);
  EXPECT_GT(got.prefetch.useful, 0u);
  EXPECT_GT(got.PrefetchCoverage(), 0.3) << "acceptance bar: >= 30% fault coverage";
  EXPECT_LT(got.makespan, none.makespan);
  EXPECT_EQ(got.total_ops, none.total_ops);
}

TEST(PrefetchEndToEnd, MindStoreDataModeInstallsRealPayloads) {
  // store_data exercises the install-time payload re-read (Rack::PeekPageBytes): the
  // prefetched copy must come from the memory blade, not a dangling fetch-time pointer.
  RackConfig cfg = SmallRack(1);
  cfg.store_data = true;
  MindSystem sys(cfg);
  WorkloadSpec spec = StreamSpec(1, Pattern::kSequential);
  spec.accesses_per_thread = 3000;
  const WorkloadTraces traces = GenerateTraces(spec);
  const ReplayReport got = Replay(sys, traces, PrefetchPolicy::kMajorityStride);
  EXPECT_GT(got.prefetch.useful, 0u);
  EXPECT_GT(got.PrefetchCoverage(), 0.3);
}

TEST(PrefetchEndToEnd, GamIssuesBehindTheLibraryLock) {
  const WorkloadTraces traces = GenerateTraces(StreamSpec(2, Pattern::kSequential));
  GamConfig cfg;
  cfg.num_compute_blades = 2;
  cfg.num_memory_blades = 2;
  cfg.compute_cache_bytes = 8ull << 20;
  GamSystem sys(cfg);
  const ReplayReport got = Replay(sys, traces, PrefetchPolicy::kMajorityStride);
  EXPECT_GT(got.prefetch.issued, 0u);
  EXPECT_GT(got.prefetch.useful, 0u);
  EXPECT_GT(got.PrefetchCoverage(), 0.3);
}

TEST(PrefetchEndToEnd, PointerChaseProducesNoStrideSpeculation) {
  const WorkloadTraces traces = GenerateTraces(StreamSpec(1, Pattern::kPointerChase));
  MindSystem sys(SmallRack(1));
  const ReplayReport got = Replay(sys, traces, PrefetchPolicy::kMajorityStride);
  // No majority stride exists in a permuted chase, so the detector must sit out.
  EXPECT_EQ(got.prefetch.issued, 0u);
}

// --- Part 3c: a fault an arrived prefetch covers is traced useful -------------

// Replays a read-only stride-3 stream one Access at a time, with a think time long enough
// for every window to land before the next demand. Before each access the thread's
// channel classifies the op (Submit is a read-only hit check): a covered fault is an
// access whose page was not cached but which Access serves as a local hit, because a
// prefetch installed at the fault covers it. Each must be traced as one kPrefetchUseful
// at the fault's clock with no duration; in-flight joins, the only other useful events,
// last until their data lands.
void ExpectCoveredFaultsTracedUseful(MemorySystem& sys) {
  constexpr uint64_t kOps = 400;
  constexpr SimTime kThink = 100 * kMicrosecond;
  ASSERT_TRUE(sys.SetPrefetchPolicy(PrefetchPolicy::kMajorityStride));
  const Result<VirtAddr> base = sys.Alloc(3 * kOps * kPageSize);
  const Result<ThreadId> tid = sys.RegisterThread(0);
  ASSERT_TRUE(base.ok() && tid.ok());
  const std::unique_ptr<AccessChannel> probe = sys.OpenChannel(*tid, 0);
  ASSERT_NE(probe, nullptr);
  TraceSink sink(1 << 16);
  ASSERT_TRUE(sys.SetTraceSink(&sink));
  std::vector<std::pair<uint64_t, SimTime>> covered;  // (page, clock) per covered fault.
  SimTime now = 0;
  for (uint64_t i = 0; i < kOps; ++i) {
    const LocalOp op{*base + 3 * i * kPageSize, AccessType::kRead};
    Completion completion;
    const bool cached = probe->Submit(&op, 1, now, kThink, &completion).accepted == 1;
    const AccessResult r = sys.Access(*tid, 0, op.va, op.type, now);
    if (!cached && r.local_hit) {
      covered.emplace_back(PageNumber(op.va), now);
    }
    now += r.latency + kThink;
  }
  (void)sys.SetTraceSink(nullptr);
  std::vector<std::pair<uint64_t, SimTime>> traced;
  sink.ForEach([&](const TraceEvent& e) {
    if (e.kind == TraceEventKind::kPrefetchUseful && e.dur == 0) {
      EXPECT_EQ(e.tid, *tid);
      traced.emplace_back(e.a, e.clock);
    }
  });
  EXPECT_EQ(sink.dropped(), 0u);
  EXPECT_FALSE(covered.empty()) << "the stream must produce covered faults";
  EXPECT_EQ(traced, covered);
}

TEST(PrefetchTrace, CoveredFaultsAreTracedUsefulOnEverySystem) {
  GamConfig gam_config;
  gam_config.compute_cache_bytes = 8ull << 20;
  FastSwapConfig fastswap_config;
  fastswap_config.compute_cache_bytes = 8ull << 20;
  MindSystem mind(SmallRack(1));
  GamSystem gam(gam_config);
  FastSwapSystem fastswap(fastswap_config);
  for (MemorySystem* sys : std::initializer_list<MemorySystem*>{&mind, &gam, &fastswap}) {
    SCOPED_TRACE(sys->name());
    ExpectCoveredFaultsTracedUseful(*sys);
  }
}

// --- Part 4: invalidation waves discard stale in-flight prefetches ------------

// --- Part 3b: prefetch-aware eviction priority (DramCache cold inserts) -------

TEST(PrefetchEviction, ColdInsertEvictsGuessesBeforeDemandPages) {
  DramCache cache(/*capacity_frames=*/8, /*store_data=*/false);
  for (uint64_t p = 1; p <= 8; ++p) {
    EXPECT_FALSE(cache.Insert(p, /*writable=*/true).has_value());
  }
  // Speculative install at depth 2: the LRU page 1 is evicted to make room, and the
  // guess links above pages 2 and 3 only — not at MRU.
  auto ev = cache.InsertPrefetched(100, /*writable=*/false, nullptr, 0, /*lru_depth=*/2);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->page, 1u);
  ASSERT_NE(cache.Peek(100), nullptr);
  EXPECT_TRUE(cache.Peek(100)->prefetched);
  // Demand pressure now consumes the two colder demand pages, then the guess — before
  // any of the five warmer demand pages.
  EXPECT_EQ(cache.Insert(200, true)->page, 2u);
  EXPECT_EQ(cache.Insert(201, true)->page, 3u);
  EXPECT_EQ(cache.Insert(202, true)->page, 100u);
  EXPECT_EQ(cache.Insert(203, true)->page, 4u);
}

TEST(PrefetchEviction, DepthZeroMakesAMispredictingBurstChurnItself) {
  DramCache cache(/*capacity_frames=*/4, /*store_data=*/false);
  for (uint64_t p = 1; p <= 4; ++p) {
    cache.Insert(p, /*writable=*/true);
  }
  // The regression this closes: a wrong-guess burst at the cold end evicts its own
  // previous guesses, and all demand pages but the original tail survive.
  EXPECT_EQ(cache.InsertPrefetched(100, false, nullptr, 0, 0)->page, 1u);
  EXPECT_EQ(cache.InsertPrefetched(101, false, nullptr, 0, 0)->page, 100u);
  EXPECT_EQ(cache.InsertPrefetched(102, false, nullptr, 0, 0)->page, 101u);
  for (uint64_t p = 2; p <= 4; ++p) {
    EXPECT_NE(cache.Peek(p), nullptr) << "demand page " << p << " was evicted by guesses";
  }
}

TEST(PrefetchEviction, ColdDepthAdaptsToFeedback) {
  BladePrefetchState bp;
  PrefetchEngine engine{PrefetchConfig{}};
  const uint32_t start = bp.cold_insert_depth();
  bp.unused[42] = &engine;
  bp.OnPrefetchedTouch(42);
  EXPECT_GT(bp.cold_insert_depth(), start) << "useful touches must earn residency";
  for (uint64_t p = 0; p < 16; ++p) {  // A long evicted-unused run floors the depth.
    bp.unused[100 + p] = &engine;
    bp.OnPageEvicted(100 + p);
  }
  EXPECT_EQ(bp.cold_insert_depth(), BladePrefetchState::kMinColdDepth);
  EXPECT_EQ(engine.stats().evicted_unused, 16u);
}

// --- Part 3c: issued-window re-arm (the readahead-marker analog) --------------

TEST(PrefetchRearm, UsefulTouchPastWindowMidpointArmsOnce) {
  PrefetchEngine e{PrefetchConfig{}};
  e.NoteIssuedWindow(/*anchor=*/100, /*end=*/107);
  e.OnUseful(102);  // Below the midpoint: not armed.
  EXPECT_FALSE(e.TakeRearm().has_value());
  e.OnUseful(104);  // Midpoint crossed.
  const auto rearm = e.TakeRearm();
  ASSERT_TRUE(rearm.has_value());
  EXPECT_EQ(*rearm, 104u);
  EXPECT_EQ(e.stats().rearmed, 1u);
  e.OnUseful(106);  // The window arms at most once.
  EXPECT_FALSE(e.TakeRearm().has_value());
  e.NoteIssuedWindow(108, 101);  // Windows striding downward arm symmetrically.
  e.OnUseful(103);
  EXPECT_TRUE(e.TakeRearm().has_value());
}

TEST(PrefetchRearm, BladeQueueCollectsRearmRequestsFromTouches) {
  PrefetchEngine e{PrefetchConfig{}};
  BladePrefetchState bp;
  e.NoteIssuedWindow(10, 17);
  bp.unused[14] = &e;
  bp.OnPrefetchedTouch(14, /*pdid=*/7);
  ASSERT_EQ(bp.rearm_requests.size(), 1u);
  EXPECT_EQ(bp.rearm_requests[0].engine, &e);
  EXPECT_EQ(bp.rearm_requests[0].page, 14u);
  EXPECT_EQ(bp.rearm_requests[0].pdid, 7u);
}

// End-to-end: on a covered stream the touches ride channel/group commits, the re-arm
// hook keeps new windows going out at serialized points, and the accounting shows it.
TEST(PrefetchRearm, StreamingReplayRearmsWindows) {
  const WorkloadTraces traces = GenerateTraces(StreamSpec(2, Pattern::kSequential));
  MindSystem sys(SmallRack(2));
  const ReplayReport got = Replay(sys, traces, PrefetchPolicy::kMajorityStride);
  EXPECT_GT(got.prefetch.useful, 0u);
  EXPECT_GT(got.prefetch.rearmed, 0u) << "window re-arm never triggered";
}

TEST(PrefetchInvalidation, WaveBetweenIssueAndArrivalDiscardsTheCopy) {
  MindSystem sys(SmallRack(2));
  ASSERT_TRUE(sys.SetPrefetchPolicy(PrefetchPolicy::kMajorityStride));
  const VirtAddr base = *sys.Alloc(8ull << 20);
  const ThreadId tid_a = *sys.RegisterThread(0);
  const ThreadId tid_b = *sys.RegisterThread(1);

  // Blade 0 faults pages 0..3 sequentially: after the warm-up deltas the detector locks
  // onto stride 1 and issues prefetches for the pages ahead.
  SimTime t = 0;
  for (uint64_t p = 0; p < 4; ++p) {
    const AccessResult r =
        sys.Access(tid_a, 0, base + p * kPageSize, AccessType::kRead, t);
    ASSERT_TRUE(r.status.ok());
    t = r.completion + 100;
  }
  PrefetchStats stats = sys.prefetch_stats();
  ASSERT_GT(stats.issued, 0u) << "stride prefetches must be in flight";

  // Blade 1 writes page 5 while those fetches are still in flight: the invalidation
  // wave hits blade 0's region, so the in-flight copies are stale.
  {
    const AccessResult r =
        sys.Access(tid_b, 1, base + 5 * kPageSize, AccessType::kWrite, t);
    ASSERT_TRUE(r.status.ok());
  }

  // Long after every fetch has landed, blade 0 touches page 4: the stale install must
  // have been discarded, so this is a real remote fault, not a stale local hit.
  t += 200 * kMicrosecond;
  const AccessResult r = sys.Access(tid_a, 0, base + 4 * kPageSize, AccessType::kRead, t);
  ASSERT_TRUE(r.status.ok());
  EXPECT_FALSE(r.local_hit);
  stats = sys.prefetch_stats();
  EXPECT_GT(stats.discarded_stale, 0u);
  EXPECT_EQ(stats.useful, 0u);
}

// A foreign protection domain can neither join an in-flight prefetch nor consume it:
// speculation must never widen access beyond what the fault path would grant.
TEST(PrefetchInvalidation, JoinPathRespectsProtectionDomains) {
  RackConfig cfg;
  cfg.num_compute_blades = 1;
  cfg.num_memory_blades = 1;
  cfg.prefetch.policy = PrefetchPolicy::kMajorityStride;  // Config-level opt-in path.
  Rack rack(cfg);
  const ProcessId pid_a = *rack.Exec("owner");
  const ProcessId pid_b = *rack.Exec("intruder");
  const ProtDomainId pdid_a = *rack.controller().PdidOf(pid_a);
  const ProtDomainId pdid_b = *rack.controller().PdidOf(pid_b);
  const ThreadId tid_a = rack.SpawnThread(pid_a, 0)->tid;
  const ThreadId tid_b = rack.SpawnThread(pid_b, 0)->tid;
  const VirtAddr base = *rack.Mmap(pid_a, 1 << 20, PermClass::kReadWrite);

  // A's sequential faults arm the detector and put pages 4.. in flight.
  SimTime t = 0;
  for (uint64_t p = 0; p < 4; ++p) {
    const AccessResult r =
        rack.Access({tid_a, 0, pdid_a, base + p * kPageSize, AccessType::kRead, t});
    ASSERT_TRUE(r.status.ok());
    t = r.completion + 100;
  }
  ASSERT_GT(rack.prefetch_stats().issued, 0u);

  // B (no grant for A's vma) demand-reads an in-flight page: denied, exactly as the
  // fault path would rule, and the in-flight entry is not consumed.
  const VirtAddr target = base + 4 * kPageSize;
  const AccessResult denied =
      rack.Access({tid_b, 0, pdid_b, target, AccessType::kRead, t});
  EXPECT_FALSE(denied.status.ok());

  // A's own access long after arrival still gets the prefetched page as a local hit.
  t += 200 * kMicrosecond;
  const AccessResult r = rack.Access({tid_a, 0, pdid_a, target, AccessType::kRead, t});
  ASSERT_TRUE(r.status.ok());
  EXPECT_TRUE(r.local_hit);
  EXPECT_GT(rack.prefetch_stats().useful, 0u);
}

// With the directory full, a candidate whose region has no entry is skipped: creating
// one would evict another entry, by buddy merge or by a forced invalidation wave, on the
// strength of a guess. Candidates in regions that have an entry still go out.
TEST(PrefetchInvalidation, GuessesNeverEvictDirectoryEntries) {
  RackConfig cfg = SmallRack(1);
  cfg.directory_slots = 4;
  cfg.splitting.enabled = false;
  Rack rack(cfg);
  const ProcessId pid = *rack.Exec("scan");
  const ProtDomainId pdid = *rack.controller().PdidOf(pid);
  const ThreadId tid = rack.SpawnThread(pid, 0)->tid;
  const VirtAddr base = *rack.Mmap(pid, 1 << 20, PermClass::kReadWrite);

  // Four demand faults, 64 KB apart, fill the four slots with 16 KB regions.
  SimTime t = 0;
  for (uint64_t i = 0; i < 4; ++i) {
    const AccessResult r =
        rack.Access({tid, 0, pdid, base + i * 16 * kPageSize, AccessType::kRead, t});
    ASSERT_TRUE(r.status.ok());
    t = r.completion;
  }
  ASSERT_EQ(rack.directory().entry_count(), 4u);

  // A fault on page 1 needs no new entry. Readahead predicts pages 2..9: pages 2 and 3
  // share its region; pages 4..9 fall in two regions with no entry and no free slot.
  rack.SetPrefetchPolicy(PrefetchPolicy::kNextN);
  const AccessResult r = rack.Access({tid, 0, pdid, base + kPageSize, AccessType::kRead, t});
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(rack.prefetch_stats().issued, 2u);
  EXPECT_EQ(rack.directory().entry_count(), 4u);
  EXPECT_EQ(rack.stats().directory_capacity_evictions, 0u);
  EXPECT_EQ(rack.stats().invalidations_sent, 0u);
}

// --- Part 5: kNone conformance — bit-identical to the per-op oracle ------------

TEST(PrefetchNoneConformance, AllSystemsBitIdenticalToOracle) {
  WorkloadSpec spec = MemcachedASpec(4, 2, /*accesses_per_thread=*/2000);
  spec.shared_pages = 4096;
  const WorkloadTraces traces = GenerateTraces(spec);

  const auto check = [](const WorkloadTraces& traces, const SystemFactory& make_system) {
    const Conformance result = ExpectEngineMatchesOracle(make_system, traces);
    ASSERT_GT(result.oracle.total_ops, 0u);
    EXPECT_EQ(result.oracle.prefetch.issued, 0u);
    EXPECT_EQ(result.oracle.prefetch.useful, 0u);
  };

  {
    SCOPED_TRACE("MIND");
    RackConfig cfg = SmallRack(4);
    cfg.directory_slots = 2048;
    check(traces, [cfg] { return std::make_unique<MindSystem>(cfg); });
  }
  {
    SCOPED_TRACE("GAM");
    GamConfig cfg;
    cfg.num_compute_blades = 4;
    cfg.num_memory_blades = 2;
    cfg.compute_cache_bytes = 8ull << 20;
    check(traces, [cfg] { return std::make_unique<GamSystem>(cfg); });
  }
  {
    SCOPED_TRACE("FastSwap");
    WorkloadSpec fs_spec = spec;
    fs_spec.num_blades = 1;
    FastSwapConfig cfg;
    cfg.compute_cache_bytes = 8ull << 20;
    check(GenerateTraces(fs_spec), [cfg] { return std::make_unique<FastSwapSystem>(cfg); });
  }
}

// --- Part 6: the shared pipeline's fabric-pressure throttle -------------------

// Stand-in for a system: every candidate is admitted and lands a microsecond after
// issue; the trigger page's port utilization is whatever the test sets.
class FakeHost final : public PrefetchUnit::Host {
 public:
  std::optional<SimTime> AdmitPrefetch(ComputeBladeId /*blade*/, ProtDomainId /*pdid*/,
                                       uint64_t /*page*/, SimTime start) override {
    return start + kMicrosecond;
  }
  [[nodiscard]] double PrefetchPortUtilization(uint64_t /*page*/) const override {
    return utilization;
  }
  void WriteBackVictim(ComputeBladeId /*blade*/, const DramCache::Eviction& /*victim*/,
                       SimTime /*now*/) override {}

  double utilization = 0.0;
};

PrefetchConfig ThrottleConfig(PrefetchPolicy policy) {
  PrefetchConfig c;
  c.policy = policy;
  c.min_window = 1;
  c.initial_window = 8;
  c.max_window = 64;
  return c;
}

TEST(PrefetchThrottle, PressuredPortSkipsANonEmptyWindowAndHalvesIt) {
  const PrefetchConfig config = ThrottleConfig(PrefetchPolicy::kNextN);
  DramCache cache(/*capacity_frames=*/1024, /*store_data=*/false);
  FakeHost host;
  PrefetchUnit unit(config, &host, /*writable_installs=*/false);
  unit.AddBlade(cache);

  host.utilization = PrefetchUnit::kPressureThreshold;  // At the threshold: no pressure.
  unit.AfterFault({/*tid=*/1, /*blade=*/0, /*pdid=*/0, /*page=*/100}, 0);
  PrefetchStats s = unit.Stats();
  EXPECT_EQ(s.issued, 8u);
  EXPECT_EQ(s.throttled, 0u);

  host.utilization = 0.9;
  unit.AfterFault({1, 0, 0, 200}, 0);
  s = unit.Stats();
  EXPECT_EQ(s.issued, 8u) << "a pressured window issues nothing";
  EXPECT_EQ(s.throttled, 1u);

  host.utilization = 0.0;
  unit.AfterFault({1, 0, 0, 300}, 0);
  EXPECT_EQ(unit.Stats().issued, 8u + 4u) << "the throttled window halved 8 -> 4";
}

TEST(PrefetchThrottle, EmptyPredictionIsNeitherThrottledNorShrunk) {
  const PrefetchConfig config = ThrottleConfig(PrefetchPolicy::kMajorityStride);
  DramCache cache(/*capacity_frames=*/1024, /*store_data=*/false);
  FakeHost host;
  PrefetchUnit unit(config, &host, /*writable_installs=*/false);
  unit.AddBlade(cache);

  // Three faults are too few deltas for a majority stride: every prediction is empty,
  // so the pressured port has nothing to throttle.
  host.utilization = 0.9;
  for (uint64_t page = 100; page < 103; ++page) {
    unit.AfterFault({1, 0, 0, page}, 0);
  }
  PrefetchStats s = unit.Stats();
  EXPECT_EQ(s.throttled, 0u);
  EXPECT_EQ(s.issued, 0u);

  // The fourth fault forms stride 1; with the port idle the full window goes out.
  host.utilization = 0.0;
  unit.AfterFault({1, 0, 0, 103}, 0);
  s = unit.Stats();
  EXPECT_EQ(s.issued, 8u) << "empty predictions must not shrink the window";
  EXPECT_EQ(s.throttled, 0u);
}

}  // namespace
}  // namespace mind
