// Google-benchmark microbenchmarks of MIND's core data-plane/control-plane structures:
// the hot operations on the simulated switch's critical path. These are *implementation*
// benchmarks (how fast this library executes), complementing the figure benches (what the
// modeled system would measure).
//
// Besides the console table, a run with MIND_BENCH_JSON set appends an entry to that
// trajectory file (entry label via MIND_BENCH_LABEL; BENCH_microbench.json is the
// committed one) so the perf trajectory of the O(1) access pipeline is recorded across
// PRs. Schema documented in bench/README.md.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/blade/dram_cache.h"
#include "src/common/rng.h"
#include "src/controlplane/allocator.h"
#include "src/core/channel_group.h"
#include "src/core/mind.h"
#include "src/dataplane/directory.h"
#include "src/dataplane/protection.h"
#include "src/dataplane/tcam.h"
#include "src/dataplane/translation.h"

namespace mind {
namespace {

void BM_TcamLookup(benchmark::State& state) {
  Tcam<int> tcam(nullptr);
  Rng rng(1);
  for (int i = 0; i < state.range(0); ++i) {
    (void)tcam.InsertRange(static_cast<uint64_t>(i) << 16, 16, i);
  }
  uint64_t key = 0;
  for (auto _ : state) {
    key = (key + 0x9137) % (static_cast<uint64_t>(state.range(0)) << 16);
    benchmark::DoNotOptimize(tcam.Lookup(key));
  }
}
BENCHMARK(BM_TcamLookup)->Arg(64)->Arg(1024)->Arg(16384);

// LPM over a realistic mix of prefix lengths: a few blade-scale ranges, many 16 KB region
// entries, page-sized migration outliers, plus nested outliers overriding broader ranges —
// the population the switch TCAM actually holds. Exercises the active-prefix bit-scan path.
void BM_TcamLpmMixedPrefixes(benchmark::State& state) {
  Tcam<int> tcam(nullptr);
  const int n = static_cast<int>(state.range(0));
  for (int i = 0; i < 4; ++i) {  // Blade-scale 1 GB ranges.
    (void)tcam.InsertRange(static_cast<uint64_t>(i) << 30, 30, 1000 + i);
  }
  for (int i = 0; i < n; ++i) {  // 16 KB region entries spread across the blades.
    (void)tcam.InsertRange(static_cast<uint64_t>(i) << 14, 14, i);
  }
  for (int i = 0; i < n / 8; ++i) {  // 4 KB outliers nested inside every 8th region.
    (void)tcam.InsertRange(static_cast<uint64_t>(i) << 17, 12, 2000 + i);
  }
  uint64_t key = 0;
  for (auto _ : state) {
    key = (key + 0x9137) % (static_cast<uint64_t>(n) << 14);
    benchmark::DoNotOptimize(tcam.Lookup(key));
  }
}
BENCHMARK(BM_TcamLpmMixedPrefixes)->Arg(1024)->Arg(16384);

void BM_TranslationLookup(benchmark::State& state) {
  AddressTranslator t(nullptr);
  for (int i = 0; i < 8; ++i) {
    (void)t.AddBladeRange(static_cast<MemoryBladeId>(i), static_cast<uint64_t>(i) << 33,
                          1ull << 33);
  }
  uint64_t va = 0;
  for (auto _ : state) {
    va = (va + 0x1003'7fff) % (8ull << 33);
    benchmark::DoNotOptimize(t.Translate(va));
  }
}
BENCHMARK(BM_TranslationLookup);

void BM_ProtectionCheck(benchmark::State& state) {
  ProtectionTable p(nullptr);
  for (int d = 0; d < 16; ++d) {
    for (int i = 0; i < state.range(0) / 16; ++i) {
      (void)p.Grant(static_cast<ProtDomainId>(d),
                    (static_cast<uint64_t>(d) << 40) + (static_cast<uint64_t>(i) << 24),
                    1 << 20, PermClass::kReadWrite);
    }
  }
  uint64_t i = 0;
  for (auto _ : state) {
    ++i;
    benchmark::DoNotOptimize(
        p.Check(static_cast<ProtDomainId>(i % 16),
                ((i % 16) << 40) + ((i % (static_cast<uint64_t>(state.range(0)) / 16)) << 24)));
  }
}
BENCHMARK(BM_ProtectionCheck)->Arg(256)->Arg(4096);

void BM_DirectoryLookup(benchmark::State& state) {
  CacheDirectory dir(static_cast<uint32_t>(state.range(0)) + 1);
  for (int i = 0; i < state.range(0); ++i) {
    (void)dir.Create(static_cast<uint64_t>(i) << 14, 14);
  }
  uint64_t va = 0;
  for (auto _ : state) {
    va = (va + 0x4ab7) % (static_cast<uint64_t>(state.range(0)) << 14);
    benchmark::DoNotOptimize(dir.Lookup(va));
  }
}
BENCHMARK(BM_DirectoryLookup)->Arg(1024)->Arg(30000);

void BM_DirectorySplitMerge(benchmark::State& state) {
  CacheDirectory dir(64);
  (void)dir.Create(0, 21);  // One 2 MB region.
  for (auto _ : state) {
    benchmark::DoNotOptimize(dir.Split(0));
    benchmark::DoNotOptimize(dir.MergeWithBuddy(0, 21));
  }
}
BENCHMARK(BM_DirectorySplitMerge);

// One bounded-splitting epoch over a directory of N 4 KB entries with no buddies, at 50%
// utilization: merging is on, but nothing can split (page floor) or merge (no buddy). The
// same 100 entries take a false invalidation every epoch, the 100 lookups included. The
// cost should follow those 100 entries, not N.
void BM_SplittingEpoch(benchmark::State& state) {
  const auto n = static_cast<uint64_t>(state.range(0));
  CacheDirectory dir(static_cast<uint32_t>(2 * n));
  BoundedSplittingConfig cfg;
  cfg.epoch_length = 5 * kMillisecond;
  BoundedSplitting bs(&dir, cfg);
  bs.OnAllocationChanged(2 * n * kPageSize);
  for (uint64_t i = 0; i < n; ++i) {
    (void)dir.Create(2 * i * kPageSize, kPageShift);  // The odd page, its buddy, stays absent.
  }
  std::vector<VirtAddr> active;
  for (uint64_t i = 0; i < n; i += n / 100) {
    active.push_back(2 * i * kPageSize);
  }
  SimTime now = 0;
  for (auto _ : state) {
    for (VirtAddr va : active) {
      dir.AddFalseInvalidations(*dir.Lookup(va), 1);
    }
    now += cfg.epoch_length;
    bs.RunEpoch(now);
  }
  benchmark::DoNotOptimize(bs.stats());
}
BENCHMARK(BM_SplittingEpoch)->Arg(1000)->Arg(30000)->Unit(benchmark::kMicrosecond);

void BM_AllocatorAllocFree(benchmark::State& state) {
  BalancedAllocator alloc;
  for (int i = 0; i < 8; ++i) {
    (void)alloc.AddBlade(static_cast<MemoryBladeId>(i), static_cast<uint64_t>(i) << 33,
                         1ull << 33);
  }
  for (auto _ : state) {
    auto vma = alloc.Allocate(1 << 20);
    benchmark::DoNotOptimize(vma);
    (void)alloc.Free(*vma);
  }
}
BENCHMARK(BM_AllocatorAllocFree);

void BM_DramCacheHit(benchmark::State& state) {
  DramCache cache(1 << 16, false);
  for (uint64_t p = 0; p < (1 << 16); ++p) {
    (void)cache.Insert(p, false);
  }
  uint64_t p = 0;
  for (auto _ : state) {
    p = (p + 7919) % (1 << 16);
    benchmark::DoNotOptimize(cache.Lookup(p));
  }
}
BENCHMARK(BM_DramCacheHit);

// The per-blade group merge-commit walk (src/core/channel_group.h) at small and large
// lane counts: 4 lanes exercises the branchy linear argmin scan, 32 lanes the
// GroupMergeLoserTree (crossover at kGroupMergeLinearScanMax). Per-op (non-uniform)
// latencies with jitter so the winner genuinely alternates between lanes, as live merges
// do; one iteration merge-commits every lane's full run.
void BM_GroupMerge(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  constexpr size_t kOpsPerLane = 64;
  Rng rng(29);
  std::vector<std::vector<Completion>> comps(n, std::vector<Completion>(kOpsPerLane));
  std::vector<GroupLane> lanes(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < kOpsPerLane; ++j) {
      comps[i][j].latency = 80 + rng.NextBelow(64);
    }
    lanes[i].member = i;
    lanes[i].thread_index = i;
    lanes[i].clock = rng.NextBelow(32);
    lanes[i].uniform_latency = 0;  // Per-op latencies: the merge pays full compare cost.
    lanes[i].comps = comps[i].data();
    lanes[i].count = kOpsPerLane;
  }
  Histogram hist;
  uint64_t total = 0;
  for (auto _ : state) {
    total += GroupMergeCommit(
        lanes.data(), n, /*horizon=*/1ull << 40, /*think=*/10, hist,
        [](const GroupLane& ln, size_t idx) { return ln.comps[idx].latency; },
        [](GroupLane&, size_t) {});
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(static_cast<int64_t>(total));
}
BENCHMARK(BM_GroupMerge)->Arg(4)->Arg(32);

void BM_ZipfianNext(benchmark::State& state) {
  Rng rng(7);
  ZipfianGenerator zipf(1 << 20, 0.99);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Next(rng));
  }
}
BENCHMARK(BM_ZipfianNext);

// Times Access's local-hit path (DramCache::Lookup): one thread rewrites one cached page.
void BM_RackLocalHit(benchmark::State& state) {
  RackConfig cfg;
  cfg.num_compute_blades = 1;
  cfg.num_memory_blades = 1;
  Rack rack(cfg);
  const ProcessId pid = *rack.Exec("bm");
  const ProtDomainId pdid = *rack.controller().PdidOf(pid);
  const ThreadId tid = rack.SpawnThread(pid, 0)->tid;
  const VirtAddr va = *rack.Mmap(pid, 1 << 20, PermClass::kReadWrite);
  SimTime now = rack.Access({tid, 0, pdid, va, AccessType::kWrite, 0}).completion;
  for (auto _ : state) {
    const auto r = rack.Access({tid, 0, pdid, va, AccessType::kWrite, now});
    now = r.completion;
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_RackLocalHit);

void BM_RackRemoteMiss(benchmark::State& state) {
  RackConfig cfg;
  cfg.num_compute_blades = 1;
  cfg.num_memory_blades = 8;
  cfg.compute_cache_bytes = 64 * kPageSize;  // Tiny: every access misses.
  Rack rack(cfg);
  const ProcessId pid = *rack.Exec("bm");
  const ProtDomainId pdid = *rack.controller().PdidOf(pid);
  const ThreadId tid = rack.SpawnThread(pid, 0)->tid;
  const VirtAddr va = *rack.Mmap(pid, 1ull << 30, PermClass::kReadWrite);
  SimTime now = 0;
  uint64_t page = 0;
  for (auto _ : state) {
    page = (page + 257) % (1 << 18);
    const auto r = rack.Access({tid, 0, pdid, va + PageToAddr(page), AccessType::kRead, now});
    now = r.completion;
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_RackRemoteMiss);

// ---------------------------------------------------------------------------
// BENCH_microbench.json emitter: appends one labeled entry per run so the perf
// trajectory of the access-pipeline structures accumulates across PRs.
// ---------------------------------------------------------------------------

// BenchResult and the trajectory emitter live in bench_util.h, shared with the
// wall-clock figure bench (fig_replay_throughput).
using bench::BenchResult;

// google-benchmark renamed Run::error_occurred to the Run::skipped enum in 1.8.0; probe
// whichever member this library version has (overload on int is preferred, so the
// error_occurred spelling wins where both could resolve).
template <typename R>
auto RunFailed(const R& run, int) -> decltype(static_cast<bool>(run.error_occurred)) {
  return run.error_occurred;
}
template <typename R>
auto RunFailed(const R& run, long) -> decltype(static_cast<bool>(run.skipped)) {
  return static_cast<bool>(run.skipped);  // Any skip (message or error) excludes the run.
}

class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& report) override {
    for (const auto& run : report) {
      if (RunFailed(run, 0)) {
        continue;
      }
      results.push_back(
          BenchResult{run.benchmark_name(), run.GetAdjustedRealTime(),
                      static_cast<uint64_t>(run.iterations)});
    }
    ConsoleReporter::ReportRuns(report);
  }

  std::vector<BenchResult> results;
};

}  // namespace
}  // namespace mind

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  mind::CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  mind::bench::AppendTrajectoryEntry(reporter.results);
  benchmark::Shutdown();
  return 0;
}
