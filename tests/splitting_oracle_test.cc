// Oracle tests for the incremental bounded-splitting epoch (§5).
//
// BoundedSplitting::RunEpoch decides from bookkeeping the directory keeps as entries change
// (running total, epoch-active list, quiet stamps, merge watch-set). `ThreePassEpoch` below
// is the epoch it replaced, kept verbatim: three walks of the whole directory and its own
// per-base quiet-streak table. Two tests hold the incremental epoch to it:
//   - RandomOpsMatchThreePassEpoch drives both with the same random directory operations
//     for hundreds of epochs and compares every decision, the stats and the directories;
//   - RackEpochsMatchFullScan replays a memcached-shaped trace on a small rack and, at each
//     epoch boundary, checks the epoch's merges and splits against a full scan taken just
//     before it. Only the rack commits coherence state, so only this test sees a pair
//     refused for incompatible states become mergeable.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/baselines/mind_system.h"
#include "src/common/rng.h"
#include "src/controlplane/bounded_splitting.h"
#include "src/dataplane/directory.h"
#include "src/obs/trace.h"
#include "src/workload/generators.h"
#include "src/workload/replay.h"

namespace mind {
namespace {

constexpr uint64_t kMiB = 1024 * 1024;

// The three-pass epoch, as it ran before the directory kept epoch bookkeeping.
class ThreePassEpoch {
 public:
  ThreePassEpoch(CacheDirectory* directory, BoundedSplittingConfig config)
      : directory_(directory), config_(config), c_(config.initial_c) {}

  void OnAllocationChanged(uint64_t total_allocated_bytes) {
    base_region_count_ =
        (total_allocated_bytes + config_.base_region_size - 1) / config_.base_region_size;
  }
  // A created entry starts its quiet streak at zero.
  void OnCreate(VirtAddr base) { quiet_epochs_[base] = 0; }
  [[nodiscard]] uint32_t quiet_epochs(VirtAddr base) { return quiet_epochs_[base]; }
  void SetTraceSink(TraceSink* sink) { trace_ = sink; }
  [[nodiscard]] const BoundedSplittingStats& stats() const { return stats_; }

  void RunEpoch(SimTime now) {
    ++stats_.epochs;

    // Pass 1: gather epoch totals.
    uint64_t total_false = 0;
    directory_->ForEach([&](DirectoryEntry& e) {
      total_false += e.epoch_false_invalidations;
    });
    stats_.last_epoch_false_invalidations = total_false;

    const uint64_t n = std::max<uint64_t>(base_region_count_, 1);
    const double t = static_cast<double>(total_false) / (c_ * static_cast<double>(n));
    stats_.last_threshold = t;

    const uint32_t min_log2 = Log2Floor(config_.min_region_size);
    const uint32_t max_log2 = Log2Floor(config_.base_region_size);

    // Pass 2: choose splits and merges.
    const bool merging_active = directory_->utilization() > config_.merge_low_water;
    std::vector<VirtAddr> split_candidates;
    std::vector<VirtAddr> merge_candidates;
    directory_->ForEach([&](DirectoryEntry& e) {
      const auto f = static_cast<double>(e.epoch_false_invalidations);
      if (f > t && f >= 1.0 && e.size_log2 > min_log2) {
        split_candidates.push_back(e.base);
        return;
      }
      if (!merging_active || e.size_log2 >= max_log2) {
        return;
      }
      const VirtAddr buddy_base = e.base ^ e.size();
      if (buddy_base < e.base) {
        return;
      }
      const DirectoryEntry* buddy = directory_->Lookup(buddy_base);
      if (buddy == nullptr || buddy->base != buddy_base || buddy->size_log2 != e.size_log2) {
        return;
      }
      if (quiet_epochs_[e.base] < config_.merge_quiet_epochs ||
          quiet_epochs_[buddy->base] < config_.merge_quiet_epochs) {
        return;
      }
      const double combined = f + static_cast<double>(buddy->epoch_false_invalidations);
      if (combined <= std::max(config_.merge_fraction * t, 0.0)) {
        merge_candidates.push_back(e.base);
      }
    });

    for (VirtAddr base : merge_candidates) {
      if (directory_->MergeWithBuddy(base, max_log2).ok()) {
        ++stats_.merges;
        if (trace_ != nullptr) {
          TraceEvent ev;
          ev.kind = TraceEventKind::kDirectoryMerge;
          ev.clock = now;
          ev.a = base;
          const DirectoryEntry* merged = directory_->Lookup(base);
          ev.b = merged != nullptr ? merged->size_log2 : 0;
          trace_->Emit(ev);
        }
      }
    }

    for (VirtAddr base : split_candidates) {
      if (directory_->utilization() >= config_.target_utilization) {
        ++stats_.split_failures;
        continue;
      }
      const DirectoryEntry* pre = directory_->Lookup(base);
      const uint64_t pre_log2 = pre != nullptr ? pre->size_log2 : 0;
      if (directory_->Split(base).ok()) {
        ++stats_.splits;
        // The upper half copied the parent, quiet streak included.
        quiet_epochs_[base + (uint64_t{1} << (pre_log2 - 1))] = quiet_epochs_[base];
        if (trace_ != nullptr) {
          TraceEvent ev;
          ev.kind = TraceEventKind::kDirectorySplit;
          ev.clock = now;
          ev.a = base;
          ev.b = pre_log2;
          trace_->Emit(ev);
        }
      } else {
        ++stats_.split_failures;
      }
    }

    // Pass 3: update quiet streaks, then reset epoch counters for the next window.
    directory_->ForEach([&](DirectoryEntry& e) {
      uint32_t& quiet = quiet_epochs_[e.base];
      quiet = e.epoch_false_invalidations == 0 ? quiet + 1 : 0;
      e.epoch_false_invalidations = 0;
    });

    const double util = directory_->utilization();
    if (util >= config_.target_utilization) {
      c_ = std::max(c_ / 2.0, config_.min_c);
    } else if (util < config_.low_utilization) {
      c_ = std::min(c_ * 2.0, config_.max_c);
    }
    stats_.current_c = c_;
  }

 private:
  CacheDirectory* directory_;
  BoundedSplittingConfig config_;
  double c_;
  uint64_t base_region_count_ = 0;
  BoundedSplittingStats stats_;
  TraceSink* trace_ = nullptr;
  std::unordered_map<VirtAddr, uint32_t> quiet_epochs_;
};

struct Decision {
  TraceEventKind kind;
  VirtAddr base;
  uint64_t size_log2;
  friend bool operator==(const Decision&, const Decision&) = default;
};

std::vector<Decision> Decisions(const TraceSink& sink) {
  std::vector<Decision> out;
  sink.ForEach([&](const TraceEvent& e) { out.push_back(Decision{e.kind, e.a, e.b}); });
  return out;
}

void ExpectStatsEqual(const BoundedSplittingStats& got, const BoundedSplittingStats& want) {
  EXPECT_EQ(got.epochs, want.epochs);
  EXPECT_EQ(got.splits, want.splits);
  EXPECT_EQ(got.merges, want.merges);
  EXPECT_EQ(got.split_failures, want.split_failures);
  EXPECT_EQ(got.last_threshold, want.last_threshold);
  EXPECT_EQ(got.current_c, want.current_c);
  EXPECT_EQ(got.last_epoch_false_invalidations, want.last_epoch_false_invalidations);
}

// Entry by entry: geometry, coherence state, epoch count and quiet streak. Also checks
// the running total against a sum over the entries.
void ExpectDirectoriesEqual(CacheDirectory& got, CacheDirectory& want, ThreePassEpoch& oracle) {
  std::vector<const DirectoryEntry*> g;
  std::vector<const DirectoryEntry*> w;
  uint64_t total = 0;
  got.ForEach([&](DirectoryEntry& e) {
    g.push_back(&e);
    total += e.epoch_false_invalidations;
  });
  want.ForEach([&](DirectoryEntry& e) { w.push_back(&e); });
  EXPECT_EQ(got.epoch_false_invalidations(), total);
  ASSERT_EQ(g.size(), w.size());
  for (size_t i = 0; i < g.size(); ++i) {
    SCOPED_TRACE(w[i]->base);
    EXPECT_EQ(g[i]->base, w[i]->base);
    EXPECT_EQ(g[i]->size_log2, w[i]->size_log2);
    EXPECT_EQ(g[i]->state, w[i]->state);
    EXPECT_EQ(g[i]->owner, w[i]->owner);
    EXPECT_EQ(g[i]->sharers, w[i]->sharers);
    EXPECT_EQ(g[i]->epoch_false_invalidations, w[i]->epoch_false_invalidations);
    EXPECT_EQ(got.QuietEpochs(*g[i]), oracle.quiet_epochs(w[i]->base));
  }
}

// The same random operation applied to both directories.
class TwinDirectories {
 public:
  TwinDirectories(uint32_t slots, uint64_t seed) : got_(slots), want_(slots), rng_(seed) {}

  CacheDirectory& got() { return got_; }
  CacheDirectory& want() { return want_; }

  void Create(ThreePassEpoch& oracle) { Create(oracle, RandomAddress()); }

  void Create(ThreePassEpoch& oracle, VirtAddr va) {
    const uint32_t log2 = 12 + static_cast<uint32_t>(rng_.NextBelow(5));  // 4-64 KB.
    const VirtAddr base = AlignDown(va, uint64_t{1} << log2);
    auto g = got_.Create(base, log2);
    auto w = want_.Create(base, log2);
    ASSERT_EQ(g.ok(), w.ok());
    if (w.ok()) {
      oracle.OnCreate(base);
    } else {
      EXPECT_EQ(g.status().code(), w.status().code());
    }
  }

  void Remove() {
    if (want_.entry_count() != 0) {
      const VirtAddr base = RandomEntry().base;
      EXPECT_TRUE(got_.Remove(base).ok());
      EXPECT_TRUE(want_.Remove(base).ok());
    }
  }

  // Capacity eviction's cheap path: fold a victim into its buddy between epochs.
  void EvictionMerge() {
    if (want_.entry_count() != 0) {
      const VirtAddr base = RandomEntry().base;
      EXPECT_EQ(got_.MergeWithBuddy(base, kMaxLog2).code(),
                want_.MergeWithBuddy(base, kMaxLog2).code());
    }
  }

  // Half on a few hot pages, so hot regions keep splitting down and their upper halves
  // split again; an uncovered hot page gets a region first, as the rack's fault path does.
  void FalseInvalidations(ThreePassEpoch& oracle) {
    const bool hot = rng_.NextBelow(2) != 0;
    const VirtAddr va = hot ? hot_[rng_.NextBelow(hot_.size())] : RandomAddress();
    if (hot && want_.Lookup(va) == nullptr) {
      Create(oracle, va);
    }
    DirectoryEntry* w = want_.Lookup(va);
    if (w == nullptr) {
      return;  // Full, or overlapping an entry of another size.
    }
    const uint64_t n = 1 + rng_.NextBelow(40);
    got_.AddFalseInvalidations(*got_.Lookup(va), n);
    want_.AddFalseInvalidations(*w, n);
  }

  // What Rack::Access step 8 does: rewrite the coherence state, then watch the entry.
  void CommitState() {
    if (want_.entry_count() == 0) {
      return;
    }
    DirectoryEntry* w = &RandomEntry();
    DirectoryEntry* g = got_.Lookup(w->base);
    const auto blade = static_cast<ComputeBladeId>(rng_.NextBelow(4));
    switch (rng_.NextBelow(3)) {
      case 0:
        w->state = MsiState::kInvalid;
        w->owner = kInvalidComputeBlade;
        w->sharers = 0;
        break;
      case 1:
        w->state = MsiState::kShared;
        w->owner = kInvalidComputeBlade;
        w->sharers = BladeBit(blade) | static_cast<SharerMask>(rng_.NextBelow(16));
        break;
      default:
        w->state = MsiState::kModified;
        w->owner = blade;
        w->sharers = BladeBit(blade);
        break;
    }
    g->state = w->state;
    g->owner = w->owner;
    g->sharers = w->sharers;
    got_.Watch(*g);
  }

  static constexpr uint64_t kSpace = 8 * kMiB;  // Four 2 MB base regions.
  static constexpr uint32_t kMaxLog2 = 21;

  // A new set of hot pages, so regions split for a phase and merge back after it.
  void MoveHotPages() {
    for (VirtAddr& page : hot_) {
      page = AlignDown(RandomAddress(), kPageSize);
    }
  }

 private:
  VirtAddr RandomAddress() { return rng_.NextBelow(kSpace); }

  DirectoryEntry& RandomEntry() {
    uint64_t skip = rng_.NextBelow(want_.entry_count());
    DirectoryEntry* pick = nullptr;
    want_.ForEach([&](DirectoryEntry& e) {
      if (skip-- == 0) {
        pick = &e;
      }
    });
    return *pick;
  }

  CacheDirectory got_;
  CacheDirectory want_;
  Rng rng_;
  std::array<VirtAddr, 6> hot_{};
};

TEST(SplittingOracle, RandomOpsMatchThreePassEpoch) {
  struct Case {
    uint32_t merge_quiet_epochs;
    double merge_fraction;
  };
  uint64_t merging_epochs = 0;
  uint64_t idle_epochs = 0;
  uint64_t splits = 0;
  uint64_t merges = 0;
  uint64_t split_failures = 0;
  for (const Case& c : {Case{3, 0.5}, Case{1, 2.0}, Case{0, 0.5}}) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE(::testing::Message() << "quiet " << c.merge_quiet_epochs << " fraction "
                                        << c.merge_fraction << " seed " << seed);
      BoundedSplittingConfig cfg;
      cfg.initial_region_size = 16 * 1024;
      cfg.merge_quiet_epochs = c.merge_quiet_epochs;
      cfg.merge_fraction = c.merge_fraction;
      TwinDirectories twin(/*slots=*/96, seed);
      Rng phase_rng(seed * 7919);

      // Some entries exist before the splitters attach.
      ThreePassEpoch oracle(&twin.want(), cfg);
      for (int i = 0; i < 12; ++i) {
        twin.Create(oracle);
      }
      BoundedSplitting incremental(&twin.got(), cfg);
      incremental.OnAllocationChanged(TwinDirectories::kSpace);
      oracle.OnAllocationChanged(TwinDirectories::kSpace);

      for (int epoch = 1; epoch <= 400; ++epoch) {
        // Alternating fill and drain phases push utilization up to the split target and
        // down across the merge low-water mark, so merging switches on and off.
        const bool fill = (epoch / 20) % 2 == 0;
        if (epoch % 20 == 1) {
          twin.MoveHotPages();
        }
        const uint64_t create = fill ? 30 : 2;
        const uint64_t remove = fill ? 6 : 40;
        for (int op = 0; op < 24; ++op) {
          const uint64_t r = phase_rng.NextBelow(100);
          if (r < create) {
            twin.Create(oracle);
          } else if (r < create + remove) {
            twin.Remove();
          } else if (r < create + remove + 7) {
            twin.EvictionMerge();
          } else if (r < create + remove + 22) {
            twin.CommitState();
          } else {
            twin.FalseInvalidations(oracle);
          }
        }
        if (twin.got().utilization() > cfg.merge_low_water) {
          ++merging_epochs;
        } else {
          ++idle_epochs;
        }

        TraceSink got_sink(1 << 12);
        TraceSink want_sink(1 << 12);
        incremental.SetTraceSink(&got_sink);
        oracle.SetTraceSink(&want_sink);
        const SimTime now = static_cast<SimTime>(epoch) * cfg.epoch_length;
        incremental.RunEpoch(now);
        oracle.RunEpoch(now);
        ASSERT_EQ(Decisions(got_sink), Decisions(want_sink)) << "epoch " << epoch;
        ExpectStatsEqual(incremental.stats(), oracle.stats());
        ExpectDirectoriesEqual(twin.got(), twin.want(), oracle);
        if (::testing::Test::HasFailure()) {
          FAIL() << "diverged at epoch " << epoch;
        }
      }
      splits += oracle.stats().splits;
      merges += oracle.stats().merges;
      split_failures += oracle.stats().split_failures;
    }
  }
  // The runs exercised what they are meant to.
  EXPECT_GT(merging_epochs, 1000u);
  EXPECT_GT(idle_epochs, 500u);
  EXPECT_GT(splits, 2000u);
  EXPECT_GT(merges, 1000u);
  EXPECT_GT(split_failures, 300u);
}

// Splits and merges the coming epoch boundary must perform, from a full scan of the live
// directory (pass 2 of ThreePassEpoch, with the directory's quiet streaks) and the
// capacity gate the splits meet after the merges free their slots.
std::vector<Decision> FullScanDecisions(CacheDirectory& dir, const BoundedSplitting& bs) {
  const BoundedSplittingConfig& cfg = bs.config();
  uint64_t total_false = 0;
  dir.ForEach([&](DirectoryEntry& e) { total_false += e.epoch_false_invalidations; });
  EXPECT_EQ(dir.epoch_false_invalidations(), total_false);
  const double t = static_cast<double>(total_false) /
                   (bs.current_c() * static_cast<double>(std::max<uint64_t>(
                                         bs.base_region_count(), 1)));
  const uint32_t min_log2 = Log2Floor(cfg.min_region_size);
  const uint32_t max_log2 = Log2Floor(cfg.base_region_size);
  const bool merging_active = dir.utilization() > cfg.merge_low_water;

  std::vector<Decision> merges;
  std::vector<Decision> splits;
  dir.ForEach([&](DirectoryEntry& e) {
    const auto f = static_cast<double>(e.epoch_false_invalidations);
    if (f > t && f >= 1.0 && e.size_log2 > min_log2) {
      splits.push_back(Decision{TraceEventKind::kDirectorySplit, e.base, e.size_log2});
      return;
    }
    if (!merging_active || e.size_log2 >= max_log2 || (e.base & e.size()) != 0) {
      return;
    }
    const DirectoryEntry* buddy = dir.Lookup(e.base + e.size());
    if (buddy == nullptr || buddy->base != e.base + e.size() ||
        buddy->size_log2 != e.size_log2 || dir.QuietEpochs(e) < cfg.merge_quiet_epochs ||
        dir.QuietEpochs(*buddy) < cfg.merge_quiet_epochs) {
      return;
    }
    const double combined = f + static_cast<double>(buddy->epoch_false_invalidations);
    if (combined <= std::max(cfg.merge_fraction * t, 0.0) &&
        CacheDirectory::StatesCompatible(e, *buddy)) {
      merges.push_back(Decision{TraceEventKind::kDirectoryMerge, e.base, e.size_log2 + 1});
    }
  });
  std::vector<Decision> out = merges;
  uint64_t used = dir.entry_count() - merges.size();
  for (const Decision& s : splits) {
    if (static_cast<double>(used) / static_cast<double>(dir.capacity()) <
        cfg.target_utilization) {
      out.push_back(s);
      ++used;
    }
  }
  return out;
}

TEST(SplittingOracle, RackEpochsMatchFullScan) {
  WorkloadSpec spec;
  spec.name = "memcached-small";
  spec.num_blades = 4;
  spec.threads_per_blade = 1;
  spec.private_pages_per_thread = 256;
  spec.private_pattern = Pattern::kUniform;
  spec.private_write_fraction = 0.5;
  spec.shared_pages = 16'384;
  spec.shared_pattern = Pattern::kZipfian;
  spec.zipf_theta = 0.99;
  spec.shared_access_fraction = 0.95;
  spec.shared_write_fraction = 0.5;
  spec.metadata_pages = 64;
  spec.metadata_touch_prob = 0.4;
  spec.accesses_per_thread = 12'000;
  spec.think_time = 200;
  spec.seed = 17;
  const WorkloadTraces traces = GenerateTraces(spec);

  RackConfig cfg;
  cfg.num_compute_blades = 4;
  cfg.num_memory_blades = 2;
  cfg.memory_blade_capacity = 1ull << 30;
  cfg.compute_cache_bytes = 8ull << 20;
  cfg.directory_slots = 2048;
  cfg.splitting.epoch_length = kMillisecond;
  MindSystem sys(cfg);
  Rack& rack = sys.rack();
  BoundedSplitting& bs = rack.bounded_splitting();

  // Setup's placement: 64 MB allocation chunks per segment, thread i on blade i % blades.
  constexpr uint64_t kChunk = ReplayEngine::kChunkPages;
  std::vector<std::vector<VirtAddr>> chunk_bases(traces.segments.size());
  for (size_t s = 0; s < traces.segments.size(); ++s) {
    for (uint64_t first = 0; first < traces.segments[s].pages; first += kChunk) {
      auto base = sys.Alloc(std::min(kChunk, traces.segments[s].pages - first) * kPageSize);
      ASSERT_TRUE(base.ok());
      chunk_bases[s].push_back(*base);
    }
  }
  const size_t n = traces.threads.size();
  std::vector<ThreadId> tids(n);
  for (size_t i = 0; i < n; ++i) {
    auto tid = sys.RegisterThread(static_cast<ComputeBladeId>(i % spec.num_blades));
    ASSERT_TRUE(tid.ok());
    tids[i] = *tid;
  }

  std::vector<SimTime> clock(n, 0);
  std::vector<size_t> next(n, 0);
  for (;;) {
    size_t pick = n;
    for (size_t i = 0; i < n; ++i) {
      if (next[i] < traces.threads[i].ops.size() && (pick == n || clock[i] < clock[pick])) {
        pick = i;
      }
    }
    if (pick == n) {
      break;
    }
    while (bs.next_epoch_end() <= clock[pick]) {
      const std::vector<Decision> want = FullScanDecisions(rack.directory(), bs);
      TraceSink sink(1 << 14);
      bs.SetTraceSink(&sink);
      rack.AdvanceSplittingEpochs(bs.next_epoch_end());
      bs.SetTraceSink(nullptr);
      ASSERT_EQ(Decisions(sink), want) << "epoch " << bs.stats().epochs;
    }
    const TraceOp& op = traces.threads[pick].ops[next[pick]++];
    const VirtAddr va = chunk_bases[op.segment][op.page / kChunk] + PageToAddr(op.page % kChunk);
    const AccessResult r = sys.Access(tids[pick], static_cast<ComputeBladeId>(pick % spec.num_blades),
                                      va, op.type, clock[pick]);
    clock[pick] += r.latency + traces.think_time;
  }
  // The replay crossed enough boundaries, with enough churn, to mean something.
  EXPECT_GT(bs.stats().epochs, 100u);
  EXPECT_GT(bs.stats().merges, 1000u);
  EXPECT_GT(bs.stats().splits, 1000u);
}

}  // namespace
}  // namespace mind
