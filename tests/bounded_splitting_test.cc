// Tests for the Bounded Splitting algorithm (§5): threshold-driven splits, cold merges,
// dynamic c adjustment, the Theorem 5.1 bound, and the split/merge equilibrium.
#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/controlplane/bounded_splitting.h"
#include "src/dataplane/directory.h"

namespace mind {
namespace {

constexpr uint64_t kMiB = 1024 * 1024;

BoundedSplittingConfig Config() {
  BoundedSplittingConfig c;
  c.epoch_length = 100 * kMillisecond;
  c.initial_region_size = 16 * 1024;
  c.base_region_size = 2 * kMiB;
  return c;
}

TEST(BoundedSplitting, HotRegionSplits) {
  CacheDirectory dir(1000);
  BoundedSplitting bs(&dir, Config());
  bs.OnAllocationChanged(8 * kMiB);  // N = 4 base regions.

  auto hot = dir.Create(0x0, 16);  // 64 KB region.
  ASSERT_TRUE(hot.ok());
  dir.AddFalseInvalidations(**hot, 100);
  auto cold = dir.Create(0x200000, 16);
  ASSERT_TRUE(cold.ok());
  dir.AddFalseInvalidations(**cold, 0);

  bs.RunEpoch(100 * kMillisecond);
  // Threshold t = 100 / (1 * 4) = 25; the hot region (f=100 > 25) splits once.
  EXPECT_GT(bs.stats().last_threshold, 0.0);
  EXPECT_EQ(bs.stats().splits, 1u);
  EXPECT_NE(dir.Lookup(0x8000), nullptr);  // Upper half exists separately.
  EXPECT_EQ(dir.Lookup(0x0)->size(), 0x8000u);
}

TEST(BoundedSplitting, SplitStopsAtPageSize) {
  CacheDirectory dir(1000);
  BoundedSplitting bs(&dir, Config());
  bs.OnAllocationChanged(2 * kMiB);
  ASSERT_TRUE(dir.Create(0x0, 12).ok());  // Already 4 KB.
  dir.AddFalseInvalidations(*dir.Lookup(0x0), 1000);
  bs.RunEpoch(100 * kMillisecond);
  EXPECT_EQ(bs.stats().splits, 0u);
  EXPECT_EQ(dir.Lookup(0x0)->size(), kPageSize);
}

TEST(BoundedSplitting, RepeatedEpochsConvergeBelowThreshold) {
  // A 2 MB region whose false invalidations halve with each split (splitting localizes
  // the hot page) must stop splitting once below threshold.
  CacheDirectory dir(1000);
  BoundedSplitting bs(&dir, Config());
  bs.OnAllocationChanged(64 * kMiB);  // N = 32.

  ASSERT_TRUE(dir.Create(0x0, 21).ok());
  uint64_t f = 256;
  for (int epoch = 0; epoch < 12; ++epoch) {
    // Re-apply false invalidations to whichever region covers the hot page at 0x0.
    DirectoryEntry* e = dir.Lookup(0x0);
    ASSERT_NE(e, nullptr);
    dir.AddFalseInvalidations(*e, f);
    bs.RunEpoch(static_cast<SimTime>(epoch + 1) * 100 * kMillisecond);
    f = f > 2 ? f / 2 : f;
  }
  // The hot region shrank substantially but the directory stayed small.
  EXPECT_LT(dir.Lookup(0x0)->size(), 2 * kMiB);
  EXPECT_LT(dir.entry_count(), 32u);
}

TEST(BoundedSplitting, ColdBuddiesMergeUnderCapacityPressure) {
  CacheDirectory dir(8);  // Small SRAM: utilization high enough for merging to engage.
  auto cfg = Config();
  BoundedSplitting bs(&dir, cfg);
  bs.OnAllocationChanged(8 * kMiB);

  ASSERT_TRUE(dir.Create(0x0, 13).ok());
  ASSERT_TRUE(dir.Create(0x2000, 13).ok());
  // Some false invalidations elsewhere so t > 0 (merge needs a defined threshold), renewed
  // each epoch; the cold pair must stay quiet past the hysteresis window before merging.
  auto busy = dir.Create(0x400000, 14);
  ASSERT_TRUE(busy.ok());
  for (uint32_t epoch = 1; epoch <= 1 + bs.config().merge_quiet_epochs; ++epoch) {
    DirectoryEntry* hot = dir.Lookup(0x400000);
    ASSERT_NE(hot, nullptr);
    dir.AddFalseInvalidations(*hot, 400);
    bs.RunEpoch(epoch * 100 * kMillisecond);
  }
  // The two cold 8 KB buddies merged into one 16 KB region.
  DirectoryEntry* merged = dir.Lookup(0x2000);
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->base, 0x0u);
  EXPECT_EQ(merged->size(), 0x4000u);
  EXPECT_GE(bs.stats().merges, 1u);
}

TEST(BoundedSplitting, NoMergingWhenSlotsPlentiful) {
  // With a near-empty directory, merging would only recreate false invalidations on
  // hot-but-currently-quiet regions; it must stay off below the low-water mark.
  CacheDirectory dir(1000);
  BoundedSplitting bs(&dir, Config());
  bs.OnAllocationChanged(8 * kMiB);
  ASSERT_TRUE(dir.Create(0x0, 13).ok());
  ASSERT_TRUE(dir.Create(0x2000, 13).ok());
  bs.RunEpoch(100 * kMillisecond);
  EXPECT_EQ(dir.entry_count(), 2u);
  EXPECT_EQ(bs.stats().merges, 0u);
}

TEST(BoundedSplitting, HotBuddyBlocksMerge) {
  CacheDirectory dir(8);
  BoundedSplitting bs(&dir, Config());
  bs.OnAllocationChanged(8 * kMiB);
  auto lo = dir.Create(0x0, 13);
  auto hi = dir.Create(0x2000, 13);
  ASSERT_TRUE(lo.ok() && hi.ok());
  // Lower buddy is cold, upper buddy accounts for nearly all false invalidations: the
  // *combined* count must block the merge even though the proposer itself is cold.
  dir.AddFalseInvalidations(**hi, 100);
  auto other = dir.Create(0x400000, 14);
  dir.AddFalseInvalidations(**other, 4);
  bs.RunEpoch(100 * kMillisecond);
  EXPECT_NE(dir.Lookup(0x2000), nullptr);
  EXPECT_EQ(dir.Lookup(0x2000)->base, 0x2000u);  // Still separate.
}

TEST(BoundedSplitting, MergeCapAtBaseRegionSize) {
  CacheDirectory dir(1000);
  auto cfg = Config();
  cfg.base_region_size = 16 * 1024;  // Cap M at 16 KB for the test.
  BoundedSplitting bs(&dir, cfg);
  bs.OnAllocationChanged(kMiB);
  ASSERT_TRUE(dir.Create(0x0, 14).ok());      // 16 KB == cap.
  ASSERT_TRUE(dir.Create(0x4000, 14).ok());
  bs.RunEpoch(100 * kMillisecond);
  // Already at the cap: no merge.
  EXPECT_EQ(dir.entry_count(), 2u);
}

TEST(BoundedSplitting, CapacityPressureLowersC) {
  CacheDirectory dir(4);  // Tiny SRAM.
  BoundedSplitting bs(&dir, Config());
  bs.OnAllocationChanged(8 * kMiB);
  // Fill the directory with non-buddy entries (nothing mergeable); one distinctly hot.
  ASSERT_TRUE(dir.Create(0x0, 14).ok());
  ASSERT_TRUE(dir.Create(0x8000, 14).ok());
  ASSERT_TRUE(dir.Create(0x100000, 14).ok());
  ASSERT_TRUE(dir.Create(0x180000, 14).ok());
  dir.AddFalseInvalidations(*dir.Lookup(0x0), 3000);
  dir.AddFalseInvalidations(*dir.Lookup(0x8000), 10);

  const double c_before = bs.current_c();
  bs.RunEpoch(100 * kMillisecond);
  // Splits were refused (utilization at 100% >= 95% target) and c shrank, raising the
  // threshold so future epochs stop proposing splits the SRAM cannot hold.
  EXPECT_GT(bs.stats().split_failures, 0u);
  EXPECT_LT(bs.current_c(), c_before);
  EXPECT_LE(dir.entry_count(), 4u);
}

TEST(BoundedSplitting, LowUtilizationRaisesC) {
  CacheDirectory dir(30000);
  BoundedSplitting bs(&dir, Config());
  bs.OnAllocationChanged(8 * kMiB);
  ASSERT_TRUE(dir.Create(0x0, 14).ok());
  const double c_before = bs.current_c();
  bs.RunEpoch(100 * kMillisecond);
  // Plenty of free slots: c grows, lowering the threshold for finer-grained tracking.
  EXPECT_GT(bs.current_c(), c_before);
}

TEST(BoundedSplitting, MaybeRunEpochFiresOnBoundaries) {
  CacheDirectory dir(100);
  BoundedSplitting bs(&dir, Config());
  bs.OnAllocationChanged(2 * kMiB);
  bs.MaybeRunEpoch(50 * kMillisecond);
  EXPECT_EQ(bs.stats().epochs, 0u);
  bs.MaybeRunEpoch(250 * kMillisecond);  // Crosses epochs at 100 and 200 ms.
  EXPECT_EQ(bs.stats().epochs, 2u);
  bs.MaybeRunEpoch(260 * kMillisecond);
  EXPECT_EQ(bs.stats().epochs, 2u);
}

TEST(BoundedSplitting, ZeroEpochLengthNeverFires) {
  CacheDirectory dir(100);
  auto cfg = Config();
  cfg.epoch_length = 0;
  BoundedSplitting bs(&dir, cfg);
  ASSERT_TRUE(dir.Create(0x0, 14).ok());
  dir.AddFalseInvalidations(*dir.Lookup(0x0), 1'000'000);
  bs.MaybeRunEpoch(kSecond);
  EXPECT_EQ(bs.stats().epochs, 0u);
  EXPECT_EQ(dir.Lookup(0x0)->size(), 0x4000u);
}

TEST(BoundedSplitting, DisabledDoesNothing) {
  CacheDirectory dir(100);
  auto cfg = Config();
  cfg.enabled = false;
  BoundedSplitting bs(&dir, cfg);
  ASSERT_TRUE(dir.Create(0x0, 14).ok());
  dir.AddFalseInvalidations(*dir.Lookup(0x0), 1'000'000);
  bs.MaybeRunEpoch(kSecond);
  EXPECT_EQ(bs.stats().epochs, 0u);
  EXPECT_EQ(dir.Lookup(0x0)->size(), 0x4000u);
}

TEST(Theorem51, BoundFormula) {
  // S = (ceil(f/t) - 1) * (1 + log2 M), M in pages.
  const uint64_t m_pages = 512;  // 2 MB.
  EXPECT_EQ(BoundedSplitting::TheoremBound(0, 10.0, m_pages), 1u);    // f <= t: no split.
  EXPECT_EQ(BoundedSplitting::TheoremBound(10, 10.0, m_pages), 1u);   // Case 1.
  EXPECT_EQ(BoundedSplitting::TheoremBound(15, 10.0, m_pages),
            1u * (1 + 9));                                            // Case 2: k=2.
  EXPECT_EQ(BoundedSplitting::TheoremBound(35, 10.0, m_pages),
            3u * (1 + 9));                                            // Case 3: k=4.
}

TEST(Theorem51, EmpiricalSplitsNeverExceedBound) {
  // Property check: simulate adversarial per-epoch false-invalidation assignments against
  // one 2 MB base region and verify the realized sub-region count never exceeds the bound.
  Rng rng(2024);
  for (int trial = 0; trial < 20; ++trial) {
    CacheDirectory dir(100000);
    auto cfg = Config();
    cfg.initial_region_size = 2 * kMiB;  // Start at the base size M.
    cfg.merge_fraction = 0.0;            // Disable merging: worst case for entry count.
    BoundedSplitting bs(&dir, cfg);
    bs.OnAllocationChanged(2 * kMiB);  // N = 1.
    ASSERT_TRUE(dir.Create(0x0, 21).ok());

    const uint64_t total_f = 100 + rng.NextBelow(2000);
    uint64_t remaining = total_f;
    double max_t = 0.0;
    // Feed the total false-invalidation budget over several epochs, concentrated on the
    // region covering a random hot page each epoch (adversarial placement).
    for (int epoch = 0; epoch < 15 && remaining > 0; ++epoch) {
      const uint64_t this_epoch = std::min<uint64_t>(remaining, 50 + rng.NextBelow(300));
      DirectoryEntry* e = dir.Lookup(rng.NextBelow(512) * kPageSize);
      ASSERT_NE(e, nullptr);
      dir.AddFalseInvalidations(*e, this_epoch);
      remaining -= this_epoch;
      bs.RunEpoch(static_cast<SimTime>(epoch + 1) * cfg.epoch_length);
      max_t = std::max(max_t, bs.stats().last_threshold > 0 ? bs.stats().last_threshold : 0.0);
    }
    if (max_t <= 0.0) {
      continue;
    }
    // Theorem 5.1 with the *smallest* effective threshold (most permissive splitting).
    const uint64_t bound = BoundedSplitting::TheoremBound(
        total_f, std::max(bs.stats().last_threshold, 1e-9), 512);
    EXPECT_LE(dir.entry_count(), std::max<uint64_t>(bound, 1u) + 1)
        << "trial " << trial << " total_f " << total_f;
  }
}

}  // namespace
}  // namespace mind
