// Unit tests for the in-network cache directory (§4.3, §6.3): the SRAM slot budget, region
// lookup, split/merge mechanics and capacity eviction.
#include <gtest/gtest.h>

#include <vector>

#include "src/dataplane/directory.h"

namespace mind {
namespace {

TEST(Directory, AllocateFreeCycle) {
  CacheDirectory d(2);
  ASSERT_TRUE(d.Create(0x1000, 12).ok());
  ASSERT_TRUE(d.Create(0x2000, 12).ok());
  EXPECT_EQ(d.Create(0x3000, 12).status().code(), ErrorCode::kResourceExhausted);
  ASSERT_TRUE(d.Remove(0x1000).ok());
  EXPECT_EQ(d.high_water(), 2u);  // The high water outlives the entry.
  EXPECT_TRUE(d.Create(0x3000, 12).ok());
  EXPECT_EQ(d.entry_count(), 2u);
  EXPECT_EQ(d.high_water(), 2u);
}

TEST(Directory, CreateAndLookup) {
  CacheDirectory d(16);
  auto e = d.Create(0x10000, 14);  // 16 KB region.
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(d.Lookup(0x10000), *e);
  EXPECT_EQ(d.Lookup(0x13fff), *e);  // Last byte of the region.
  EXPECT_EQ(d.Lookup(0x14000), nullptr);
  EXPECT_EQ(d.Lookup(0xffff), nullptr);
  EXPECT_EQ(d.entry_count(), 1u);
}

TEST(Directory, RejectsBadGeometry) {
  CacheDirectory d(16);
  EXPECT_EQ(d.Create(0x1000, 11).status().code(), ErrorCode::kInvalidArgument);  // < 4 KB.
  EXPECT_EQ(d.Create(0x1000, 14).status().code(), ErrorCode::kInvalidArgument);  // Unaligned.
}

TEST(Directory, RejectsOverlap) {
  CacheDirectory d(16);
  ASSERT_TRUE(d.Create(0x10000, 14).ok());
  EXPECT_EQ(d.Create(0x10000, 12).status().code(), ErrorCode::kExists);
  EXPECT_EQ(d.Create(0x12000, 12).status().code(), ErrorCode::kExists);  // Inside.
  EXPECT_EQ(d.Create(0x0, 17).status().code(), ErrorCode::kExists);      // Encloses.
  EXPECT_TRUE(d.Create(0x14000, 14).ok());                               // Adjacent OK.
}

TEST(Directory, SplitHalvesAndInheritsState) {
  CacheDirectory d(16);
  auto e = d.Create(0x10000, 14);
  ASSERT_TRUE(e.ok());
  (*e)->state = MsiState::kShared;
  (*e)->sharers = BladeBit(2) | BladeBit(5);
  ASSERT_TRUE(d.Split(0x10000).ok());
  EXPECT_EQ(d.entry_count(), 2u);
  DirectoryEntry* lower = d.Lookup(0x10000);
  DirectoryEntry* upper = d.Lookup(0x12000);
  ASSERT_NE(lower, nullptr);
  ASSERT_NE(upper, nullptr);
  EXPECT_NE(lower, upper);
  EXPECT_EQ(lower->size(), 0x2000u);
  EXPECT_EQ(upper->size(), 0x2000u);
  // Children inherit the coherence state conservatively.
  EXPECT_EQ(upper->state, MsiState::kShared);
  EXPECT_EQ(upper->sharers, lower->sharers);
}

TEST(Directory, SplitStopsAtPageFloor) {
  CacheDirectory d(16);
  ASSERT_TRUE(d.Create(0x10000, 12).ok());  // Already 4 KB.
  EXPECT_EQ(d.Split(0x10000).code(), ErrorCode::kInvalidArgument);
}

TEST(Directory, SplitFailsWhenSramFull) {
  CacheDirectory d(1);
  ASSERT_TRUE(d.Create(0x10000, 14).ok());
  EXPECT_EQ(d.Split(0x10000).code(), ErrorCode::kResourceExhausted);
}

TEST(Directory, MergeBuddiesUnionsSharers) {
  CacheDirectory d(16);
  auto lo = d.Create(0x10000, 13);
  auto hi = d.Create(0x12000, 13);
  ASSERT_TRUE(lo.ok());
  ASSERT_TRUE(hi.ok());
  (*lo)->state = MsiState::kShared;
  (*lo)->sharers = BladeBit(1);
  (*hi)->state = MsiState::kShared;
  (*hi)->sharers = BladeBit(2);
  ASSERT_TRUE(d.MergeWithBuddy(0x10000, 21).ok());
  EXPECT_EQ(d.entry_count(), 1u);
  DirectoryEntry* merged = d.Lookup(0x13fff);
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->base, 0x10000u);
  EXPECT_EQ(merged->size(), 0x4000u);
  EXPECT_EQ(merged->sharers, BladeBit(1) | BladeBit(2));
  EXPECT_EQ(merged->state, MsiState::kShared);
}

TEST(Directory, MergeFromUpperBuddyWorks) {
  CacheDirectory d(16);
  ASSERT_TRUE(d.Create(0x10000, 13).ok());
  ASSERT_TRUE(d.Create(0x12000, 13).ok());
  ASSERT_TRUE(d.MergeWithBuddy(0x12000, 21).ok());  // Initiated from the upper half.
  EXPECT_EQ(d.entry_count(), 1u);
  EXPECT_EQ(d.Lookup(0x12000)->base, 0x10000u);
}

TEST(Directory, MergeRefusesConflictingOwners) {
  CacheDirectory d(16);
  auto lo = d.Create(0x10000, 13);
  auto hi = d.Create(0x12000, 13);
  (*lo)->state = MsiState::kModified;
  (*lo)->owner = 1;
  (*lo)->sharers = BladeBit(1);
  (*hi)->state = MsiState::kModified;
  (*hi)->owner = 2;
  (*hi)->sharers = BladeBit(2);
  EXPECT_EQ(d.MergeWithBuddy(0x10000, 21).code(), ErrorCode::kInvalidArgument);
}

TEST(Directory, MergeAllowsOwnerPlusInvalid) {
  CacheDirectory d(16);
  auto lo = d.Create(0x10000, 13);
  auto hi = d.Create(0x12000, 13);
  (*lo)->state = MsiState::kModified;
  (*lo)->owner = 3;
  (*lo)->sharers = BladeBit(3);
  (*hi)->state = MsiState::kInvalid;
  ASSERT_TRUE(d.MergeWithBuddy(0x10000, 21).ok());
  DirectoryEntry* merged = d.Lookup(0x12000);
  EXPECT_EQ(merged->state, MsiState::kModified);
  EXPECT_EQ(merged->owner, 3);
}

TEST(Directory, MergeRespectsMaxSize) {
  CacheDirectory d(16);
  ASSERT_TRUE(d.Create(0x10000, 13).ok());
  ASSERT_TRUE(d.Create(0x12000, 13).ok());
  EXPECT_EQ(d.MergeWithBuddy(0x10000, 13).code(), ErrorCode::kInvalidArgument);
}

TEST(Directory, MergeNeedsSameSizeBuddy) {
  CacheDirectory d(16);
  ASSERT_TRUE(d.Create(0x10000, 13).ok());
  ASSERT_TRUE(d.Create(0x12000, 12).ok());  // Half-size neighbour, not a buddy.
  EXPECT_EQ(d.MergeWithBuddy(0x10000, 21).code(), ErrorCode::kNotFound);
}

TEST(Directory, SplitThenMergeRoundTripsSlots) {
  CacheDirectory d(4);
  ASSERT_TRUE(d.Create(0x10000, 14).ok());
  ASSERT_TRUE(d.Split(0x10000).ok());
  ASSERT_TRUE(d.Split(0x10000).ok());
  EXPECT_EQ(d.entry_count(), 3u);
  ASSERT_TRUE(d.MergeWithBuddy(0x10000, 21).ok());
  ASSERT_TRUE(d.MergeWithBuddy(0x10000, 21).ok());
  EXPECT_EQ(d.entry_count(), 1u);
  EXPECT_EQ(d.Lookup(0x10000)->size(), 0x4000u);
}

TEST(Directory, RemoveRangeTakesStraddlersAndSparesNeighbours) {
  CacheDirectory d(16);
  ASSERT_TRUE(d.Create(0x0, 14).ok());       // [0x0, 0x4000): left neighbour.
  ASSERT_TRUE(d.Create(0x8000, 15).ok());    // [0x8000, 0x10000): straddles the begin.
  ASSERT_TRUE(d.Create(0x10000, 13).ok());   // Inside.
  ASSERT_TRUE(d.Create(0x14000, 14).ok());   // Inside.
  ASSERT_TRUE(d.Create(0x18000, 15).ok());   // [0x18000, 0x20000): straddles the end.
  ASSERT_TRUE(d.Create(0x20000, 13).ok());   // Right neighbour, starts at 0x20000.
  d.AddFalseInvalidations(*d.Lookup(0x0), 1);
  d.AddFalseInvalidations(*d.Lookup(0x8000), 10);
  d.AddFalseInvalidations(*d.Lookup(0x20000), 100);

  EXPECT_EQ(d.RemoveRange(0xc000, 0x1e000), 4u);
  std::vector<VirtAddr> left;
  d.ForEach([&](DirectoryEntry& e) { left.push_back(e.base); });
  EXPECT_EQ(left, (std::vector<VirtAddr>{0x0, 0x20000}));
  EXPECT_EQ(d.entry_count(), 2u);
  EXPECT_EQ(d.epoch_false_invalidations(), 101u);  // The removed entry's count went too.

  // A predecessor that ends exactly at the begin does not straddle it.
  EXPECT_EQ(d.RemoveRange(0x4000, 0x20000), 0u);
  EXPECT_EQ(d.entry_count(), 2u);
}

TEST(Directory, EvictionVictimPrefersStale) {
  CacheDirectory d(8);
  auto a = d.Create(0x10000, 12);
  auto b = d.Create(0x20000, 12);
  auto c = d.Create(0x30000, 12);
  (*a)->last_active = 100;
  (*b)->last_active = 5000;
  (*c)->last_active = 2000;
  auto victim = d.FindEvictionVictim(/*now=*/10000);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(*victim, 0x10000u);  // Stalest.
}

TEST(Directory, EvictionSkipsBusyEntries) {
  CacheDirectory d(8);
  auto a = d.Create(0x10000, 12);
  auto b = d.Create(0x20000, 12);
  (*a)->last_active = 0;
  (*a)->busy_until = 1'000'000;  // Mid-transition: not evictable.
  (*b)->last_active = 500;
  auto victim = d.FindEvictionVictim(/*now=*/1000);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(*victim, 0x20000u);
}

TEST(Directory, EvictionNoneWhenAllBusy) {
  CacheDirectory d(8);
  auto a = d.Create(0x10000, 12);
  (*a)->busy_until = 1'000'000;
  EXPECT_FALSE(d.FindEvictionVictim(/*now=*/1000).has_value());
}

TEST(DirectoryEntry, RoleResolution) {
  DirectoryEntry e;
  e.state = MsiState::kModified;
  e.owner = 4;
  e.sharers = BladeBit(4);
  EXPECT_EQ(e.RoleOf(4), RequestorRole::kOwner);
  EXPECT_EQ(e.RoleOf(2), RequestorRole::kNone);
  e.state = MsiState::kShared;
  e.owner = kInvalidComputeBlade;
  e.sharers = BladeBit(1) | BladeBit(2);
  EXPECT_EQ(e.RoleOf(1), RequestorRole::kSharer);
  EXPECT_EQ(e.RoleOf(4), RequestorRole::kNone);
}

}  // namespace
}  // namespace mind
