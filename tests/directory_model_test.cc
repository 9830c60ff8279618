// Property test for the flat-structure CacheDirectory: the open-addressed hash +
// active-size-class bitmap + arena must agree, at every step, with a plain std::map
// reference model across randomized create/split/merge/evict/remove/lookup sequences.
// This is the refactor-parity gate for the O(1) lookup pipeline — any divergence between
// bit-scan probing and ordered-map interval search is a bug here before it is a coherence
// bug anywhere else.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <vector>

#include "src/common/rng.h"
#include "src/dataplane/directory.h"

namespace mind {
namespace {

struct RefRegion {
  uint64_t size = 0;
  SimTime busy_until = 0;
  SimTime last_active = 0;
};

class DirectoryModelTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  static constexpr VirtAddr kSpace = 1ull << 26;  // 64 MB playground.

  // Reference interval lookup: the entry containing va, if any.
  static std::optional<VirtAddr> RefLookup(const std::map<VirtAddr, RefRegion>& ref,
                                           VirtAddr va) {
    auto it = ref.upper_bound(va);
    if (it == ref.begin()) {
      return std::nullopt;
    }
    --it;
    if (va < it->first + it->second.size) {
      return it->first;
    }
    return std::nullopt;
  }
};

TEST_P(DirectoryModelTest, FlatDirectoryMatchesMapModel) {
  CacheDirectory dir(512);
  std::map<VirtAddr, RefRegion> ref;
  Rng rng(GetParam());
  SimTime now = 0;

  for (int step = 0; step < 4000; ++step) {
    now += rng.NextBelow(100);
    const double roll = rng.NextDouble();
    if (roll < 0.35) {
      // Create a random aligned region (4 KB .. 2 MB — a wide size-class spread so the
      // active-class bitmap holds many bits at once).
      const uint32_t log2 = 12 + static_cast<uint32_t>(rng.NextBelow(10));
      const uint64_t size = uint64_t{1} << log2;
      const VirtAddr base = AlignDown(rng.NextBelow(kSpace - size), size);
      auto created = dir.Create(base, log2);
      bool overlaps = false;
      for (const auto& [rbase, rr] : ref) {
        if (rbase < base + size && base < rbase + rr.size) {
          overlaps = true;
          break;
        }
      }
      if (overlaps) {
        ASSERT_FALSE(created.ok()) << "step " << step;
      } else if (ref.size() >= 512) {
        ASSERT_FALSE(created.ok());
      } else {
        ASSERT_TRUE(created.ok()) << created.status().ToString() << " step " << step;
        (*created)->busy_until = now + rng.NextBelow(50);
        (*created)->last_active = now;
        ref[base] = RefRegion{size, (*created)->busy_until, now};
      }
    } else if (roll < 0.5 && !ref.empty()) {
      auto it = ref.begin();
      std::advance(it, static_cast<long>(rng.NextBelow(ref.size())));
      const VirtAddr base = it->first;
      const uint64_t size = it->second.size;
      const Status s = dir.Split(base);
      if (size <= kPageSize || ref.size() >= 512) {
        ASSERT_FALSE(s.ok());
      } else {
        ASSERT_TRUE(s.ok()) << s.ToString();
        const RefRegion parent = it->second;
        ref[base] = RefRegion{size / 2, parent.busy_until, parent.last_active};
        ref[base + size / 2] = RefRegion{size / 2, parent.busy_until, parent.last_active};
      }
    } else if (roll < 0.62 && !ref.empty()) {
      auto it = ref.begin();
      std::advance(it, static_cast<long>(rng.NextBelow(ref.size())));
      const VirtAddr base = it->first;
      const uint64_t size = it->second.size;
      const VirtAddr buddy = base ^ size;
      const bool mergeable =
          ref.count(buddy) != 0 && ref[buddy].size == size && size < (1ull << 22);
      const Status s = dir.MergeWithBuddy(base, 22);
      ASSERT_EQ(s.ok(), mergeable) << s.ToString();
      if (mergeable) {
        const VirtAddr lower = std::min(base, buddy);
        const VirtAddr upper = std::max(base, buddy);
        const RefRegion merged{size * 2, std::max(ref[lower].busy_until, ref[upper].busy_until),
                               std::max(ref[lower].last_active, ref[upper].last_active)};
        ref.erase(upper);
        ref[lower] = merged;
      }
    } else if (roll < 0.72 && !ref.empty()) {
      // Capacity-style eviction through the CLOCK sweep: whatever victim the directory
      // proposes must exist, match the reference geometry, and not be busy. The scan limit
      // covers the whole capacity so "no victim" must mean "every entry busy".
      auto victim = dir.FindEvictionVictim(now, /*scan_limit=*/512);
      bool any_idle = false;
      for (const auto& [rbase, rr] : ref) {
        any_idle = any_idle || rr.busy_until <= now;
      }
      ASSERT_EQ(victim.has_value(), any_idle);
      if (victim.has_value()) {
        auto rit = ref.find(*victim);
        ASSERT_NE(rit, ref.end()) << "victim not in reference model";
        ASSERT_LE(rit->second.busy_until, now) << "victim was busy";
        ASSERT_TRUE(dir.Remove(*victim).ok());
        ref.erase(rit);
      }
    } else if (roll < 0.8 && !ref.empty()) {
      auto it = ref.begin();
      std::advance(it, static_cast<long>(rng.NextBelow(ref.size())));
      ASSERT_TRUE(dir.Remove(it->first).ok());
      ref.erase(it);
    } else {
      // Random-address lookups: flat bit-scan probing must agree with the interval model,
      // including just-inside/just-outside boundary addresses.
      for (int probe = 0; probe < 8; ++probe) {
        const VirtAddr va = rng.NextBelow(kSpace);
        const auto expect = RefLookup(ref, va);
        DirectoryEntry* got = dir.Lookup(va);
        if (expect.has_value()) {
          ASSERT_NE(got, nullptr) << "va " << va << " step " << step;
          ASSERT_EQ(got->base, *expect);
        } else {
          ASSERT_EQ(got, nullptr) << "va " << va << " step " << step;
        }
      }
    }

    if (step % 64 == 0) {
      ASSERT_EQ(dir.entry_count(), ref.size());
      // ForEach must visit every reference region exactly once, in ascending base order.
      std::vector<VirtAddr> seen;
      dir.ForEach([&](DirectoryEntry& e) { seen.push_back(e.base); });
      ASSERT_EQ(seen.size(), ref.size());
      auto rit = ref.begin();
      for (size_t i = 0; i < seen.size(); ++i, ++rit) {
        ASSERT_EQ(seen[i], rit->first);
        ASSERT_EQ(dir.Lookup(rit->first)->size(), rit->second.size);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DirectoryModelTest, ::testing::Values(11u, 23u, 47u, 91u));

// The CLOCK cursor must survive removal of the entry it points at: evict-and-remove in a
// tight loop used to re-seek the whole map (and could skip or repeat entries when the
// cursor's key vanished). Now the cursor is an arena slot and freed slots are skipped.
TEST(DirectoryClock, CursorSurvivesVictimRemoval) {
  CacheDirectory d(64);
  for (uint64_t i = 0; i < 32; ++i) {
    auto e = d.Create(i << 12, 12);
    ASSERT_TRUE(e.ok());
    (*e)->last_active = i;  // Entry 0 is stalest.
  }
  // Evict all 32 entries one by one; every pick must be a live entry and all must go.
  for (int round = 0; round < 32; ++round) {
    auto victim = d.FindEvictionVictim(/*now=*/1000, /*scan_limit=*/8);
    ASSERT_TRUE(victim.has_value()) << "round " << round;
    ASSERT_NE(d.Lookup(*victim), nullptr);
    ASSERT_TRUE(d.Remove(*victim).ok());
  }
  EXPECT_EQ(d.entry_count(), 0u);
  EXPECT_FALSE(d.FindEvictionVictim(1000).has_value());
}

// A scan limited to fewer entries than exist must still make forward progress around the
// ring: successive sweeps visit different windows rather than rescanning the same prefix.
TEST(DirectoryClock, BoundedScanRotatesWindows) {
  CacheDirectory d(64);
  for (uint64_t i = 0; i < 16; ++i) {
    auto e = d.Create(i << 12, 12);
    ASSERT_TRUE(e.ok());
    (*e)->last_active = 100 - i;
  }
  // scan_limit=4: first sweep sees entries 0..3 (stalest among them is base 3<<12, the one
  // with the smallest last_active in the window).
  auto v1 = d.FindEvictionVictim(/*now=*/1000, /*scan_limit=*/4);
  ASSERT_TRUE(v1.has_value());
  EXPECT_EQ(*v1, uint64_t{3} << 12);
  // Second sweep resumes where the first stopped: entries 4..7.
  auto v2 = d.FindEvictionVictim(/*now=*/1000, /*scan_limit=*/4);
  ASSERT_TRUE(v2.has_value());
  EXPECT_EQ(*v2, uint64_t{7} << 12);
}

}  // namespace
}  // namespace mind
