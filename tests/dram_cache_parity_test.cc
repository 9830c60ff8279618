// LRU-order parity test for the flat-hash DramCache: a reference model built exactly the
// way the seed implementation was (ordered std::map of frames + std::list recency list) is
// driven in lockstep with the real cache through randomized insert/lookup/upgrade/dirty/
// invalidate sequences. Eviction order, the dirty write-back set, range
// invalidation results and occupancy must be identical at every step — the refactor must
// be observationally indistinguishable from the seed semantics.
#include <gtest/gtest.h>

#include <list>
#include <map>
#include <vector>

#include "src/blade/dram_cache.h"
#include "src/common/rng.h"

namespace mind {
namespace {

// Reference model mirroring the seed DramCache exactly.
class RefCache {
 public:
  explicit RefCache(uint64_t capacity) : capacity_(capacity) {}

  struct Frame {
    bool dirty = false;
    bool writable = false;
    ProtDomainId pdid = 0;
    std::list<uint64_t>::iterator lru_it;
  };

  Frame* Lookup(uint64_t page) {
    auto it = frames_.find(page);
    if (it == frames_.end()) {
      return nullptr;
    }
    Touch(page, it->second);
    return &it->second;
  }

  struct Evicted {
    uint64_t page;
    bool dirty;
  };
  std::optional<Evicted> Insert(uint64_t page, bool writable, ProtDomainId pdid) {
    if (auto it = frames_.find(page); it != frames_.end()) {
      it->second.writable = it->second.writable || writable;
      it->second.pdid = pdid;
      Touch(page, it->second);
      return std::nullopt;
    }
    std::optional<Evicted> ev;
    if (frames_.size() >= capacity_ && capacity_ > 0) {
      const uint64_t victim = lru_.back();
      lru_.pop_back();
      ev = Evicted{victim, frames_[victim].dirty};
      frames_.erase(victim);
    }
    Frame f;
    f.writable = writable;
    f.pdid = pdid;
    lru_.push_front(page);
    f.lru_it = lru_.begin();
    frames_.emplace(page, f);
    return ev;
  }

  void MakeWritable(uint64_t page) {
    if (auto it = frames_.find(page); it != frames_.end()) {
      it->second.writable = true;
    }
  }
  void MarkDirty(uint64_t page) {
    if (auto it = frames_.find(page); it != frames_.end()) {
      it->second.dirty = true;
    }
  }

  struct RangeResult {
    std::vector<uint64_t> flushed;  // Ascending page order.
    uint64_t dropped_clean = 0;
  };
  RangeResult InvalidateRange(uint64_t begin, uint64_t end) {
    RangeResult r;
    auto it = frames_.lower_bound(begin);
    while (it != frames_.end() && it->first < end) {
      if (it->second.dirty) {
        r.flushed.push_back(it->first);
      } else {
        ++r.dropped_clean;
      }
      lru_.erase(it->second.lru_it);
      it = frames_.erase(it);
    }
    return r;
  }

  uint64_t CountRange(uint64_t begin, uint64_t end) const {
    uint64_t n = 0;
    for (auto it = frames_.lower_bound(begin); it != frames_.end() && it->first < end; ++it) {
      ++n;
    }
    return n;
  }

  [[nodiscard]] uint64_t size() const { return frames_.size(); }
  [[nodiscard]] const std::list<uint64_t>& lru() const { return lru_; }

 private:
  void Touch(uint64_t page, Frame& f) {
    lru_.erase(f.lru_it);
    lru_.push_front(page);
    f.lru_it = lru_.begin();
  }

  uint64_t capacity_;
  std::map<uint64_t, Frame> frames_;
  std::list<uint64_t> lru_;
};

class DramCacheParityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DramCacheParityTest, FlatCacheMatchesSeedSemantics) {
  constexpr uint64_t kCapacity = 48;
  constexpr uint64_t kPageSpace = 1400;  // Spans three 512-page regions.
  DramCache cache(kCapacity, /*store_data=*/false);
  RefCache ref(kCapacity);
  Rng rng(GetParam());

  for (int step = 0; step < 6000; ++step) {
    const double roll = rng.NextDouble();
    const uint64_t page = rng.NextBelow(kPageSpace);
    if (roll < 0.45) {
      const bool writable = rng.NextBelow(2) == 0;
      const ProtDomainId pdid = static_cast<ProtDomainId>(rng.NextBelow(3));
      auto got = cache.Insert(page, writable, nullptr, pdid);
      auto want = ref.Insert(page, writable, pdid);
      ASSERT_EQ(got.has_value(), want.has_value()) << "step " << step;
      if (got.has_value()) {
        ASSERT_EQ(got->page, want->page) << "eviction order diverged at step " << step;
        ASSERT_EQ(got->dirty, want->dirty) << "write-back set diverged at step " << step;
      }
    } else if (roll < 0.65) {
      DramCache::Frame* got = cache.Lookup(page);
      RefCache::Frame* want = ref.Lookup(page);
      ASSERT_EQ(got != nullptr, want != nullptr) << "step " << step;
      if (got != nullptr) {
        ASSERT_EQ(got->writable, want->writable);
        ASSERT_EQ(got->dirty, want->dirty);
        ASSERT_EQ(got->pdid, want->pdid);
        ASSERT_EQ(got->page, page);
      }
    } else if (roll < 0.75) {
      cache.MakeWritable(page);
      ref.MakeWritable(page);
      cache.MarkDirty(page);
      ref.MarkDirty(page);
    } else if (roll < 0.85) {
      const uint64_t span = 1 + rng.NextBelow(600);  // Crosses region boundaries.
      const uint64_t begin = rng.NextBelow(kPageSpace);
      auto got = cache.InvalidateRange(begin, begin + span);
      auto want = ref.InvalidateRange(begin, begin + span);
      ASSERT_EQ(got.dropped_clean, want.dropped_clean) << "step " << step;
      ASSERT_EQ(got.flushed.size(), want.flushed.size()) << "step " << step;
      for (size_t i = 0; i < got.flushed.size(); ++i) {
        ASSERT_EQ(got.flushed[i].page, want.flushed[i]) << "flush order at step " << step;
        ASSERT_TRUE(got.flushed[i].dirty);
      }
    } else {
      const uint64_t span = 1 + rng.NextBelow(600);
      const uint64_t begin = rng.NextBelow(kPageSpace);
      ASSERT_EQ(cache.CountRange(begin, begin + span), ref.CountRange(begin, begin + span));
    }

    ASSERT_EQ(cache.size(), ref.size()) << "step " << step;

    if (step % 1500 == 1499) {
      // Drain through pure capacity eviction: inserting fresh sentinel pages forces every
      // resident page out oldest-first, so the two caches must emit identical eviction
      // sequences — the strongest whole-list LRU-parity statement available.
      const uint64_t resident = cache.size();
      uint64_t sentinel = kPageSpace + static_cast<uint64_t>(step) * kCapacity;
      for (uint64_t i = 0; i < resident; ++i, ++sentinel) {
        auto got = cache.Insert(sentinel, false, nullptr, 0);
        auto want = ref.Insert(sentinel, false, 0);
        ASSERT_EQ(got.has_value(), want.has_value());
        if (got.has_value()) {
          ASSERT_EQ(got->page, want->page) << "drain order diverged at " << i;
          ASSERT_EQ(got->dirty, want->dirty);
        }
      }
      // Clear the sentinels so the next phase starts from the common working set.
      (void)cache.InvalidateRange(0, sentinel + 1);
      (void)ref.InvalidateRange(0, sentinel + 1);
      ASSERT_EQ(cache.size(), ref.size());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DramCacheParityTest, ::testing::Values(3u, 17u, 29u));

// Direct LRU-order check without the reference: recency must follow Lookup/Insert/Touch.
TEST(DramCacheLru, EvictionFollowsRecency) {
  DramCache c(3, false);
  (void)c.Insert(1, false);
  (void)c.Insert(2, false);
  (void)c.Insert(3, false);
  (void)c.Lookup(1);            // Order (MRU..LRU): 1, 3, 2.
  c.Touch(c.Find(2));           // Order: 2, 1, 3.
  auto ev = c.Insert(4, false); // Evicts 3.
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->page, 3u);
  ev = c.Insert(5, false);      // Evicts 1 (2 was touched after it).
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->page, 1u);
  ev = c.Insert(6, false);      // Evicts 2.
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->page, 2u);
}

}  // namespace
}  // namespace mind
