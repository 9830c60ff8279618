// Unit tests for compute/memory blade models: DRAM cache LRU + dirty tracking, range
// invalidation, invalidation-handler timing, memory blade page store.
#include <gtest/gtest.h>

#include "src/blade/compute_blade.h"
#include "src/blade/dram_cache.h"
#include "src/blade/memory_blade.h"

namespace mind {
namespace {

TEST(DramCache, InsertLookupBasics) {
  DramCache c(4, /*store_data=*/false);
  EXPECT_EQ(c.Lookup(10), nullptr);
  EXPECT_FALSE(c.Insert(10, /*writable=*/false).has_value());
  auto* f = c.Lookup(10);
  ASSERT_NE(f, nullptr);
  EXPECT_FALSE(f->writable);
  EXPECT_FALSE(f->dirty);
  EXPECT_EQ(c.size(), 1u);
}

TEST(DramCache, LruEviction) {
  DramCache c(2, false);
  (void)c.Insert(1, false);
  (void)c.Insert(2, false);
  (void)c.Lookup(1);  // 1 is now MRU; 2 is LRU.
  auto ev = c.Insert(3, false);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->page, 2u);
  EXPECT_NE(c.Lookup(1), nullptr);
  EXPECT_EQ(c.Lookup(2), nullptr);
}

TEST(DramCache, DirtyEvictionCarriesFlag) {
  DramCache c(1, false);
  (void)c.Insert(1, true);
  c.MarkDirty(1);
  auto ev = c.Insert(2, false);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->page, 1u);
  EXPECT_TRUE(ev->dirty);  // Caller must write this back.
}

TEST(DramCache, ReinsertUpgradesInPlace) {
  DramCache c(2, false);
  (void)c.Insert(1, false);
  EXPECT_FALSE(c.Insert(1, true).has_value());  // No eviction; upgrade.
  EXPECT_TRUE(c.Lookup(1)->writable);
  EXPECT_EQ(c.size(), 1u);
}

TEST(DramCache, MakeWritableAndMarkDirtyNoOpWhenAbsent) {
  DramCache c(2, false);
  c.MakeWritable(99);  // Must not crash or create entries.
  c.MarkDirty(99);
  EXPECT_EQ(c.size(), 0u);
}

TEST(DramCache, InvalidateRangeSeparatesDirtyFromClean) {
  DramCache c(8, false);
  (void)c.Insert(10, true);
  c.MarkDirty(10);
  (void)c.Insert(11, false);
  (void)c.Insert(12, true);
  c.MarkDirty(12);
  (void)c.Insert(20, true);  // Outside the range.
  c.MarkDirty(20);

  auto inv = c.InvalidateRange(10, 13);
  ASSERT_EQ(inv.flushed.size(), 2u);
  EXPECT_EQ(inv.flushed[0].page, 10u);
  EXPECT_EQ(inv.flushed[1].page, 12u);
  EXPECT_EQ(inv.dropped_clean, 1u);
  EXPECT_EQ(c.Lookup(11), nullptr);   // All PTEs in range removed (§6.1).
  EXPECT_NE(c.Lookup(20), nullptr);   // Out of range untouched.
}

TEST(DramCache, StoreDataRoundTrip) {
  DramCache c(2, /*store_data=*/true);
  PageData data{};
  data[0] = 0xAB;
  data[kPageSize - 1] = 0xCD;
  (void)c.Insert(7, true, &data);
  auto* f = c.Lookup(7);
  ASSERT_NE(f, nullptr);
  ASSERT_NE(f->data, nullptr);
  EXPECT_EQ((*f->data)[0], 0xAB);
  EXPECT_EQ((*f->data)[kPageSize - 1], 0xCD);
}

TEST(DramCache, CountRange) {
  DramCache c(8, false);
  (void)c.Insert(1, false);
  (void)c.Insert(3, false);
  (void)c.Insert(5, false);
  EXPECT_EQ(c.CountRange(0, 4), 2u);
  EXPECT_EQ(c.CountRange(4, 10), 1u);
  EXPECT_EQ(c.CountRange(10, 20), 0u);
}

TEST(ComputeBlade, InvalidationTimingComposition) {
  LatencyModel lat;
  ComputeBlade blade(0, 16, false, lat);
  (void)blade.cache().Insert(PageNumber(0x10000), true);
  blade.cache().MarkDirty(PageNumber(0x10000));
  (void)blade.cache().Insert(PageNumber(0x11000), false);

  auto out = blade.HandleInvalidation(0x10000, 0x12000, /*arrival=*/1000);
  EXPECT_EQ(out.start, 1000u);  // Idle queue: no wait.
  EXPECT_EQ(out.queue_wait, 0u);
  EXPECT_EQ(out.tlb_time, lat.tlb_shootdown);
  // Service = handler CPU + shootdown + 1 dirty-page flush.
  EXPECT_EQ(out.done,
            1000 + lat.invalidation_handler_cpu + lat.tlb_shootdown + lat.page_flush_cpu);
  ASSERT_EQ(out.flushed.size(), 1u);
  EXPECT_EQ(out.flushed[0].page, PageNumber(0x10000));
  EXPECT_EQ(out.dropped_clean, 1u);
  EXPECT_EQ(blade.pages_flushed(), 1u);
  EXPECT_EQ(blade.tlb_shootdowns(), 1u);
}

TEST(ComputeBlade, EmptyRegionInvalidationIsCheap) {
  LatencyModel lat;
  ComputeBlade blade(0, 16, false, lat);
  auto out = blade.HandleInvalidation(0x10000, 0x12000, 500);
  EXPECT_TRUE(out.flushed.empty());
  EXPECT_EQ(out.tlb_time, 0u);  // No PTEs dropped -> no shootdown.
  EXPECT_EQ(out.done, 500 + lat.invalidation_handler_cpu);
}

TEST(ComputeBlade, ConcurrentInvalidationsQueue) {
  // The serial kernel handler is the "Inv. (queue)" source in Fig. 7 (right).
  LatencyModel lat;
  ComputeBlade blade(0, 16, false, lat);
  (void)blade.cache().Insert(1, false);
  (void)blade.cache().Insert(100, false);
  auto first = blade.HandleInvalidation(PageToAddr(1), PageToAddr(2), 1000);
  auto second = blade.HandleInvalidation(PageToAddr(100), PageToAddr(101), 1000);
  EXPECT_EQ(first.queue_wait, 0u);
  EXPECT_GT(second.queue_wait, 0u);
  EXPECT_EQ(second.start, first.done);
}

TEST(MemoryBlade, MetadataOnlyCountsOps) {
  MemoryBlade m(0, 1 << 20, /*store_data=*/false);
  m.WritePage(5, nullptr);
  EXPECT_EQ(m.ReadPage(5), nullptr);
  EXPECT_EQ(m.writes(), 1u);
  EXPECT_EQ(m.reads(), 1u);
  EXPECT_EQ(m.resident_pages(), 0u);
}

TEST(MemoryBlade, StoresBytes) {
  MemoryBlade m(0, 1 << 20, /*store_data=*/true);
  PageData page{};
  page[42] = 0x7f;
  m.WritePage(3, &page);
  const PageData* read = m.ReadPage(3);
  ASSERT_NE(read, nullptr);
  EXPECT_EQ((*read)[42], 0x7f);
  EXPECT_EQ(m.ReadPage(99), nullptr);  // Never written: semantically zero.
}

TEST(MemoryBlade, FirstTouchZeroFills) {
  MemoryBlade m(0, 1 << 20, true);
  m.WritePage(1, nullptr);  // Touch without payload.
  const PageData* read = m.ReadPage(1);
  ASSERT_NE(read, nullptr);
  for (size_t i = 0; i < kPageSize; i += 512) {
    EXPECT_EQ((*read)[i], 0);
  }
}

}  // namespace
}  // namespace mind
