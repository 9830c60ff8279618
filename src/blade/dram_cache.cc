#include "src/blade/dram_cache.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace mind {

void DramCache::LruUnlink(Frame& frame) {
  if (frame.lru_prev != kNilFrame) {
    FrameAt(frame.lru_prev).lru_next = frame.lru_next;
  } else {
    lru_head_ = frame.lru_next;
  }
  if (frame.lru_next != kNilFrame) {
    FrameAt(frame.lru_next).lru_prev = frame.lru_prev;
  } else {
    lru_tail_ = frame.lru_prev;
  }
}

void DramCache::LruPushFront(Frame& frame) {
  frame.lru_prev = kNilFrame;
  frame.lru_next = lru_head_;
  if (lru_head_ != kNilFrame) {
    FrameAt(lru_head_).lru_prev = frame.self;
  } else {
    lru_tail_ = frame.self;
  }
  lru_head_ = frame.self;
}

void DramCache::LruInsertAtDepth(Frame& frame, uint32_t depth) {
  // Walk `depth` frames up from the cold end; the new frame links between the walked
  // prefix (stays colder) and the rest (stays warmer). O(depth), bounded by the caller's
  // adaptive depth — and only ever paid on speculative installs, never on hits.
  uint32_t colder = kNilFrame;    // Becomes frame.lru_next.
  uint32_t warmer = lru_tail_;    // Becomes frame.lru_prev.
  while (depth > 0 && warmer != kNilFrame) {
    colder = warmer;
    warmer = FrameAt(warmer).lru_prev;
    --depth;
  }
  frame.lru_next = colder;
  frame.lru_prev = warmer;
  if (colder != kNilFrame) {
    FrameAt(colder).lru_prev = frame.self;
  } else {
    lru_tail_ = frame.self;
  }
  if (warmer != kNilFrame) {
    FrameAt(warmer).lru_next = frame.self;
  } else {
    lru_head_ = frame.self;
  }
}

void DramCache::IndexSetPage(uint64_t page) {
  Region& region = regions_[page / kRegionPages];
  const uint64_t bit = page % kRegionPages;
  region.bits[bit >> 6] |= uint64_t{1} << (bit & 63);
  ++region.count;
}

void DramCache::IndexClearPage(uint64_t page) {
  auto it = regions_.find(page / kRegionPages);
  assert(it != regions_.end());
  const uint64_t bit = page % kRegionPages;
  it->second.bits[bit >> 6] &= ~(uint64_t{1} << (bit & 63));
  if (--it->second.count == 0) {
    regions_.erase(it);
  }
}

DramCache::Frame* DramCache::Lookup(uint64_t page) {
  const uint32_t* idxp = index_.Find(page);
  if (idxp == nullptr) {
    return nullptr;
  }
  Frame& frame = FrameAt(*idxp);
  Touch(&frame);
  return &frame;
}

DramCache::Frame* DramCache::Find(uint64_t page) {
  const uint32_t* idxp = index_.Find(page);
  return idxp == nullptr ? nullptr : &FrameAt(*idxp);
}

const DramCache::Frame* DramCache::Peek(uint64_t page) const {
  const uint32_t* idxp = index_.Find(page);
  return idxp == nullptr ? nullptr : &FrameAt(*idxp);
}

void DramCache::Touch(Frame* frame) {
  if (lru_head_ == frame->self) {
    return;  // Already most recent.
  }
  LruUnlink(*frame);
  LruPushFront(*frame);
}

DramCache::Eviction DramCache::RemoveFrame(uint32_t idx) {
  Frame& frame = FrameAt(idx);
  BumpRegion(frame.page);
  Eviction ev{frame.page, frame.dirty, std::move(frame.data)};
  LruUnlink(frame);
  index_.Erase(frame.page);
  IndexClearPage(frame.page);
  arena_.Free(idx);
  return ev;
}

PagePtr DramCache::MakePayload(const PageData* bytes) {
  PagePtr data = pool_.AllocPtr();
  if (bytes != nullptr) {
    *data = *bytes;
  } else {
    data->fill(0);  // Recycled slots keep stale bytes; fresh pages read as zero.
  }
  return data;
}

std::optional<DramCache::Eviction> DramCache::EmplaceNewFrame(uint64_t page, bool writable,
                                                              const PageData* bytes,
                                                              ProtDomainId pdid,
                                                              bool prefetched,
                                                              uint32_t lru_depth) {
  std::optional<Eviction> evicted;
  if (index_.size() >= capacity_ && capacity_ > 0) {
    assert(lru_tail_ != kNilFrame);
    evicted = RemoveFrame(lru_tail_);
  }
  const uint32_t idx = arena_.Alloc();
  Frame& frame = FrameAt(idx);
  frame.writable = writable;
  frame.dirty = false;
  frame.prefetched = prefetched;  // Arena slots recycle: always written explicitly.
  frame.pdid = pdid;
  frame.page = page;
  frame.self = idx;
  frame.data = store_data_ ? MakePayload(bytes) : nullptr;
  if (lru_depth == kMruDepth) {
    LruPushFront(frame);
  } else {
    LruInsertAtDepth(frame, lru_depth);
  }
  index_.Upsert(page, idx);
  IndexSetPage(page);
  return evicted;
}

std::optional<DramCache::Eviction> DramCache::Insert(uint64_t page, bool writable,
                                                     const PageData* bytes,
                                                     ProtDomainId pdid) {
  BumpRegion(page);  // Membership or permissions may change on either path below.
  if (Frame* existing = Find(page); existing != nullptr) {
    // Re-insert: permission upgrade and/or fresh data. A demand re-insert counts as the
    // page's first real use, so it sheds any prefetched marking.
    existing->writable = existing->writable || writable;
    existing->prefetched = false;
    existing->pdid = pdid;
    if (store_data_ && bytes != nullptr) {
      if (existing->data == nullptr) {
        existing->data = pool_.AllocPtr();
      }
      *existing->data = *bytes;
    }
    Touch(existing);
    return std::nullopt;
  }
  return EmplaceNewFrame(page, writable, bytes, pdid, /*prefetched=*/false, kMruDepth);
}

std::optional<DramCache::Eviction> DramCache::InsertPrefetched(uint64_t page, bool writable,
                                                               const PageData* bytes,
                                                               ProtDomainId pdid,
                                                               uint32_t lru_depth) {
  if (Find(page) != nullptr) {
    // Callers dedup before speculative installs; a racing demand insert wins.
    return Insert(page, writable, bytes, pdid);
  }
  BumpRegion(page);
  return EmplaceNewFrame(page, writable, bytes, pdid, /*prefetched=*/true, lru_depth);
}

void DramCache::MakeWritable(uint64_t page) {
  if (Frame* frame = Find(page); frame != nullptr) {
    frame->writable = true;
    BumpRegion(page);
  }
}

void DramCache::MarkDirty(uint64_t page) {
  if (Frame* frame = Find(page); frame != nullptr) {
    frame->dirty = true;
  }
}

template <bool kMutates, typename Fn>
void DramCache::ForEachPageInRange(uint64_t page_begin, uint64_t page_end, Fn&& fn) const {
  if (page_begin >= page_end || regions_.empty()) {
    return;
  }
  const uint64_t region_begin = page_begin / kRegionPages;
  const uint64_t region_last = (page_end - 1) / kRegionPages;

  auto process_region = [&](uint64_t r) {
    auto rit = regions_.find(r);
    if (rit == regions_.end()) {
      return;
    }
    for (uint64_t w = 0; w < kRegionPages / 64; ++w) {
      const uint64_t word_base = r * kRegionPages + w * 64;
      if (word_base >= page_end) {
        break;
      }
      if (word_base + 64 <= page_begin) {
        continue;
      }
      // Snapshot the word with the range boundaries masked off, then visit set bits
      // ascending; fn may mutate the region (kMutates) without disturbing the snapshot.
      uint64_t bits = rit->second.bits[w];
      if (page_begin > word_base) {
        bits &= ~uint64_t{0} << (page_begin - word_base);
      }
      if (page_end < word_base + 64) {
        bits &= (uint64_t{1} << (page_end - word_base)) - 1;
      }
      while (bits != 0) {
        fn(word_base + static_cast<uint64_t>(std::countr_zero(bits)));
        bits &= bits - 1;
      }
      if constexpr (kMutates) {
        // fn may have removed pages and thereby erased the region once empty.
        rit = regions_.find(r);
        if (rit == regions_.end()) {
          break;
        }
      }
    }
  };

  if (region_last - region_begin >= regions_.size()) {
    // Sparse range (e.g. a whole-VMA shoot-down over a huge mapping): visiting the live
    // regions that intersect it beats probing every region number in the span.
    std::vector<uint64_t> keys;
    keys.reserve(regions_.size());
    // detlint: allow(unordered-iteration): keys are collected then sorted before the
    // order-sensitive visit below.
    for (const auto& [r, region] : regions_) {
      if (r >= region_begin && r <= region_last) {
        keys.push_back(r);
      }
    }
    std::sort(keys.begin(), keys.end());  // fn must still see ascending page order.
    for (uint64_t r : keys) {
      process_region(r);
    }
  } else {
    for (uint64_t r = region_begin; r <= region_last; ++r) {
      process_region(r);
    }
  }
}

DramCache::RangeInvalidation DramCache::InvalidateRange(uint64_t page_begin,
                                                        uint64_t page_end) {
  RangeInvalidation result;
  if (page_begin < page_end) {
    // Stamp the invalidation even over pages the cache does not hold: an in-flight
    // prefetch for this range must observe the wave and discard its (stale) install.
    const uint64_t first = RegionOf(page_begin);
    const uint64_t last = RegionOf(page_end - 1);
    if (last - first >= kWideInvalRegions) {
      wide_inval_version_ = ++version_;  // Whole-VMA shoot-down: one wide epoch.
    } else {
      for (uint64_t r = first; r <= last; ++r) {
        region_inval_versions_.Upsert(r, ++version_);
      }
    }
  }
  ForEachPageInRange<true>(page_begin, page_end, [&](uint64_t page) {
    Eviction ev = RemoveFrame(*index_.Find(page));
    if (ev.dirty) {
      result.flushed.push_back(std::move(ev));
    } else {
      ++result.dropped_clean;
    }
  });
  return result;
}

uint64_t DramCache::CountRange(uint64_t page_begin, uint64_t page_end) const {
  uint64_t count = 0;
  ForEachPageInRange<false>(page_begin, page_end, [&](uint64_t) { ++count; });
  return count;
}

}  // namespace mind
