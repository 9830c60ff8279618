// Compute-blade local DRAM cache (§2.1 partial disaggregation, §6.1).
//
// Under MIND's partial-disaggregation model each compute blade keeps a few GB of local DRAM
// as a *virtually addressed* page cache (512 MB in the paper's evaluation — ~25% of workload
// footprint). The cache tracks per-page write permission and dirtiness; on an invalidation
// for a region it must flush every writable (dirty) page in that region and drop all local
// PTEs for it (§6.1). Eviction is LRU with write-back of dirty pages.
//
// The hit path — the single hottest operation in the whole simulation — is one flat-hash
// probe plus an intrusive LRU relink: frames live in a chunked arena (stable pointers, no
// per-node allocation) linked by 32-bit indices, and a flat open-addressed map takes page
// number to arena slot. Ordered range invalidation is preserved without an ordered map via
// a compact per-region page index: one presence bitmap per aligned 512-page (2 MB) region,
// walked region-by-region, word-by-word, in ascending page order.
//
// Page payloads are optional: correctness tests and the examples move real bytes, while the
// figure benches run metadata-only to keep memory use flat. When payloads are on, they come
// from a per-blade slab arena rather than per-fault heap allocations: faulted-in pages pop
// a recycled 4 KB slot and evicted/flushed pages return theirs once the write-back is done,
// so `store_data` replay no longer thrashes the allocator (and the arena's lazy slab growth
// gives first-touch NUMA placement on the thread that takes the miss).
#ifndef MIND_SRC_BLADE_DRAM_CACHE_H_
#define MIND_SRC_BLADE_DRAM_CACHE_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/common/chunked_arena.h"
#include "src/common/flat_map.h"
#include "src/common/slab_arena.h"
#include "src/common/types.h"

namespace mind {

using PageData = std::array<uint8_t, kPageSize>;

// Per-blade payload arena: 64 pages (256 KB) per slab keeps slab metadata negligible while
// letting small caches stay small.
using PagePool = SlabArena<PageData, 64>;
using PagePtr = PagePool::Ptr;

class DramCache {
 public:
  DramCache(uint64_t capacity_frames, bool store_data)
      : capacity_(capacity_frames), store_data_(store_data) {}

  struct Frame {
    bool dirty = false;
    bool writable = false;
    // Installed by a prefetch and not yet demand-touched. The hit paths clear it on the
    // first touch (classifying the prefetch useful); always false when prefetching is
    // off, so the flag costs the fast path one perfectly-predicted branch.
    bool prefetched = false;
    // Protection domain that faulted the page in. A hit from a different domain re-checks
    // against the switch's protection table (MPK-style domain tags on local PTEs), so one
    // session can never ride another session's cached pages (§4.2).
    ProtDomainId pdid = 0;
    PagePtr data;  // Arena-backed payload; null when the cache is metadata-only.
    // Intrusive LRU bookkeeping: the cached page number, this frame's arena slot, and the
    // neighbouring slots in recency order (kNilFrame-terminated).
    uint64_t page = 0;
    uint32_t self = 0;
    uint32_t lru_prev = 0;
    uint32_t lru_next = 0;
  };

  // Returns the frame caching `page` (a page number), or nullptr. Bumps LRU recency.
  Frame* Lookup(uint64_t page);
  // No LRU side effects; `Find` is the mutable flavor used by memoizing fast paths.
  [[nodiscard]] Frame* Find(uint64_t page);
  [[nodiscard]] const Frame* Peek(uint64_t page) const;

  // Moves a frame (obtained from Lookup/Find) to the MRU position. O(1); no-op when the
  // frame is already most recent. Lets a caller that memoized the frame pointer keep LRU
  // order exact without re-probing the hash.
  void Touch(Frame* frame);

  // Inserts (or updates) a page, copying `bytes` into an arena-backed payload slot (or
  // zero-filling when `bytes` is null, matching anonymous-mmap semantics). If the cache is
  // full, evicts the LRU page first and returns it so the caller can write back dirty
  // data; the eviction's payload recycles into this blade's arena when dropped.
  struct Eviction {
    uint64_t page = 0;
    bool dirty = false;
    PagePtr data;
  };
  std::optional<Eviction> Insert(uint64_t page, bool writable,
                                 const PageData* bytes = nullptr, ProtDomainId pdid = 0);

  // Speculative install for prefetched pages (prefetch-aware eviction priority): like
  // Insert, but the new frame enters the recency order `lru_depth` frames above the cold
  // end instead of at MRU — so under pressure a burst of guesses evicts its own earlier
  // guesses before any demand-faulted page — and is marked Frame::prefetched (the first
  // demand touch promotes it through the ordinary Touch path). `lru_depth` >= current
  // size degenerates to an MRU insert. Callers are expected to have deduplicated against
  // the cache (a page already present takes the demand-style Insert path instead).
  std::optional<Eviction> InsertPrefetched(uint64_t page, bool writable,
                                           const PageData* bytes, ProtDomainId pdid,
                                           uint32_t lru_depth);

  // Upgrades an existing frame to writable (S->M locally). No-op if absent.
  void MakeWritable(uint64_t page);
  // Marks a cached page dirty after a store. No-op if absent.
  void MarkDirty(uint64_t page);

  // Invalidates every cached page in [page_begin, page_end): dirty pages are returned for
  // write-back (these are the "flushed pages" of Fig. 6), clean pages are simply dropped.
  struct RangeInvalidation {
    std::vector<Eviction> flushed;  // Dirty pages needing write-back, ascending page order.
    uint64_t dropped_clean = 0;
  };
  RangeInvalidation InvalidateRange(uint64_t page_begin, uint64_t page_end);

  // Downgrade to read-only without dropping: flushes dirty pages (returned) and clears
  // write permission. Used by the ablation that keeps M->S sharers resident.
  RangeInvalidation DowngradeRange(uint64_t page_begin, uint64_t page_end);

  [[nodiscard]] uint64_t CountRange(uint64_t page_begin, uint64_t page_end) const;

  [[nodiscard]] uint64_t size() const { return index_.size(); }
  [[nodiscard]] uint64_t capacity() const { return capacity_; }
  [[nodiscard]] bool store_data() const { return store_data_; }
  [[nodiscard]] PagePool& payload_pool() { return pool_; }
  [[nodiscard]] const PagePool& payload_pool() const { return pool_; }

  // Per-2MB-region membership/permission version: the last mutation ordinal at which any
  // page of the aligned 512-page region changed membership, writability or domain tag
  // (0 = never) — but NOT recency or dirtiness, so the batched channel fast path can
  // Touch and MarkDirty without invalidating submitted runs. AccessChannel validity
  // stamps compare against this, so an invalidation wave over a shared region no longer
  // invalidates submitted runs over private regions of the same blade. Values are drawn
  // from one global monotonic counter, so a region that empties out and is later
  // repopulated can never repeat an old version.
  [[nodiscard]] uint64_t region_version(uint64_t region) const {
    const uint64_t* v = region_versions_.Find(region);
    return v == nullptr ? 0 : *v;
  }
  [[nodiscard]] static uint64_t RegionOf(uint64_t page) { return page / kRegionPages; }

  // Per-2MB-region *invalidation* version: the last mutation ordinal at which pages of
  // the region were dropped by a coherence/permission event (InvalidateRange — waves,
  // shoot-downs, munmap), but NOT by inserts, LRU evictions or downgrades. In-flight
  // prefetches stamp this at issue time: a wave that lands in the region between issue
  // and arrival makes the fetched copy stale, so the install is discarded. Whole-range
  // invalidations spanning many regions bump one wide epoch instead of every region
  // (max() of the two sides keeps the comparison exact either way).
  [[nodiscard]] uint64_t region_inval_version(uint64_t region) const {
    const uint64_t* v = region_inval_versions_.Find(region);
    return std::max(wide_inval_version_, v == nullptr ? 0 : *v);
  }

  // Per-region page index granularity: one bitmap (and one state version) per aligned
  // 512-page (2 MB) region.
  static constexpr uint64_t kRegionPages = 512;

  // Dependency footprint of a classified channel run: (region, version) stamps recorded
  // at classification time and re-checked before the run is reused. Add runs once per
  // accepted op on the submit hot path, so the dedup must be O(1): a direct-mapped tag
  // filter absorbs repeats (runs span a handful of regions, typically hitting distinct
  // slots), and only a filter miss pays the short authoritative scan.
  class RegionStamps {
   public:
    void Clear() {
      stamps_.clear();
      tags_.fill(0);
      global_ = 0;
    }
    void Add(const DramCache& cache, uint64_t region) {
      global_ = cache.version_;  // Snapshot of the global mutation ordinal (see Valid).
      uint64_t& tag = tags_[region & (kTagSlots - 1)];
      if (tag == region + 1) {
        return;  // Already stamped (tags store region + 1 so 0 means empty).
      }
      tag = region + 1;
      for (const Stamp& s : stamps_) {
        if (s.region == region) {
          return;  // Tag slot was overwritten by a colliding region; stamp exists.
        }
      }
      stamps_.push_back(Stamp{region, cache.region_version(region)});
    }
    [[nodiscard]] bool Valid(const DramCache& cache) const {
      if (cache.version_ == global_) {
        // Nothing in the whole cache mutated membership/permissions since the stamps
        // were recorded (recency and dirtiness don't advance the ordinal), so every
        // per-region check would pass — validation is one comparison per round in the
        // common no-mutation case instead of a hash probe per stamped region.
        return true;
      }
      for (const Stamp& s : stamps_) {
        if (cache.region_version(s.region) != s.version) {
          return false;
        }
      }
      return true;
    }

   private:
    static constexpr size_t kTagSlots = 16;
    struct Stamp {
      uint64_t region = 0;
      uint64_t version = 0;
    };
    std::array<uint64_t, kTagSlots> tags_{};
    std::vector<Stamp> stamps_;
    uint64_t global_ = 0;  // Cache-wide ordinal at recording time (0 = no stamps yet).
  };

 private:
  static constexpr uint32_t kNilFrame = UINT32_MAX;
  struct Region {
    std::array<uint64_t, kRegionPages / 64> bits{};
    uint32_t count = 0;
  };

  [[nodiscard]] Frame& FrameAt(uint32_t idx) { return arena_.At(idx); }
  [[nodiscard]] const Frame& FrameAt(uint32_t idx) const { return arena_.At(idx); }

  void LruUnlink(Frame& frame);
  void LruPushFront(Frame& frame);
  // Links a new frame so exactly min(depth, size) existing frames are colder than it.
  void LruInsertAtDepth(Frame& frame, uint32_t depth);
  // The shared construction path of Insert and InsertPrefetched for a page not yet
  // cached: evict under capacity pressure, build the frame, link at `lru_depth`
  // (kMruDepth = MRU), index. Callers bump the region themselves.
  static constexpr uint32_t kMruDepth = UINT32_MAX;
  std::optional<Eviction> EmplaceNewFrame(uint64_t page, bool writable,
                                          const PageData* bytes, ProtDomainId pdid,
                                          bool prefetched, uint32_t lru_depth);
  void IndexSetPage(uint64_t page);
  void IndexClearPage(uint64_t page);
  // Advances the global version and records it as `page`'s region version.
  void BumpRegion(uint64_t page) { region_versions_.Upsert(RegionOf(page), ++version_); }
  // Removes the frame at `idx` from every structure; returns its eviction record.
  Eviction RemoveFrame(uint32_t idx);

  // Calls fn(page) for every cached page in [page_begin, page_end) in ascending order,
  // walking the per-region bitmaps word by word with the range boundaries masked off.
  // `kMutates` permits fn to remove the visited page (and thus its region).
  template <bool kMutates, typename Fn>
  void ForEachPageInRange(uint64_t page_begin, uint64_t page_end, Fn&& fn) const;

  // Allocates an arena payload slot holding a copy of `bytes` (or zeros).
  [[nodiscard]] PagePtr MakePayload(const PageData* bytes);

  uint64_t capacity_;
  bool store_data_;
  PagePool pool_;              // Payload slab arena (store_data only).
  FlatMap64<uint32_t> index_;  // Page number -> arena slot.
  ChunkedArena<Frame, /*kChunkShift=*/12> arena_;
  uint32_t lru_head_ = kNilFrame;  // Most recently used.
  uint32_t lru_tail_ = kNilFrame;  // Least recently used.
  uint64_t version_ = 0;           // Global mutation ordinal feeding region_version().
  // Region number -> last mutation version (never erased; see region_version()).
  FlatMap64<uint64_t> region_versions_;
  // Invalidation-only versions (see region_inval_version): narrow InvalidateRange calls
  // bump the overlapped regions' entries; calls spanning > kWideInvalRegions regions bump
  // the wide epoch once instead.
  FlatMap64<uint64_t> region_inval_versions_;
  uint64_t wide_inval_version_ = 0;
  static constexpr uint64_t kWideInvalRegions = 32;
  std::unordered_map<uint64_t, Region> regions_;  // Region number -> presence bitmap.
};

}  // namespace mind

#endif  // MIND_SRC_BLADE_DRAM_CACHE_H_
