// In-network cache directory (§4.3, §6.3).
//
// The directory tracks *variable-sized regions* — not pages — so the whole thing fits in the
// switch ASIC's SRAM slot budget (30k entries in the paper's deployment). Each entry carries
// the MSI state, the owner, the sharer bitmap, and the epoch counter the bounded-splitting
// algorithm (§5) consumes. Entries are created lazily at the configured initial region size
// when a region is first cached, split/merged by the control plane between epochs, and
// evicted (with a forced invalidation, performed by the caller) under capacity pressure.
//
// Lookup is the per-access hot path and models one match-action stage: an active-size-class
// bitmap names the region sizes currently present; for each live class (bit-scan, cheapest
// first) the address is aligned down to that class and probed in a flat open-addressed hash
// keyed by region base. Regions never overlap, so at most one class can contain the address
// and the first containing probe wins — O(popcount(active classes)) probes, no tree descent.
// Entries live in a chunked arena so pointers stay stable across create/remove/rehash. An
// ordered side-index (base -> arena slot) is maintained off the hot path for ForEach, range
// removal, the Create overlap check and buddy merges; the CLOCK eviction sweep resumes by
// arena slot and skips dead slots with a word-level bit-scan of the live bitmap, so sparse
// arenas cost O(words) per sweep rather than a linear slot walk.
//
// Epoch bookkeeping. Every change a bounded-splitting decision depends on happens here, so
// the directory keeps what an epoch boundary needs and the boundary costs O(entries that
// changed), not O(directory):
//   - the running total Σf of this epoch's false invalidations (AddFalseInvalidations adds,
//     Remove and Split subtract, Merge moves a count between halves);
//   - the epoch-active list: entries whose count went nonzero this epoch. Only they can
//     split (a split needs f >= 1), and only their quiet streak ends at the boundary;
//   - a `quiet_since` stamp per entry: the quiet streak is the epochs ended since it,
//     so a streak costs nothing to maintain;
//   - the merge watch-set: entries whose buddy pair may have become mergeable since it was
//     last examined. Only entries quiet for the merge hysteresis bound are watched: Create,
//     Split and Merge watch the pair they form, the rack watches an entry after each
//     coherence-state commit, and a pending maturity event watches an entry the epoch its
//     quiet streak reaches the bound. A pair examined and refused is not looked at again
//     until one of those events names it; while merging is off (slots plentiful) the set
//     waits, unexamined.
// The bookkeeping is off until BoundedSplitting turns it on, so a directory whose splitting
// is disabled records nothing beyond the per-entry counter and the total.
#ifndef MIND_SRC_DATAPLANE_DIRECTORY_H_
#define MIND_SRC_DATAPLANE_DIRECTORY_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "src/common/bitops.h"
#include "src/common/chunked_arena.h"
#include "src/common/flat_map.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/dataplane/stt.h"

namespace mind {

struct DirectoryEntry {
  VirtAddr base = 0;
  uint32_t size_log2 = 0;
  MsiState state = MsiState::kInvalid;
  bool watched = false;  // On the directory's merge watch-set (dedupes it).
  ComputeBladeId owner = kInvalidComputeBlade;
  SharerMask sharers = 0;

  // Region lock: while a transition with invalidations is in flight the region is "busy";
  // conflicting requests queue behind this horizon (transient-state blocking).
  SimTime busy_until = 0;
  SimTime last_active = 0;

  // Bounded splitting (§5): pages falsely invalidated this epoch. Only the directory
  // changes it (callers add through CacheDirectory::AddFalseInvalidations), so the
  // running total and the active list stay in step with it.
  uint64_t epoch_false_invalidations = 0;
  // Epoch count since which the region has had no false invalidation (the streak is
  // CacheDirectory::QuietEpochs); merge hysteresis reads it so a momentarily-quiet hot
  // region is not merged back just to re-split next epoch.
  uint32_t quiet_since = 0;

  [[nodiscard]] uint64_t size() const { return uint64_t{1} << size_log2; }
  [[nodiscard]] VirtAddr end() const { return base + size(); }
  [[nodiscard]] bool Contains(VirtAddr va) const { return va >= base && va < end(); }

  [[nodiscard]] bool OwnerHeld() const {
    return state == MsiState::kModified || state == MsiState::kExclusive;
  }

  [[nodiscard]] RequestorRole RoleOf(ComputeBladeId blade) const {
    if (OwnerHeld() && owner == blade) {
      return RequestorRole::kOwner;
    }
    if ((sharers & BladeBit(blade)) != 0) {
      return RequestorRole::kSharer;
    }
    return RequestorRole::kNone;
  }
};

class CacheDirectory {
 public:
  explicit CacheDirectory(uint32_t capacity_slots) : capacity_(capacity_slots) {}

  // Returns the entry whose region contains `va`, or nullptr if none exists (region is in
  // the implicit I state). Entry pointers are stable until the entry is removed or merged.
  [[nodiscard]] DirectoryEntry* Lookup(VirtAddr va) {
    uint64_t mask = active_classes_;
    while (mask != 0) {
      const uint32_t log2 = LowestSetBit(mask);
      mask &= mask - 1;
      const VirtAddr base = va & ~((uint64_t{1} << log2) - 1);
      if (const uint32_t* idx = by_base_.Find(base); idx != nullptr) {
        DirectoryEntry& e = EntryAt(*idx);
        if (e.Contains(va)) {
          return &e;
        }
      }
    }
    return nullptr;
  }
  [[nodiscard]] const DirectoryEntry* Lookup(VirtAddr va) const {
    return const_cast<CacheDirectory*>(this)->Lookup(va);
  }

  // Creates an entry for the aligned region [base, base + 2^size_log2). Fails with
  // kResourceExhausted when the directory holds capacity() entries (caller should evict)
  // and kExists when the region would overlap an existing entry.
  Result<DirectoryEntry*> Create(VirtAddr base, uint32_t size_log2);

  // Removes the entry at `base`, freeing its slot.
  Status Remove(VirtAddr base);

  // Removes every entry overlapping [begin, end), in ascending base order, and returns how
  // many it removed. Walks the ordered index from the entry before `begin` (which may
  // straddle it) to `end`, so the cost is the range's entries, not the directory's.
  uint64_t RemoveRange(VirtAddr begin, VirtAddr end);

  // Splits the region at `base` into two buddies; the upper half takes a fresh slot.
  // Children inherit state/owner/sharers/busy horizon and the quiet stamp conservatively;
  // both start the epoch count at zero. Fails when the region is already at the 4 KB floor
  // or when the directory is full.
  Status Split(VirtAddr base);

  // Merges the region at `base` with its buddy if the buddy exists, both are the same size,
  // their union is aligned, the merged size would not exceed `max_size_log2`, and their
  // coherence states are compatible (no conflicting owners). Frees the upper buddy's slot;
  // the lower keeps its quiet stamp and takes the sum of both epoch counts.
  Status MergeWithBuddy(VirtAddr base, uint32_t max_size_log2);

  // True if the two entries' states can be merged conservatively.
  [[nodiscard]] static bool StatesCompatible(const DirectoryEntry& a, const DirectoryEntry& b);

  // Picks a victim entry for capacity eviction: a CLOCK-style cursor sweep that prefers the
  // stalest entry among the next `scan_limit` entries that are not busy at `now`. Returns
  // nullopt when every scanned entry is busy. The cursor is an arena slot, so resuming is
  // O(1) and a removed cursor entry is skipped naturally instead of derailing the sweep.
  [[nodiscard]] std::optional<VirtAddr> FindEvictionVictim(SimTime now, int scan_limit = 64);

  // Iteration for the control plane (stats sampling), in ascending region-base order via
  // the ordered side-index.
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (auto& [base, idx] : ordered_) {
      fn(EntryAt(idx));
    }
  }

  // --- Epoch bookkeeping for bounded splitting (see the header comment). ---

  // Turns the bookkeeping on (idempotent) for a merge hysteresis of `merge_quiet_epochs`:
  // only entries quiet that long are watched. Entries that already exist are treated as
  // if just created.
  void EnableEpochBookkeeping(uint32_t merge_quiet_epochs);

  // Adds `n` falsely invalidated pages to `e`'s epoch count and to the running total; the
  // first nonzero add of the epoch puts `e` on the active list.
  void AddFalseInvalidations(DirectoryEntry& e, uint64_t n);

  // Puts `e`'s buddy pair on the merge watch-set, unless `e` is short of the quiet bound
  // (its maturity event watches it later). The rack calls this after every
  // coherence-state commit: a pair refused for incompatible states can only become
  // compatible there.
  void Watch(DirectoryEntry& e);

  // Σ epoch_false_invalidations over live entries.
  [[nodiscard]] uint64_t epoch_false_invalidations() const { return epoch_false_total_; }
  // Consecutive ended epochs in which `e` had no false invalidation (since its creation
  // if it never had one).
  [[nodiscard]] uint32_t QuietEpochs(const DirectoryEntry& e) const {
    return epochs_ended_ - e.quiet_since;
  }

  // Visits every entry with a nonzero epoch count, in ascending base order.
  template <typename Fn>
  void ForEachEpochActive(Fn&& fn) {
    std::sort(active_.begin(), active_.end());
    active_.erase(std::unique(active_.begin(), active_.end()), active_.end());
    for (VirtAddr base : active_) {
      if (DirectoryEntry* e = AtBase(base); e != nullptr && e->epoch_false_invalidations != 0) {
        fn(*e);
      }
    }
  }

  // Watches the entries whose quiet streak has just reached the bound. Run it every
  // epoch, whether or not merging is active, so pending maturity events are consumed.
  void ReleaseMatured();

  // Empties the watch-set into the lower bases of the buddy pairs it names that exist
  // (two same-size halves), ascending and deduplicated.
  [[nodiscard]] std::vector<VirtAddr> TakeWatchedPairs();

  // Closes the epoch: every entry with a nonzero count restarts its quiet streak at the
  // next epoch and has its count reset; the total and the active list empty.
  void EndEpoch();

  // Live entries, the SRAM slot budget, and the most entries ever live at once. Only the
  // count of used slots is modelled: the switch's free list and base -> slot map (§6.3)
  // decide nothing any result depends on.
  [[nodiscard]] uint64_t entry_count() const { return by_base_.size(); }
  [[nodiscard]] uint64_t capacity() const { return capacity_; }
  [[nodiscard]] double utilization() const {
    return capacity_ == 0 ? 0.0
                          : static_cast<double>(entry_count()) / static_cast<double>(capacity_);
  }
  [[nodiscard]] uint64_t high_water() const { return high_water_; }

 private:
  [[nodiscard]] DirectoryEntry& EntryAt(uint32_t idx) { return arena_.At(idx); }
  [[nodiscard]] DirectoryEntry* AtBase(VirtAddr base) {
    const uint32_t* idx = by_base_.Find(base);
    return idx != nullptr ? &EntryAt(*idx) : nullptr;
  }

  uint32_t AllocIndex();
  void FreeIndex(uint32_t idx);
  void AddToClass(uint32_t size_log2);
  void RemoveFromClass(uint32_t size_log2);
  [[nodiscard]] bool Matured(uint32_t quiet_since) const {
    return uint64_t{quiet_since} + merge_quiet_epochs_ <= epochs_ended_;
  }
  // Watches `e` if its stamp has matured, else schedules the maturity event.
  void RecordMaturity(DirectoryEntry& e);

  // Hot-path index: region base -> arena slot, probed per active size class.
  FlatMap64<uint32_t> by_base_;
  uint64_t active_classes_ = 0;             // Bit i set <=> a live entry has size_log2 == i.
  std::array<uint32_t, 64> class_counts_{};

  // Stable entry storage; `live_` marks occupied slots for the CLOCK sweep.
  ChunkedArena<DirectoryEntry, /*kChunkShift=*/10> arena_;
  std::vector<uint64_t> live_;

  // Ordered side-index (base -> arena slot), maintained off the hot path.
  std::map<VirtAddr, uint32_t> ordered_;

  uint64_t capacity_;
  uint64_t high_water_ = 0;
  uint32_t clock_idx_ = 0;   // Arena slot where the next eviction sweep resumes.

  // Epoch bookkeeping. The lists hold bases, not slots: an entry removed since it was
  // listed is skipped when its base no longer resolves (or resolves to a newer entry,
  // which is harmless to revisit).
  bool bookkeeping_ = false;
  uint32_t merge_quiet_epochs_ = 0;
  // Epoch boundaries ended so far: the clock quiet stamps are taken on. 32 bits keep a
  // streak exact for 2^32 epochs (248 days at a 5 ms epoch).
  uint32_t epochs_ended_ = 0;
  uint64_t epoch_false_total_ = 0;
  std::vector<VirtAddr> active_;
  std::vector<VirtAddr> watched_;
  // Min-heap of (quiet stamp, base): one pending event per stamp an entry was given while
  // short of the bound, so a streak reaching it is noticed the epoch it happens.
  std::vector<std::pair<uint32_t, VirtAddr>> maturing_;
};

}  // namespace mind

#endif  // MIND_SRC_DATAPLANE_DIRECTORY_H_
