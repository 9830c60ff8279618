#include "src/dataplane/directory.h"

#include <algorithm>
#include <cassert>
#include <functional>

namespace mind {

uint32_t CacheDirectory::AllocIndex() {
  const uint32_t idx = arena_.Alloc();
  if (live_.size() * 64 <= idx) {
    live_.resize(static_cast<size_t>(idx) / 64 + 1, 0);
  }
  live_[idx >> 6] |= uint64_t{1} << (idx & 63);
  return idx;
}

void CacheDirectory::FreeIndex(uint32_t idx) {
  live_[idx >> 6] &= ~(uint64_t{1} << (idx & 63));
  arena_.Free(idx);
}

void CacheDirectory::AddToClass(uint32_t size_log2) {
  if (class_counts_[size_log2]++ == 0) {
    active_classes_ |= uint64_t{1} << size_log2;
  }
}

void CacheDirectory::RemoveFromClass(uint32_t size_log2) {
  assert(class_counts_[size_log2] > 0);
  if (--class_counts_[size_log2] == 0) {
    active_classes_ &= ~(uint64_t{1} << size_log2);
  }
}

Result<DirectoryEntry*> CacheDirectory::Create(VirtAddr base, uint32_t size_log2) {
  if (size_log2 < kPageShift || size_log2 > 63 ||
      !IsAligned(base, uint64_t{1} << size_log2)) {
    return Status(ErrorCode::kInvalidArgument, "bad region geometry");
  }
  const VirtAddr end = base + (uint64_t{1} << size_log2);
  // Overlap check against neighbours in the ordered side-index.
  auto it = ordered_.upper_bound(base);
  if (it != ordered_.end() && it->first < end) {
    return Status(ErrorCode::kExists, "region overlaps successor");
  }
  if (it != ordered_.begin()) {
    auto prev = std::prev(it);
    if (EntryAt(prev->second).end() > base) {
      return Status(ErrorCode::kExists, "region overlaps predecessor");
    }
  }
  if (entry_count() == capacity_) {
    return Status(ErrorCode::kResourceExhausted, "directory SRAM full");
  }
  const uint32_t idx = AllocIndex();
  DirectoryEntry& entry = EntryAt(idx);
  entry = DirectoryEntry{};  // Arena slots are reused; reset every field.
  entry.base = base;
  entry.size_log2 = size_log2;
  entry.quiet_since = epochs_ended_;
  by_base_.Upsert(base, idx);
  high_water_ = std::max(high_water_, entry_count());
  ordered_.emplace_hint(it, base, idx);
  AddToClass(size_log2);
  RecordMaturity(entry);
  return &entry;
}

Status CacheDirectory::Remove(VirtAddr base) {
  const uint32_t* idxp = by_base_.Find(base);
  if (idxp == nullptr) {
    return Status(ErrorCode::kNotFound);
  }
  const uint32_t idx = *idxp;
  epoch_false_total_ -= EntryAt(idx).epoch_false_invalidations;
  RemoveFromClass(EntryAt(idx).size_log2);
  by_base_.Erase(base);
  ordered_.erase(base);
  FreeIndex(idx);
  return Status::Ok();
}

uint64_t CacheDirectory::RemoveRange(VirtAddr begin, VirtAddr end) {
  auto it = ordered_.lower_bound(begin);
  if (it != ordered_.begin() && EntryAt(std::prev(it)->second).end() > begin) {
    --it;  // The predecessor straddles `begin`.
  }
  uint64_t removed = 0;
  while (it != ordered_.end() && it->first < end) {
    const VirtAddr base = it->first;
    ++it;  // Remove erases only `base`'s node, so the successor stays valid.
    (void)Remove(base);
    ++removed;
  }
  return removed;
}

Status CacheDirectory::Split(VirtAddr base) {
  const uint32_t* idxp = by_base_.Find(base);
  if (idxp == nullptr) {
    return Status(ErrorCode::kNotFound);
  }
  DirectoryEntry& parent = EntryAt(*idxp);
  if (parent.size_log2 <= kPageShift) {
    return Status(ErrorCode::kInvalidArgument, "region already at 4KB floor");
  }
  const uint32_t child_log2 = parent.size_log2 - 1;
  const VirtAddr upper_base = base + (uint64_t{1} << child_log2);

  if (entry_count() == capacity_) {
    return Status(ErrorCode::kResourceExhausted, "directory SRAM full");
  }

  const uint32_t upper_idx = AllocIndex();
  DirectoryEntry& upper = EntryAt(upper_idx);
  upper = parent;  // Children inherit coherence state and the quiet stamp conservatively.
  upper.base = upper_base;
  upper.size_log2 = child_log2;
  upper.epoch_false_invalidations = 0;
  upper.watched = false;

  RemoveFromClass(parent.size_log2);
  parent.size_log2 = child_log2;
  epoch_false_total_ -= parent.epoch_false_invalidations;
  parent.epoch_false_invalidations = 0;
  AddToClass(child_log2);
  AddToClass(child_log2);

  by_base_.Upsert(upper_base, upper_idx);
  ordered_.emplace(upper_base, upper_idx);
  high_water_ = std::max(high_water_, entry_count());
  // The lower half keeps the parent's base, stamp and pending maturity event; the upper
  // half needs its own, or a pair formed by splitting it again would never be examined
  // when it matures. If the stamp has matured, this watches the new pair instead.
  RecordMaturity(upper);
  return Status::Ok();
}

bool CacheDirectory::StatesCompatible(const DirectoryEntry& a, const DirectoryEntry& b) {
  // Merging must not create a region with two owners or an owner plus foreign sharers.
  // E (MESI) counts as owner-held, exactly like M.
  const bool a_owned = a.OwnerHeld();
  const bool b_owned = b.OwnerHeld();
  if (a_owned && b_owned) {
    return a.owner == b.owner;
  }
  if (a_owned) {
    // Owner + shared copies on other blades cannot merge into a single state.
    return b.state == MsiState::kInvalid || b.sharers == BladeBit(a.owner);
  }
  if (b_owned) {
    return a.state == MsiState::kInvalid || a.sharers == BladeBit(b.owner);
  }
  return true;  // I/S combinations merge via sharer-list union.
}

Status CacheDirectory::MergeWithBuddy(VirtAddr base, uint32_t max_size_log2) {
  const uint32_t* idxp = by_base_.Find(base);
  if (idxp == nullptr) {
    return Status(ErrorCode::kNotFound);
  }
  const uint32_t idx = *idxp;
  DirectoryEntry& entry = EntryAt(idx);
  if (entry.size_log2 >= max_size_log2) {
    return Status(ErrorCode::kInvalidArgument, "at maximum region size");
  }
  const uint64_t size = entry.size();
  const VirtAddr buddy_base = base ^ size;
  const uint32_t* buddy_idxp = by_base_.Find(buddy_base);
  if (buddy_idxp == nullptr || EntryAt(*buddy_idxp).size_log2 != entry.size_log2) {
    return Status(ErrorCode::kNotFound, "no same-size buddy");
  }
  const uint32_t buddy_idx = *buddy_idxp;
  DirectoryEntry& buddy = EntryAt(buddy_idx);
  if (!StatesCompatible(entry, buddy)) {
    return Status(ErrorCode::kInvalidArgument, "incompatible coherence states");
  }

  DirectoryEntry& lower = base < buddy_base ? entry : buddy;
  DirectoryEntry& upper = base < buddy_base ? buddy : entry;
  const uint32_t upper_idx = base < buddy_base ? buddy_idx : idx;

  // Merged state: M > E > S > I; sharer lists union; owner follows the dominant state.
  auto rank = [](MsiState st) {
    switch (st) {
      case MsiState::kInvalid:
        return 0;
      case MsiState::kShared:
        return 1;
      case MsiState::kExclusive:
        return 2;
      case MsiState::kModified:
        return 3;
    }
    return 0;
  };
  if (rank(upper.state) > rank(lower.state)) {
    lower.state = upper.state;
    lower.owner = upper.owner;
  }
  lower.sharers |= upper.sharers;
  lower.busy_until = std::max(lower.busy_until, upper.busy_until);
  lower.last_active = std::max(lower.last_active, upper.last_active);
  if (bookkeeping_ && lower.epoch_false_invalidations == 0 &&
      upper.epoch_false_invalidations != 0) {
    active_.push_back(lower.base);
  }
  lower.epoch_false_invalidations += upper.epoch_false_invalidations;

  RemoveFromClass(lower.size_log2);
  RemoveFromClass(upper.size_log2);
  lower.size_log2 += 1;
  AddToClass(lower.size_log2);
  Watch(lower);

  const VirtAddr upper_key = upper.base;
  by_base_.Erase(upper_key);
  ordered_.erase(upper_key);
  FreeIndex(upper_idx);
  return Status::Ok();
}

void CacheDirectory::RecordMaturity(DirectoryEntry& e) {
  if (!bookkeeping_) {
    return;
  }
  if (Matured(e.quiet_since)) {
    Watch(e);
  } else {
    maturing_.emplace_back(e.quiet_since, e.base);
    std::push_heap(maturing_.begin(), maturing_.end(), std::greater<>());
  }
}

void CacheDirectory::EnableEpochBookkeeping(uint32_t merge_quiet_epochs) {
  if (bookkeeping_) {
    return;
  }
  bookkeeping_ = true;
  merge_quiet_epochs_ = merge_quiet_epochs;
  // Sized once here rather than grown from empty during a replay. Growth leaves a trail of
  // small freed blocks in the heap; on mindbench blade_resident that fragmentation made the
  // next rep's trace buffers come from fresh mmaps (page faults), and setup_s read ~30%
  // higher.
  active_.reserve(1024);
  watched_.reserve(1024);
  maturing_.reserve(1024);
  ForEach([&](DirectoryEntry& e) {
    if (e.epoch_false_invalidations != 0) {
      active_.push_back(e.base);
    }
    RecordMaturity(e);
  });
}

void CacheDirectory::AddFalseInvalidations(DirectoryEntry& e, uint64_t n) {
  if (bookkeeping_ && e.epoch_false_invalidations == 0 && n != 0) {
    active_.push_back(e.base);
  }
  e.epoch_false_invalidations += n;
  epoch_false_total_ += n;
}

void CacheDirectory::Watch(DirectoryEntry& e) {
  // An entry short of the quiet bound cannot merge yet; its maturity event watches it.
  if (!bookkeeping_ || e.watched || !Matured(e.quiet_since)) {
    return;
  }
  e.watched = true;
  watched_.push_back(e.base);
  // While merging is off nothing drains the set, and bases of removed entries linger:
  // drop them once they outnumber the live entries, so the set stays O(entries).
  if (watched_.size() > 2 * by_base_.size() + 64) {
    std::sort(watched_.begin(), watched_.end());
    watched_.erase(std::unique(watched_.begin(), watched_.end()), watched_.end());
    std::erase_if(watched_, [&](VirtAddr base) {
      const DirectoryEntry* w = AtBase(base);
      return w == nullptr || !w->watched;
    });
  }
}

void CacheDirectory::ReleaseMatured() {
  while (!maturing_.empty() && Matured(maturing_.front().first)) {
    // A newer stamp means the streak restarted: Watch skips it, and that stamp has its
    // own pending event.
    if (DirectoryEntry* e = AtBase(maturing_.front().second); e != nullptr) {
      Watch(*e);
    }
    std::pop_heap(maturing_.begin(), maturing_.end(), std::greater<>());
    maturing_.pop_back();
  }
}

std::vector<VirtAddr> CacheDirectory::TakeWatchedPairs() {
  std::vector<VirtAddr> pairs;
  for (VirtAddr base : watched_) {
    DirectoryEntry* e = AtBase(base);
    if (e == nullptr || !e->watched) {
      continue;  // Removed, or a duplicate already taken.
    }
    e->watched = false;
    const DirectoryEntry* buddy = AtBase(base ^ e->size());
    if (buddy != nullptr && buddy->size_log2 == e->size_log2) {
      pairs.push_back(base & ~e->size());
    }
  }
  watched_.clear();
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  return pairs;
}

void CacheDirectory::EndEpoch() {
  ++epochs_ended_;
  for (VirtAddr base : active_) {
    DirectoryEntry* e = AtBase(base);
    if (e == nullptr || e->epoch_false_invalidations == 0) {
      continue;  // Removed, split (counts zeroed), or a duplicate already reset.
    }
    e->epoch_false_invalidations = 0;
    e->quiet_since = epochs_ended_;
    RecordMaturity(*e);
  }
  active_.clear();
  epoch_false_total_ = 0;
}

std::optional<VirtAddr> CacheDirectory::FindEvictionVictim(SimTime now, int scan_limit) {
  const uint64_t count = by_base_.size();
  if (count == 0) {
    return std::nullopt;
  }
  if (clock_idx_ >= arena_.size()) {
    clock_idx_ = 0;
  }
  const uint64_t to_scan =
      std::min<uint64_t>(static_cast<uint64_t>(std::max(scan_limit, 0)), count);
  if (to_scan == 0) {
    return std::nullopt;
  }
  std::optional<VirtAddr> best;
  SimTime best_age = 0;
  uint64_t scanned = 0;
  // Word-level bit-scan over the live bitmap: the sweep jumps dead slots 64 at a time, so
  // a sparse arena (a 10M-slot PSO+ directory after mass teardown) costs O(words), not
  // O(slots). Visit order is the same cyclic live-slot order as a linear walk: starting at
  // the cursor's word with the bits below the cursor masked off, then whole words with
  // wraparound; one full cycle visits every live entry exactly once, and to_scan <= count
  // stops the sweep before any repeat.
  const size_t words = live_.size();
  size_t w = static_cast<size_t>(clock_idx_) >> 6;
  uint64_t word = live_[w] & (~uint64_t{0} << (clock_idx_ & 63));
  uint32_t idx = clock_idx_;
  while (scanned < to_scan) {
    if (word == 0) {
      w = (w + 1 == words) ? 0 : w + 1;
      word = live_[w];
      continue;
    }
    idx = static_cast<uint32_t>(w * 64) + static_cast<uint32_t>(LowestSetBit(word));
    word &= word - 1;
    const DirectoryEntry& e = EntryAt(idx);
    ++scanned;
    if (e.busy_until <= now) {
      const SimTime age = now >= e.last_active ? now - e.last_active : 0;
      if (!best.has_value() || age > best_age) {
        best = e.base;
        best_age = age;
      }
    }
  }
  clock_idx_ = (idx + 1 >= arena_.size()) ? 0 : idx + 1;
  return best;
}

}  // namespace mind
