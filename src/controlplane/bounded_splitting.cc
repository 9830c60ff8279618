#include "src/controlplane/bounded_splitting.h"

#include <algorithm>

namespace mind {

void BoundedSplitting::RunEpoch(SimTime now) {
  // A no-op unless forced on a config whose boundaries never fire.
  directory_->EnableEpochBookkeeping(config_.merge_quiet_epochs);
  ++stats_.epochs;

  const uint64_t total_false = directory_->epoch_false_invalidations();
  stats_.last_epoch_false_invalidations = total_false;

  const uint64_t n = std::max<uint64_t>(base_region_count_, 1);
  // Threshold t = Σf / (c · N). With no false invalidations anywhere, t is 0 and nothing
  // splits; merging still proceeds (under capacity pressure) to reclaim slots.
  const double t = static_cast<double>(total_false) / (c_ * static_cast<double>(n));
  stats_.last_threshold = t;

  const uint32_t min_log2 = Log2Floor(config_.min_region_size);
  const uint32_t max_log2 = Log2Floor(config_.base_region_size);
  const auto splits = [&](const DirectoryEntry& e) {
    const auto f = static_cast<double>(e.epoch_false_invalidations);
    return f > t && f >= 1.0 && e.size_log2 > min_log2;
  };

  // Splits: each qualifying region splits once per epoch. A split needs f >= 1, so only
  // the epoch-active entries can qualify; they come in ascending base order.
  std::vector<VirtAddr> split_candidates;
  directory_->ForEachEpochActive([&](const DirectoryEntry& e) {
    if (splits(e)) {
      split_candidates.push_back(e.base);
    }
  });

  // Merges: a buddy pair merges only when both halves have been quiet for
  // merge_quiet_epochs, its *combined* count stays well below t, their states are
  // compatible and slots are scarce. Only pairs on the watch-set can newly qualify: a pair
  // refused for any reason but slot plenty stays refused until one of the events that
  // watch it (see directory.h). Pairs watched while merging is off wait for it.
  directory_->ReleaseMatured();
  std::vector<VirtAddr> merge_candidates;
  if (directory_->utilization() > config_.merge_low_water) {
    const double merge_bound = std::max(config_.merge_fraction * t, 0.0);
    for (VirtAddr base : directory_->TakeWatchedPairs()) {
      const DirectoryEntry& lower = *directory_->Lookup(base);
      const DirectoryEntry& upper = *directory_->Lookup(base + lower.size());
      if (lower.size_log2 >= max_log2 || splits(lower) ||
          directory_->QuietEpochs(lower) < config_.merge_quiet_epochs ||
          directory_->QuietEpochs(upper) < config_.merge_quiet_epochs) {
        continue;
      }
      const double combined = static_cast<double>(lower.epoch_false_invalidations) +
                              static_cast<double>(upper.epoch_false_invalidations);
      if (combined <= merge_bound && CacheDirectory::StatesCompatible(lower, upper)) {
        merge_candidates.push_back(base);
      }
    }
  }

  // Merges run first so the slots they free are available to this epoch's splits.
  for (VirtAddr base : merge_candidates) {
    if (directory_->MergeWithBuddy(base, max_log2).ok()) {
      ++stats_.merges;
      if (trace_ != nullptr) [[unlikely]] {
        TraceEvent ev;
        ev.kind = TraceEventKind::kDirectoryMerge;
        ev.clock = now;  // The epoch boundary this decision belongs to.
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
      continue;  // Capacity-gated; AdjustC below will shrink c and raise t.
    }
    const DirectoryEntry* pre = trace_ != nullptr ? directory_->Lookup(base) : nullptr;
    const uint64_t pre_log2 = pre != nullptr ? pre->size_log2 : 0;
    if (directory_->Split(base).ok()) {
      ++stats_.splits;
      if (trace_ != nullptr) [[unlikely]] {
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

  // Entries still counting false invalidations end their quiet streak; all counts reset.
  directory_->EndEpoch();

  AdjustC();
  stats_.current_c = c_;
}

void BoundedSplitting::AdjustC() {
  // Larger c => lower threshold => more splits and more entries. Shrink it when the SRAM
  // nears capacity; grow it when there is headroom to split further.
  const double util = directory_->utilization();
  if (util >= config_.target_utilization) {
    c_ = std::max(c_ / 2.0, config_.min_c);
  } else if (util < config_.low_utilization) {
    c_ = std::min(c_ * 2.0, config_.max_c);
  }
}

}  // namespace mind
