// In-network address translation (§4.1).
//
// MIND range-partitions the single global virtual address space across memory blades so that
// one translation entry per blade suffices: any VA inside a blade's range maps 1:1 onto that
// blade's physical space. Outlier entries — static binary addresses, migrated pages — are
// range translations held in TCAM, where longest-prefix matching guarantees the most specific
// entry wins. The rule count this table consumes is the quantity plotted in Fig. 8 (center).
#ifndef MIND_SRC_DATAPLANE_TRANSLATION_H_
#define MIND_SRC_DATAPLANE_TRANSLATION_H_

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"
#include "src/dataplane/tcam.h"

namespace mind {

struct Translation {
  MemoryBladeId blade = kInvalidMemoryBlade;
  PhysAddr phys_addr = 0;  // Physical address of the translated VA on that blade.
};

class AddressTranslator {
 public:
  // `tcam` is the shared rule-capacity pool (blade ranges + outliers all consume rules).
  explicit AddressTranslator(TcamCapacity* tcam) : capacity_(tcam), outliers_(tcam) {}

  // Registers a memory blade owning the contiguous VA range [va_start, va_start + size),
  // identity-mapped onto its physical range starting at 0. One rule per blade. The overlap
  // check consults only the two ordered-map neighbours, so registering B blades costs
  // O(B log B) total rather than the O(B^2) of a full scan per registration.
  Status AddBladeRange(MemoryBladeId blade, VirtAddr va_start, uint64_t size) {
    if (size == 0) {
      return Status(ErrorCode::kInvalidArgument, "empty blade range");
    }
    auto next = blade_ranges_.lower_bound(va_start);
    if (next != blade_ranges_.end() && next->first < va_start + size) {
      return Status(ErrorCode::kExists, "overlapping blade range");
    }
    if (next != blade_ranges_.begin()) {
      const auto prev = std::prev(next);
      if (prev->first + prev->second.size > va_start) {
        return Status(ErrorCode::kExists, "overlapping blade range");
      }
    }
    if (capacity_ != nullptr && !capacity_->TryReserve()) {
      return Status(ErrorCode::kResourceExhausted, "no TCAM capacity for blade range");
    }
    blade_ranges_.emplace_hint(next, va_start, BladeRange{blade, size});
    return Status::Ok();
  }

  Status RemoveBladeRange(VirtAddr va_start) {
    if (blade_ranges_.erase(va_start) == 0) {
      return Status(ErrorCode::kNotFound);
    }
    if (capacity_ != nullptr) {
      capacity_->Release();
    }
    return Status::Ok();
  }

  // Installs an outlier translation: the aligned 2^size_log2 range at `va_base` maps to
  // (blade, pa_base) instead of the enclosing blade range. Used for static virtual addresses
  // embedded in binaries and for page migration (§4.1, "Transparency via outlier entries").
  Status AddOutlier(VirtAddr va_base, uint32_t size_log2, MemoryBladeId blade,
                    PhysAddr pa_base) {
    return outliers_.InsertRange(va_base, size_log2, OutlierTarget{blade, pa_base, va_base});
  }

  Status RemoveOutlier(VirtAddr va_base, uint32_t size_log2) {
    return outliers_.RemoveRange(va_base, size_log2);
  }

  // Translates a VA. Outlier entries take precedence (longest-prefix match); otherwise the
  // enclosing blade range applies. Returns kFault if no mapping covers the address.
  [[nodiscard]] Result<Translation> Translate(VirtAddr va) const {
    if (const auto outlier = outliers_.Lookup(va); outlier.has_value()) {
      return Translation{outlier->blade, outlier->pa_base + (va - outlier->va_base)};
    }
    auto it = blade_ranges_.upper_bound(va);
    if (it == blade_ranges_.begin()) {
      return Status(ErrorCode::kFault, "address below all blade ranges");
    }
    --it;
    const auto& [start, range] = *it;
    if (va >= start + range.size) {
      return Status(ErrorCode::kFault, "address beyond blade range");
    }
    return Translation{range.blade, va - start};
  }

  // Total match-action rules consumed: one per blade range plus one per outlier entry.
  [[nodiscard]] uint64_t rule_count() const {
    return blade_ranges_.size() + outliers_.entries();
  }
  [[nodiscard]] uint64_t outlier_count() const { return outliers_.entries(); }
  [[nodiscard]] size_t blade_range_count() const { return blade_ranges_.size(); }

 private:
  struct BladeRange {
    MemoryBladeId blade = kInvalidMemoryBlade;
    uint64_t size = 0;
  };
  struct OutlierTarget {
    MemoryBladeId blade = kInvalidMemoryBlade;
    PhysAddr pa_base = 0;
    VirtAddr va_base = 0;
  };

  TcamCapacity* capacity_;
  std::map<VirtAddr, BladeRange> blade_ranges_;  // Keyed by range start.
  Tcam<OutlierTarget> outliers_;
};

}  // namespace mind

#endif  // MIND_SRC_DATAPLANE_TRANSLATION_H_
