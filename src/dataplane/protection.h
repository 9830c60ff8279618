// Domain-based memory protection (§4.2).
//
// MIND decouples protection from translation: a protection entry maps <PDID, vma> to a
// permission class, held in TCAM. Because TCAM entries match only aligned power-of-two
// ranges, an arbitrary vma is decomposed into at most 2*log2(size) such entries (the paper
// bounds it by ceil(log2 s) because the control plane aligns allocations to power-of-two
// sizes; we support both aligned and unaligned grants). Adjacent entries of the same domain
// and class are coalesced to reclaim TCAM space.
#ifndef MIND_SRC_DATAPLANE_PROTECTION_H_
#define MIND_SRC_DATAPLANE_PROTECTION_H_

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "src/common/bitops.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/dataplane/tcam.h"

namespace mind {

class ProtectionTable {
 public:
  explicit ProtectionTable(TcamCapacity* capacity) : capacity_(capacity) {}

  // Grants `pc` to protection domain `pdid` over [base, base + size). The range is split
  // into aligned power-of-two TCAM entries; adjacent same-class entries are coalesced.
  Status Grant(ProtDomainId pdid, VirtAddr base, uint64_t size, PermClass pc);

  // Revokes any permission entries of `pdid` intersecting [base, base + size).
  // Entries straddling the boundary are split so the revocation is exact.
  Status Revoke(ProtDomainId pdid, VirtAddr base, uint64_t size);

  // Data-plane permission check on a memory access request. Missing entry => kNone.
  [[nodiscard]] PermClass Check(ProtDomainId pdid, VirtAddr va) const;

  [[nodiscard]] bool Allows(ProtDomainId pdid, VirtAddr va, AccessType access) const {
    return Permits(Check(pdid, va), access);
  }

  // Total TCAM entries across all domains — the protection share of Fig. 8 (center).
  [[nodiscard]] uint64_t rule_count() const { return rule_count_; }

  // Monotonic mutation counter, bumped by every Grant/Revoke (even failed ones — the
  // counter over-approximates change, which is always safe for cache invalidation). The
  // rack's channels stamp this on every submitted run, so a grant or revoke invalidates
  // runs classified under the old permissions.
  [[nodiscard]] uint64_t version() const { return version_; }

  // Decomposes [base, base+size) into aligned power-of-two pieces (exposed for tests:
  // the piece count must not exceed 2 * ceil(log2(size)) + 1).
  struct Piece {
    VirtAddr base;
    uint32_t size_log2;
  };
  static std::vector<Piece> DecomposeRange(VirtAddr base, uint64_t size);

 private:
  // Per-domain interval map: key = range start, value = {size, pc}. The TCAM capacity pool
  // is charged one rule per power-of-two piece of each interval.
  struct Interval {
    uint64_t size = 0;
    PermClass pc = PermClass::kNone;
  };
  using IntervalMap = std::map<VirtAddr, Interval>;

  [[nodiscard]] static uint64_t PieceCount(VirtAddr base, uint64_t size) {
    return DecomposeRange(base, size).size();
  }

  // Charges/releases TCAM rules for an interval; returns false if capacity exhausted.
  bool ChargeRules(VirtAddr base, uint64_t size);
  void ReleaseRules(VirtAddr base, uint64_t size);

  // Coalesces `it` with neighbours of equal permission class. Returns iterator to the
  // (possibly merged) interval.
  IntervalMap::iterator Coalesce(IntervalMap& map, IntervalMap::iterator it);

  TcamCapacity* capacity_;
  std::unordered_map<ProtDomainId, IntervalMap> domains_;
  uint64_t rule_count_ = 0;
  uint64_t version_ = 0;
};

}  // namespace mind

#endif  // MIND_SRC_DATAPLANE_PROTECTION_H_
