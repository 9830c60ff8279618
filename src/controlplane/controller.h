// Switch control-plane controller (§3.2, §6.3).
//
// The switch CPU hosts the MIND control program: it terminates syscall intercepts from the
// compute blades (mmap/brk/munmap/mprotect/exec/exit), keeps the canonical vma and process
// structures, performs balanced memory allocation, and pushes the resulting translation and
// protection rules into the data plane. It has the global view principle P2 relies on.
#ifndef MIND_SRC_CONTROLPLANE_CONTROLLER_H_
#define MIND_SRC_CONTROLPLANE_CONTROLLER_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "src/common/status.h"
#include "src/common/types.h"
#include "src/controlplane/allocator.h"
#include "src/controlplane/bounded_splitting.h"
#include "src/controlplane/process_manager.h"
#include "src/dataplane/protection.h"
#include "src/dataplane/translation.h"

namespace mind {

struct VmaRecord {
  VmaAllocation alloc;
  ProcessId pid = kInvalidProcess;
  ProtDomainId pdid = 0;
  PermClass perm = PermClass::kNone;

  [[nodiscard]] VirtAddr base() const { return alloc.base; }
  [[nodiscard]] uint64_t size() const { return alloc.size; }
  [[nodiscard]] VirtAddr end() const { return alloc.base + alloc.size; }
};

class Controller {
 public:
  Controller(AddressTranslator* translator, ProtectionTable* protection,
             BoundedSplitting* splitting, int num_compute_blades,
             AllocatorConfig alloc_config = {})
      : translator_(translator),
        protection_(protection),
        splitting_(splitting),
        allocator_(alloc_config),
        processes_(num_compute_blades) {}

  // Brings a memory blade online: reserves its VA partition and installs the single
  // blade-range translation rule (§4.1).
  Status MemoryBladeOnline(MemoryBladeId blade, uint64_t capacity_bytes);

  // --- Syscall surface (Linux-compatible semantics, §6.1) ---

  Result<ProcessId> Exec(const std::string& name) { return processes_.Exec(name); }
  Status Exit(ProcessId pid);

  Result<ProcessManager::ThreadPlacement> SpawnThread(
      ProcessId pid, ComputeBladeId pinned = kInvalidComputeBlade) {
    return processes_.SpawnThread(pid, pinned);
  }

  // mmap: allocates `size` bytes, grants `perm` to the process's protection domain.
  Result<VirtAddr> Mmap(ProcessId pid, uint64_t size, PermClass perm);

  // munmap of an entire previously mmap'd vma.
  Status Munmap(ProcessId pid, VirtAddr base);

  // mprotect over [base, base+size) — must lie inside one vma of this process.
  Status Mprotect(ProcessId pid, VirtAddr base, uint64_t size, PermClass perm);

  // Capability-style grant: share [base, base+size) of pid's vma with another protection
  // domain (e.g. one domain per client session, §4.2).
  Status GrantToDomain(ProcessId owner, ProtDomainId grantee, VirtAddr base, uint64_t size,
                       PermClass perm);
  Status RevokeFromDomain(ProtDomainId grantee, VirtAddr base, uint64_t size);

  // Page migration support: moves the aligned range to `dst` blade and installs an outlier
  // translation entry (§4.1, "Transparency via outlier entries").
  Status MigrateRange(VirtAddr base, uint32_t size_log2, MemoryBladeId dst, PhysAddr dst_pa);

  // Marks a memory blade draining: the allocator stops placing new vmas on it. Existing
  // translation rules stay until migration retargets them (drain/failover path).
  Status MemoryBladeDraining(MemoryBladeId blade) { return allocator_.SetOffline(blade); }

  // --- Queries ---

  [[nodiscard]] const VmaRecord* FindVma(VirtAddr va) const;

  // Iterates every live vma in base-address order (drain/failover enumerates what must
  // move off a blade).
  template <typename Fn>
  void ForEachVma(Fn&& fn) const {
    for (const auto& [base, vma] : vmas_) {
      fn(vma);
    }
  }
  [[nodiscard]] Result<ProtDomainId> PdidOf(ProcessId pid) const {
    return processes_.PdidOf(pid);
  }
  [[nodiscard]] ProcessManager& processes() { return processes_; }
  [[nodiscard]] const BalancedAllocator& allocator() const { return allocator_; }
  [[nodiscard]] size_t vma_count() const { return vmas_.size(); }

 private:
  AddressTranslator* translator_;   // Not owned (lives in the data plane).
  ProtectionTable* protection_;     // Not owned.
  BoundedSplitting* splitting_;     // Not owned; may be null (baselines).
  BalancedAllocator allocator_;
  ProcessManager processes_;
  std::map<VirtAddr, VmaRecord> vmas_;  // Keyed by vma base.
  VirtAddr next_partition_start_ = kPartitionStart;

  static constexpr VirtAddr kPartitionStart = 0x0000'7000'0000'0000ull;
};

}  // namespace mind

#endif  // MIND_SRC_CONTROLPLANE_CONTROLLER_H_
