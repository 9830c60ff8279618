#include "src/controlplane/controller.h"

#include <algorithm>

namespace mind {

Status Controller::MemoryBladeOnline(MemoryBladeId blade, uint64_t capacity_bytes) {
  const VirtAddr start = next_partition_start_;
  if (Status s = allocator_.AddBlade(blade, start, capacity_bytes); !s.ok()) {
    return s;
  }
  if (Status s = translator_->AddBladeRange(blade, start, capacity_bytes); !s.ok()) {
    return s;
  }
  next_partition_start_ += capacity_bytes;
  return Status::Ok();
}

Result<VirtAddr> Controller::Mmap(ProcessId pid, uint64_t size, PermClass perm) {
  auto pdid = processes_.PdidOf(pid);
  if (!pdid.ok()) {
    return pdid.status();
  }
  auto alloc = allocator_.Allocate(size);
  if (!alloc.ok()) {
    return alloc.status();  // ENOMEM back to the blade.
  }
  if (Status s = protection_->Grant(*pdid, alloc->base, alloc->size, perm); !s.ok()) {
    (void)allocator_.Free(*alloc);
    return s;
  }
  VmaRecord rec;
  rec.alloc = *alloc;
  rec.pid = pid;
  rec.pdid = *pdid;
  rec.perm = perm;
  const VirtAddr base = rec.base();
  vmas_.emplace(base, std::move(rec));
  if (splitting_ != nullptr) {
    splitting_->OnAllocationChanged(allocator_.total_allocated());
  }
  return base;
}

Status Controller::Munmap(ProcessId pid, VirtAddr base) {
  auto it = vmas_.find(base);
  if (it == vmas_.end()) {
    return Status(ErrorCode::kFault, "no vma at address");
  }
  if (it->second.pid != pid) {
    return Status(ErrorCode::kPermissionDenied, "vma belongs to another process");
  }
  (void)protection_->Revoke(it->second.pdid, it->second.base(), it->second.size());
  if (Status s = allocator_.Free(it->second.alloc); !s.ok()) {
    return s;
  }
  vmas_.erase(it);
  if (splitting_ != nullptr) {
    splitting_->OnAllocationChanged(allocator_.total_allocated());
  }
  return Status::Ok();
}

Status Controller::Mprotect(ProcessId pid, VirtAddr base, uint64_t size, PermClass perm) {
  const VmaRecord* vma = FindVma(base);
  if (vma == nullptr || vma->pid != pid) {
    return Status(ErrorCode::kFault, "range not mapped by this process");
  }
  if (base + size > vma->end()) {
    return Status(ErrorCode::kInvalidArgument, "range exceeds vma");
  }
  return protection_->Grant(vma->pdid, base, size, perm);
}

Status Controller::GrantToDomain(ProcessId owner, ProtDomainId grantee, VirtAddr base,
                                 uint64_t size, PermClass perm) {
  const VmaRecord* vma = FindVma(base);
  if (vma == nullptr || vma->pid != owner) {
    return Status(ErrorCode::kPermissionDenied, "granting process does not own the range");
  }
  if (base + size > vma->end()) {
    return Status(ErrorCode::kInvalidArgument, "range exceeds vma");
  }
  return protection_->Grant(grantee, base, size, perm);
}

Status Controller::RevokeFromDomain(ProtDomainId grantee, VirtAddr base, uint64_t size) {
  return protection_->Revoke(grantee, base, size);
}

Status Controller::MigrateRange(VirtAddr base, uint32_t size_log2, MemoryBladeId dst,
                                PhysAddr dst_pa) {
  return translator_->AddOutlier(base, size_log2, dst, dst_pa);
}

Status Controller::Exit(ProcessId pid) {
  // Tear down all vmas owned by the process, then the task itself.
  for (auto it = vmas_.begin(); it != vmas_.end();) {
    if (it->second.pid == pid) {
      (void)protection_->Revoke(it->second.pdid, it->second.base(), it->second.size());
      (void)allocator_.Free(it->second.alloc);
      it = vmas_.erase(it);
    } else {
      ++it;
    }
  }
  if (splitting_ != nullptr) {
    splitting_->OnAllocationChanged(allocator_.total_allocated());
  }
  return processes_.Exit(pid);
}

const VmaRecord* Controller::FindVma(VirtAddr va) const {
  auto it = vmas_.upper_bound(va);
  if (it == vmas_.begin()) {
    return nullptr;
  }
  --it;
  if (va >= it->second.end()) {
    return nullptr;
  }
  return &it->second;
}

}  // namespace mind
