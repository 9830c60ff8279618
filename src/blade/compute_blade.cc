#include "src/blade/compute_blade.h"

namespace mind {

ComputeBlade::InvalidationOutcome ComputeBlade::HandleInvalidation(VirtAddr base, VirtAddr end,
                                                                   SimTime arrival) {
  InvalidationOutcome out;
  auto range = cache_.InvalidateRange(PageNumber(base), PageNumber(end - 1) + 1);
  out.flushed = std::move(range.flushed);
  out.dropped_clean = range.dropped_clean;

  // Service time: kernel handler entry, one synchronous TLB shootdown if any PTE was
  // dropped, then per-dirty-page flush work (unmap + post one-sided RDMA write).
  const bool any_pte = !out.flushed.empty() || out.dropped_clean > 0;
  const SimTime tlb = any_pte ? latency_.tlb_shootdown : 0;
  const SimTime service = latency_.invalidation_handler_cpu + tlb +
                          static_cast<SimTime>(out.flushed.size()) * latency_.page_flush_cpu;

  const auto grant = handler_queue_.Acquire(arrival, service);
  out.start = grant.start;
  out.done = grant.finish;
  out.queue_wait = grant.wait;
  out.tlb_time = tlb;

  pages_flushed_ += out.flushed.size();
  if (any_pte) {
    ++tlb_shootdowns_;
  }
  return out;
}

}  // namespace mind
