#include "src/baselines/fastswap.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "src/core/channel_group.h"

namespace mind {

FastSwapSystem::FastSwapSystem(FastSwapConfig config)
    : config_(config),
      fabric_(1, config.num_memory_blades, config.latency, config.fabric),
      fault_plane_(config.fault),
      prefetch_(config_.prefetch, this, /*writable_installs=*/true) {
  cache_ = std::make_unique<DramCache>(config_.compute_cache_bytes >> kPageShift,
                                       /*store_data=*/false);
  prefetch_.AddBlade(*cache_);
}

Result<VirtAddr> FastSwapSystem::Alloc(uint64_t size) {
  const VirtAddr base = next_va_;
  next_va_ += AlignUp(size, kPageSize);
  return base;
}

Result<ThreadId> FastSwapSystem::RegisterThread(ComputeBladeId blade) {
  if (blade != 0) {
    // The defining limitation: no transparent scaling beyond one compute blade (§2.2).
    return Status(ErrorCode::kInvalidArgument,
                  "FastSwap confines a process to a single compute blade");
  }
  return next_tid_++;
}

MIND_SERIALIZED_PATH AccessResult FastSwapSystem::Access(ThreadId tid, ComputeBladeId blade,
                                                          VirtAddr va,
                                    AccessType type, SimTime now) {
  (void)blade;
  ++counters_.total_accesses;
  AccessResult res;
  const uint64_t page = PageNumber(va);

  auto hit = [&](DramCache::Frame* frame) {
    // Swap systems install pages read-write; any hit is a plain DRAM access.
    ++counters_.local_hits;
    if (type == AccessType::kWrite) {
      frame->dirty = true;
    }
    if (frame->prefetched) [[unlikely]] {  // First touch: the prefetch was useful.
      frame->prefetched = false;
      prefetch_.blade(0).OnPrefetchedTouch(page);
    }
    res.local_hit = true;
    res.latency = lat().local_cache_hit;
    res.completion = now + res.latency;
    return res;
  };
  if (DramCache::Frame* frame = cache_->Lookup(page); frame != nullptr) {
    return hit(frame);
  }

  // Prefetch hooks live on the fault path only (the stream a swap prefetcher observes):
  // install arrived pages, join an in-flight fetch, or fall through to the real fault.
  if (config_.prefetch.enabled()) {
    prefetch_.InstallReady(0, now);
    if (DramCache::Frame* frame = cache_->Lookup(page); frame != nullptr) {
      return hit(frame);  // An arrived prefetch covers this fault.
    }
    // The fault joins the in-flight swap-in, reads and writes alike (installs are
    // read-write): the thread still takes the page-fault trap, then blocks until the
    // data lands (a late prefetch — shortened the stall without hiding it).
    if (prefetch_.JoinInFlight(
            PrefetchUnit::Fault{tid, 0, /*pdid=*/0, page}, now, /*joinable=*/true,
            [&](SimTime ready_at) {
              ++counters_.remote_accesses;
              const SimTime landed = std::max(now + lat().page_fault_entry, ready_at);
              InstallPage(page, landed);
              if (type == AccessType::kWrite) {
                cache_->MarkDirty(page);
              }
              const SimTime done = landed + lat().pte_install;
              res.latency = done - now;
              res.completion = done;
              res.breakdown.fault = lat().page_fault_entry + lat().pte_install;
              res.breakdown.network = res.latency - res.breakdown.fault;
              counters_.breakdown_sums += res.breakdown;
              return done;
            })) {
      return res;
    }
  }

  // Page fault: frontswap fetch from the backing memory blade through the ToR switch
  // (plain forwarding — no in-network memory logic).
  ++counters_.remote_accesses;
  SimTime t = now + lat().page_fault_entry;
  if (fault_plane_.lossy()) [[unlikely]] {
    // Lost RDMA reads are retried by the kernel; even an exhausted budget only delays the
    // fetch by the summed timeouts (no reset — there is no directory to wedge).
    t += fault_plane_.SendWithAck(0, t, 0).latency;
  }
  const MemoryBladeId m = BackingBlade(page);
  const auto rtt =
      fabric_.Rtt(Endpoint::Compute(0), Endpoint::Memory(m), MessageKind::kRdmaReadRequest,
                  MessageKind::kRdmaReadResponse, t, lat().memory_blade_service);
  t = rtt.complete + lat().pte_install;

  InstallPage(page, t);
  if (type == AccessType::kWrite) {
    cache_->MarkDirty(page);
  }

  res.latency = t - now;
  res.completion = t;
  res.breakdown.fault = lat().page_fault_entry + lat().pte_install;
  res.breakdown.fabric_wait =
      rtt.request.total_wait() + rtt.response.total_wait();
  res.breakdown.network =
      res.latency > res.breakdown.fault + res.breakdown.fabric_wait
          ? res.latency - res.breakdown.fault - res.breakdown.fabric_wait
          : 0;
  counters_.breakdown_sums += res.breakdown;
  if (trace_ != nullptr) [[unlikely]] {
    TraceEvent ev;
    ev.kind = TraceEventKind::kAccessSpan;
    ev.clock = now;
    ev.dur = t - now;
    ev.tid = tid;
    ev.a = va;
    ev.b = res.breakdown.fault;
    ev.c = TracePack32(res.breakdown.network, res.breakdown.fabric_wait);
    trace_->Emit(ev);
  }
  if (config_.prefetch.enabled()) {
    prefetch_.AfterFault({tid, 0, /*pdid=*/0, page}, t);
  }
  return res;
}

void FastSwapSystem::InstallPage(uint64_t page, SimTime now) {
  auto evicted = cache_->Insert(page, /*writable=*/true, nullptr);
  if (evicted.has_value()) {
    prefetch_.OnDemandEviction(0, evicted->page);
    if (evicted->dirty) {
      WriteBackVictim(0, *evicted, now);
    }
  }
}

void FastSwapSystem::WriteBackVictim(ComputeBladeId /*blade*/,
                                     const DramCache::Eviction& victim, SimTime now) {
  ++counters_.pages_flushed;
  (void)fabric_.Route(Endpoint::Compute(0), Endpoint::Memory(BackingBlade(victim.page)),
                      MessageKind::kRdmaWriteRequest, now);
}

// Frontswap read-ahead for the shared prefetch pipeline (see FastSwapConfig::prefetch).
std::optional<SimTime> FastSwapSystem::AdmitPrefetch(ComputeBladeId /*blade*/,
                                                     ProtDomainId /*pdid*/, uint64_t page,
                                                     SimTime start) {
  const VirtAddr va = PageToAddr(page);
  if (va < first_va_ || va >= next_va_) {
    return std::nullopt;  // Never swap in past the allocated address space.
  }
  const auto rtt =
      fabric_.Rtt(Endpoint::Compute(0), Endpoint::Memory(BackingBlade(page)),
                  MessageKind::kRdmaReadRequest, MessageKind::kRdmaReadResponse, start,
                  lat().memory_blade_service);
  return rtt.complete + lat().pte_install;
}

// ---------------------------------------------------------------------------
// AccessChannel over the swap-cache hit path (see the contract notes in fastswap.h).
// ---------------------------------------------------------------------------

class FastSwapSystem::Channel final : public AccessChannel {
 public:
  explicit Channel(FastSwapSystem* sys) : sys_(sys) {}

  MIND_PARALLEL_PHASE SubmitResult Submit(const LocalOp* ops, size_t n, SimTime clock,
                                          SimTime think,
                      Completion* completions) override {
    DramCache& cache = *sys_->cache_;
    const SimTime hit_latency = sys_->lat().local_cache_hit;
    stamps_.Clear();
    SubmitResult out;
    size_t i = 0;
    for (; i < n; ++i) {
      DramCache::Frame* frame = cache.Find(PageNumber(ops[i].va));
      if (frame == nullptr) {
        break;
      }
      // Swap systems install pages read-write; any hit is a plain DRAM access.
      stamps_.Add(cache, DramCache::RegionOf(PageNumber(ops[i].va)));
      completions[i].latency = hit_latency;
      completions[i].token.bits =
          reinterpret_cast<uintptr_t>(frame) |
          static_cast<uintptr_t>(ops[i].type == AccessType::kWrite);
      clock += hit_latency + think;
    }
    out.accepted = i;
    out.end_clock = clock;
    // uniform_latency == 0 is reserved for "consult per-op latencies", so a zero-cost hit
    // configuration reports per-op (all-zero) latencies instead.
    out.uniform_latency = hit_latency;
    return out;
  }

 private:
  friend class FastSwapSystem::Group;

  FastSwapSystem* sys_;
  DramCache::RegionStamps stamps_;  // Dependency footprint of the last submitted run.
};

std::unique_ptr<AccessChannel> FastSwapSystem::OpenChannel(ThreadId /*tid*/,
                                                           ComputeBladeId blade) {
  return blade == 0 ? std::make_unique<Channel>(this) : nullptr;
}

// ChannelGroup over the single swap cache (contract in access_channel.h, merge machinery
// in channel_group.h): the trivial uniform path. Every member's hit latency is the fixed
// local_cache_hit, so the merged batch is pure LRU/dirty interleaving in (clock, thread)
// order with one RecordN per lane; one stamp pass validates every member's run.
class FastSwapSystem::Group final : public ChannelGroup {
 public:
  explicit Group(FastSwapSystem* sys) : sys_(sys) {}

  size_t Add(AccessChannel* channel) override {
    members_.push_back(static_cast<Channel*>(channel));
    return members_.size() - 1;
  }

  MIND_PARALLEL_PHASE [[nodiscard]] uint64_t ValidMask() const override {
    const DramCache& cache = *sys_->cache_;
    uint64_t mask = 0;
    for (size_t m = 0; m < members_.size(); ++m) {
      if (members_[m]->stamps_.Valid(cache)) {
        mask |= uint64_t{1} << m;
      }
    }
    return mask;
  }

  MIND_PARALLEL_PHASE uint64_t CommitMerged(GroupLane* lanes, size_t n, SimTime horizon,
                                            SimTime think, Histogram& hist) override {
    DramCache& cache = *sys_->cache_;
    BladePrefetchState& bp = sys_->prefetch_.blade(0);
    return GroupMergeCommit(
        lanes, n, horizon, think, hist,
        [](GroupLane& ln, size_t idx) {
          return ln.uniform_latency != 0 ? ln.uniform_latency : ln.comps[idx].latency;
        },
        [&](GroupLane& ln, size_t idx) {
          ApplyCommitToken(cache, ln.comps[idx],
                           [&](uint64_t page) { bp.OnPrefetchedTouch(page); });
        });
  }

 private:
  FastSwapSystem* sys_;
  std::vector<Channel*> members_;
};

std::unique_ptr<ChannelGroup> FastSwapSystem::OpenChannelGroup(ComputeBladeId blade) {
  return blade == 0 ? std::make_unique<Group>(this) : nullptr;
}

}  // namespace mind
