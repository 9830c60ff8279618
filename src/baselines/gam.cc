#include "src/baselines/gam.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "src/core/channel_group.h"

namespace mind {

GamSystem::GamSystem(GamConfig config)
    : config_(config),
      fabric_(config.num_compute_blades, config.num_memory_blades, config.latency,
              config.fabric),
      fault_plane_(config.fault),
      prefetch_(config_.prefetch, this, /*writable_installs=*/false) {
  blades_.resize(static_cast<size_t>(config_.num_compute_blades));
  for (auto& b : blades_) {
    b.cache = std::make_unique<DramCache>(config_.compute_cache_bytes >> kPageShift,
                                          /*store_data=*/false);
    prefetch_.AddBlade(*b.cache);
  }
}

Result<VirtAddr> GamSystem::Alloc(uint64_t size) {
  const VirtAddr base = next_va_;
  next_va_ += AlignUp(size, kPageSize);
  return base;
}

Result<ThreadId> GamSystem::RegisterThread(ComputeBladeId blade) {
  if (blade >= config_.num_compute_blades) {
    return Status(ErrorCode::kInvalidArgument, "no such blade");
  }
  return next_tid_++;
}

SimTime GamSystem::BladeToBlade(ComputeBladeId from, ComputeBladeId to, MessageKind kind,
                                SimTime t) {
  // Plain L2 forwarding through the switch: one pipeline pass, no recirculation.
  return fabric_.Route(Endpoint::Compute(from), Endpoint::Compute(to), kind, t).arrival;
}

SimTime GamSystem::FetchFromMemory(uint64_t page, ComputeBladeId to, SimTime t) {
  // Full path: requester NIC -> switch -> memory blade -> switch -> requester.
  const auto rtt = fabric_.Rtt(Endpoint::Compute(to), Endpoint::Memory(BackingBlade(page)),
                               MessageKind::kRdmaReadRequest, MessageKind::kRdmaReadResponse,
                               t, lat().memory_blade_service);
  return rtt.complete;
}

SimTime GamSystem::FlushToMemory(uint64_t page, ComputeBladeId from, SimTime t) {
  auto hop = fabric_.Route(Endpoint::Compute(from), Endpoint::Memory(BackingBlade(page)),
                           MessageKind::kRdmaWriteRequest, t);
  return hop.arrival + lat().memory_blade_service;
}

void GamSystem::InsertPage(ComputeBladeId blade, uint64_t page, bool writable,
                           SimTime now) {
  auto evicted = blades_[blade].cache->Insert(page, writable, nullptr);
  if (evicted.has_value()) {
    prefetch_.OnDemandEviction(blade, evicted->page);
    if (evicted->dirty) {
      WriteBackVictim(blade, *evicted, now);
    }
  }
}

void GamSystem::WriteBackVictim(ComputeBladeId blade, const DramCache::Eviction& victim,
                                SimTime now) {
  (void)FlushToMemory(victim.page, blade, now);
  ++counters_.pages_flushed;
}

SimTime GamSystem::PsoReadBarrier(ThreadId tid, uint64_t page, SimTime now) {
  auto it = pending_writes_.find(tid);
  if (it == pending_writes_.end()) {
    return now;
  }
  SimTime barrier = now;
  for (const auto& w : it->second) {
    if (w.page == page) {
      barrier = std::max(barrier, w.completion);
    }
  }
  // Prune in place but never erase the map entry: channel groups cache pointers to the
  // threads' vectors (pso_pending_), which erasing the entry would leave dangling. Each
  // thread only ever mutates its own vector.
  std::erase_if(it->second,
                [barrier](const PendingWrite& w) { return w.completion <= barrier; });
  return barrier;
}

SimTime GamSystem::EnterLibrary(ThreadId tid, ComputeBladeId blade, uint64_t page,
                                AccessType type, SimTime now) {
  if (type == AccessType::kRead) {
    now = PsoReadBarrier(tid, page, now);
  }
  // Library fast path: permission check + lock on *every* access (GAM has no MMU help).
  const auto grant = blades_[blade].lock.Acquire(now, config_.lock_service);
  return grant.finish + lat().gam_local_access;
}

MIND_SERIALIZED_PATH AccessResult GamSystem::Access(ThreadId tid, ComputeBladeId blade, VirtAddr va,
                               AccessType type, SimTime now) {
  ++counters_.total_accesses;
  AccessResult res;
  const uint64_t page = PageNumber(va);
  BladeState& local = blades_[blade];

  const SimTime req_now = now;
  const SimTime lib_done = EnterLibrary(tid, blade, page, type, now);
  SimTime t = lib_done;

  DramCache::Frame* frame = local.cache->Lookup(page);
  auto is_hit = [&] {
    return frame != nullptr && (type == AccessType::kRead || frame->writable);
  };
  bool hit = is_hit();
  if (!hit && config_.prefetch.enabled()) {
    // Prefetch hooks live on the miss path only: install arrived pages, retry the hit,
    // then try joining an in-flight fetch before paying the full remote path.
    prefetch_.InstallReady(blade, now);
    frame = local.cache->Lookup(page);
    hit = is_hit();
    const PrefetchUnit::Fault fault{tid, blade, /*pdid=*/0, page};
    if (hit) {
      prefetch_.TraceUseful(fault, now, now);  // An arrived prefetch covers this fault.
    } else {
      // A demand read joins the in-flight fetch (a write needs M anyway): the library
      // blocks until the data lands (a late prefetch — shortened the stall without
      // hiding it).
      if (prefetch_.JoinInFlight(
              fault, now, type == AccessType::kRead && frame == nullptr,
              [&](SimTime ready_at) {
                ++counters_.remote_accesses;
                const SimTime landed = std::max(t, ready_at);
                InsertPage(blade, page, /*writable=*/false, landed);
                const SimTime done = landed + lat().gam_local_access;
                res.latency = done - req_now;
                res.completion = done;
                res.breakdown.fault = lat().gam_local_access;
                res.breakdown.network = done - req_now > res.breakdown.fault
                                            ? done - req_now - res.breakdown.fault
                                            : 0;
                counters_.breakdown_sums += res.breakdown;
                return done;
              })) {
        return res;
      }
      if (frame != nullptr && frame->prefetched) {
        // Write upgrade on a prefetched read-only page: its first real use.
        frame->prefetched = false;
        prefetch_.blade(blade).OnPrefetchedTouch(page);
      }
    }
  }
  if (hit) {
    ++counters_.local_hits;
    if (type == AccessType::kWrite) {
      frame->dirty = true;
    }
    if (frame->prefetched) [[unlikely]] {  // First touch: the prefetch was useful.
      frame->prefetched = false;
      prefetch_.blade(blade).OnPrefetchedTouch(page);
    }
    res.local_hit = true;
    res.latency = t - req_now;  // Includes any PSO read-barrier stall.
    res.completion = t;
    res.breakdown.fault = t - req_now;
    return res;
  }

  // Miss: consult the home node's software directory.
  ++counters_.remote_accesses;
  const ComputeBladeId home = HomeOf(page);
  if (fault_plane_.lossy()) [[unlikely]] {
    // The request/ownership message to the home rides the loss model; retransmission
    // delay lands on the miss. An exhausted retry budget triggers GAM's reset analog
    // (drop the home's directory entry, flush every cached copy) and fails the access —
    // the next access re-faults from a cold directory.
    const FaultPlane::SendOutcome outcome = fault_plane_.SendWithAck(0, t, blade);
    if (!outcome.delivered) {
      const SimTime failed_at = t + outcome.latency;
      (void)ResetPage(page, home, failed_at);
      res.status = Status(ErrorCode::kTimedOut, "home-node messages lost; page reset");
      res.latency = failed_at - req_now;
      res.completion = failed_at;
      return res;
    }
    t += outcome.latency;
  }
  if (home != blade) {
    t = BladeToBlade(blade, home, MessageKind::kRdmaReadRequest, t);
  }
  BladeState& home_state = blades_[home];
  const auto handler_grant = home_state.handler.Acquire(t, lat().gam_software_handler);
  t = handler_grant.finish;

  DirEntry& dir = home_state.directory[page];
  const bool conflicting =
      type == AccessType::kWrite || dir.state == MsiState::kModified;
  if (conflicting) {
    // Only conflicting transitions wait out an in-flight one; S->S reads proceed.
    t = std::max(t, dir.busy_until);
  }
  res.prev_state = dir.state;

  SimTime inv_done = t;
  const SimTime inv_start = t;
  const uint64_t inv_before = counters_.invalidations;
  // Downgrade/invalidate remote copies as MSI requires. GAM tracks pages exactly, so there
  // are never false invalidations; messages are sequential unicast (software sender).
  if (dir.state == MsiState::kModified && dir.owner != blade) {
    // Owner flushes the page, sequentially before the fetch.
    SimTime at_owner = BladeToBlade(home, dir.owner, MessageKind::kInvalidation, t);
    (void)blades_[dir.owner].cache->InvalidateRange(page, page + 1);
    at_owner += lat().invalidation_handler_cpu + lat().page_flush_cpu;
    const SimTime flushed = FlushToMemory(page, dir.owner, at_owner);
    ++counters_.invalidations;
    ++counters_.pages_flushed;
    inv_done = BladeToBlade(dir.owner, home, MessageKind::kInvalidationAck, at_owner);
    t = std::max(flushed, inv_done);
  } else if (type == AccessType::kWrite && dir.state == MsiState::kShared) {
    SharerMask others = dir.sharers & ~BladeBit(blade);
    SimTime send = t;
    while (others != 0) {
      const auto s = static_cast<ComputeBladeId>(LowestSetBit(others));
      others &= others - 1;
      const SimTime at_sharer = BladeToBlade(home, s, MessageKind::kInvalidation, send);
      send += lat().rdma_message_overhead;  // Sequential software sends.
      (void)blades_[s].cache->InvalidateRange(page, page + 1);
      ++counters_.invalidations;
      const SimTime ack = BladeToBlade(s, home, MessageKind::kInvalidationAck,
                                       at_sharer + lat().invalidation_handler_cpu);
      inv_done = std::max(inv_done, ack);
    }
    t = std::max(t, inv_done);
  }
  if (trace_ != nullptr && counters_.invalidations != inv_before) [[unlikely]] {
    // GAM invalidates exact pages (no false invalidations by construction), so the
    // wave span is the page itself and the flushed count rides the c payload.
    TraceEvent ev;
    ev.kind = TraceEventKind::kInvalidationWave;
    ev.clock = inv_start;
    ev.dur = inv_done > inv_start ? inv_done - inv_start : 0;
    ev.tid = tid;
    ev.blade = blade;
    ev.a = PageToAddr(page);
    ev.b = PageToAddr(page + 1);
    ev.c = TracePack32(counters_.invalidations - inv_before,
                       dir.state == MsiState::kModified ? 1 : 0);
    trace_->Emit(ev);
  }

  // Fetch the page from the backing memory blade to the requester.
  const bool need_data = frame == nullptr;
  SimTime data_at = t;
  if (need_data) {
    data_at = FetchFromMemory(page, blade, t);
  } else {
    data_at = BladeToBlade(home, blade, MessageKind::kRdmaWriteAck, t);
  }
  const SimTime done = std::max(data_at, inv_done) + lat().gam_local_access;

  // Commit directory.
  if (type == AccessType::kWrite) {
    dir.state = MsiState::kModified;
    dir.owner = blade;
    dir.sharers = BladeBit(blade);
  } else {
    dir.state = MsiState::kShared;
    dir.sharers |= BladeBit(blade);
    dir.owner = kInvalidComputeBlade;
  }
  if (conflicting) {
    dir.busy_until = done;
  }
  res.next_state = dir.state;

  // Install locally; evict write-backs as needed.
  if (need_data) {
    InsertPage(blade, page, type == AccessType::kWrite, done);
  } else if (type == AccessType::kWrite) {
    local.cache->MakeWritable(page);
  }
  if (type == AccessType::kWrite) {
    local.cache->MarkDirty(page);
  }

  res.completion = done;
  res.breakdown.fault = lat().gam_local_access;
  res.breakdown.network =
      done - req_now > res.breakdown.fault ? done - req_now - res.breakdown.fault : 0;
  counters_.breakdown_sums += res.breakdown;
  if (trace_ != nullptr) [[unlikely]] {
    TraceEvent ev;
    ev.kind = TraceEventKind::kAccessSpan;
    ev.clock = req_now;
    ev.dur = done - req_now;  // Full service span; PSO-visible latency may be shorter.
    ev.tid = tid;
    ev.blade = blade;
    ev.a = va;
    ev.b = res.breakdown.fault;
    ev.c = TracePack32(res.breakdown.network, res.breakdown.fabric_wait);
    trace_->Emit(ev);
  }

  // PSO: writes return to the thread as soon as the library hands off the request.
  if (type == AccessType::kWrite) {
    res.latency = lib_done - req_now;
    pending_writes_[tid].push_back(PendingWrite{page, done});
  } else {
    res.latency = done - req_now;
  }
  if (config_.prefetch.enabled()) {
    prefetch_.AfterFault({tid, blade, /*pdid=*/0, page}, done);
  }
  return res;
}

SimTime GamSystem::ResetPage(uint64_t page, ComputeBladeId home, SimTime t) {
  blades_[home].directory.erase(page);
  uint64_t flushed = 0;
  SimTime done = t;
  for (int b = 0; b < config_.num_compute_blades; ++b) {
    auto inv = blades_[b].cache->InvalidateRange(page, page + 1);
    for (auto& ev : inv.flushed) {
      done = std::max(done, FlushToMemory(ev.page, static_cast<ComputeBladeId>(b), t));
      ++counters_.pages_flushed;
      ++flushed;
    }
  }
  fault_plane_.OnResetFlushed(flushed);
  if (trace_ != nullptr) [[unlikely]] {
    TraceEvent ev;
    ev.kind = TraceEventKind::kFaultReset;
    ev.clock = t;
    ev.dur = done > t ? done - t : 0;
    ev.blade = home;
    ev.a = PageToAddr(page);
    ev.b = flushed;
    trace_->Emit(ev);
  }
  return done;
}

// GAM's admission for the shared prefetch pipeline (see GamConfig::prefetch).
std::optional<SimTime> GamSystem::AdmitPrefetch(ComputeBladeId blade, ProtDomainId /*pdid*/,
                                                uint64_t page, SimTime start) {
  const VirtAddr va = PageToAddr(page);
  if (va < first_va_ || va >= next_va_) {
    return std::nullopt;  // Never speculate past the allocated address space.
  }
  const auto grant = blades_[blade].lock.Acquire(start, config_.lock_service);
  SimTime t = grant.finish;
  const ComputeBladeId home = HomeOf(page);
  if (home != blade) {
    t = BladeToBlade(blade, home, MessageKind::kRdmaReadRequest, t);
  }
  BladeState& home_state = blades_[home];
  t = home_state.handler.Acquire(t, lat().gam_software_handler).finish;
  DirEntry& dir = home_state.directory[page];
  if (dir.state == MsiState::kModified && dir.owner != blade) {
    return std::nullopt;  // Fetching would force an owner flush: no invalidations.
  }
  if (dir.busy_until > t) {
    return std::nullopt;  // Transition in flight: never wait speculatively.
  }
  // Register as a reader: the page installs Shared, so a later writer's invalidation
  // reaches this blade (and an in-flight fetch goes stale through the region stamp).
  if (dir.state == MsiState::kInvalid) {
    dir.state = MsiState::kShared;
  }
  if (dir.state == MsiState::kShared) {
    dir.sharers |= BladeBit(blade);
  }
  return FetchFromMemory(page, blade, t);
}

// ---------------------------------------------------------------------------
// AccessChannel over the GAM library hit path (see the contract notes in gam.h).
// ---------------------------------------------------------------------------

class GamSystem::Channel final : public AccessChannel {
 public:
  Channel(GamSystem* sys, ThreadId tid, ComputeBladeId blade)
      : sys_(sys), tid_(tid), blade_(blade) {}

  MIND_PARALLEL_PHASE SubmitResult Submit(const LocalOp* ops, size_t n, SimTime clock,
                                          SimTime think,
                      Completion* completions) override {
    BladeState& blade = sys_->blades_[blade_];
    DramCache& cache = *blade.cache;
    const SimTime service = sys_->config_.lock_service;
    const SimTime local_work = sys_->lat().gam_local_access;
    stamps_.Clear();
    // Hit latency includes the library lock's FIFO queueing, which depends on how
    // same-blade threads interleave — known only to the group commit, which replays the
    // lock queue over the merged stream and writes the exact latencies. Submit therefore
    // classifies ONLY: hit checks and region stamps, plus a lower bound on the end clock
    // for the epoch-barrier horizon (the PSO barrier and other threads' lock holds can
    // only push real latencies later). Per-op latencies stay unwritten.
    SimTime busy = blade.lock.busy_until();
    SubmitResult out;
    size_t i = 0;
    for (; i < n; ++i) {
      const uint64_t page = PageNumber(ops[i].va);
      DramCache::Frame* frame = cache.Find(page);
      if (frame == nullptr) {
        break;
      }
      const bool is_write = ops[i].type == AccessType::kWrite;
      if (is_write && !frame->writable) {
        break;
      }
      stamps_.Add(cache, DramCache::RegionOf(page));
      completions[i].token.bits =
          reinterpret_cast<uintptr_t>(frame) | static_cast<uintptr_t>(is_write);
      const SimTime start = std::max(clock, busy);
      busy = start + service;
      clock = (busy + local_work) + think;
    }
    out.accepted = i;
    out.end_clock = clock;
    return out;  // uniform_latency stays 0: the group commit writes per-op latencies.
  }

 private:
  friend class GamSystem::Group;

  GamSystem* sys_;
  ThreadId tid_;
  ComputeBladeId blade_;
  DramCache::RegionStamps stamps_;  // Dependency footprint of the last submitted run.
};

std::unique_ptr<AccessChannel> GamSystem::OpenChannel(ThreadId tid, ComputeBladeId blade) {
  if (blade >= config_.num_compute_blades) {
    return nullptr;
  }
  return std::make_unique<Channel>(this, tid, blade);
}

// Per-blade ChannelGroup over the GAM library (contract in access_channel.h, merge
// machinery in channel_group.h). A per-thread Submit can only lower-bound hit latencies
// (the FIFO library lock's queueing delay depends on how same-blade threads interleave);
// the group knows the whole interleaving. It replays the lock queue across the merged
// (clock, thread) stream in one pass — arrival (post PSO-read-barrier, with the same
// pruning EnterLibrary performs), start = max(arrival, busy), busy += service — writes the
// exact latency into each completion, and advances the blade's lock once per batch with
// the aggregate stats the per-op Acquires would have recorded. Exact for any member
// count, a sole thread included.
class GamSystem::Group final : public ChannelGroup {
 public:
  Group(GamSystem* sys, ComputeBladeId blade) : sys_(sys), blade_(blade) {}

  size_t Add(AccessChannel* channel) override {
    members_.push_back(static_cast<Channel*>(channel));
    return members_.size() - 1;
  }

  MIND_PARALLEL_PHASE [[nodiscard]] uint64_t ValidMask() const override {
    const DramCache& cache = *sys_->blades_[blade_].cache;
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
    BladeState& blade = sys_->blades_[blade_];
    BladePrefetchState& bp = sys_->prefetch_.blade(blade_);
    const SimTime service = sys_->config_.lock_service;
    const SimTime local_work = sys_->lat().gam_local_access;
    SimTime busy = blade.lock.busy_until();
    uint64_t jobs = 0;
    SimTime total_wait = 0;
    // Per-member pending-write lists, resolved once per batch instead of once per read
    // op: hits never add pending writes (only write misses do, and those run on the
    // drain), so after warmup most members have none and the per-op PSO barrier check
    // collapses to an empty test. Pruning inside PsoReadBarrier mutates the vector in
    // place, never the map, so the pointers stay stable across the batch.
    pso_pending_.assign(members_.size(), nullptr);
    for (size_t m = 0; m < members_.size(); ++m) {
      if (auto it = sys_->pending_writes_.find(members_[m]->tid_);
          it != sys_->pending_writes_.end()) {
        pso_pending_[m] = &it->second;
      }
    }
    const uint64_t total = GroupMergeCommit(
        lanes, n, horizon, think, hist,
        [&](GroupLane& ln, size_t idx) {
          Completion& c = ln.comps[idx];
          auto* frame = reinterpret_cast<DramCache::Frame*>(c.token.bits & ~uint64_t{1});
          const SimTime clock = ln.end_clock;  // The op's start clock (merge cursor).
          SimTime arrival = clock;
          if ((c.token.bits & 1) == 0 && pso_pending_[ln.member] != nullptr &&
              !pso_pending_[ln.member]->empty()) {
            // Real PSO read barrier (with pruning), exactly as EnterLibrary would.
            arrival = sys_->PsoReadBarrier(members_[ln.member]->tid_, frame->page, clock);
          }
          const SimTime start = std::max(arrival, busy);
          total_wait += start - arrival;
          busy = start + service;
          ++jobs;
          // Exact at group commit: the merged interleaving fully determines the queue.
          c.latency = (busy + local_work) - clock;
          return c.latency;
        },
        [&](GroupLane& ln, size_t idx) {
          ApplyCommitToken(*blade.cache, ln.comps[idx],
                           [&](uint64_t page) { bp.OnPrefetchedTouch(page); });
        });
    blade.lock.AcquireBatch(jobs, static_cast<SimTime>(jobs) * service, total_wait, busy);
    return total;
  }

 private:
  GamSystem* sys_;
  ComputeBladeId blade_;
  std::vector<Channel*> members_;
  // Batch-scoped scratch: member slot -> the thread's PSO pending-write list (or null).
  std::vector<std::vector<PendingWrite>*> pso_pending_;
};

std::unique_ptr<ChannelGroup> GamSystem::OpenChannelGroup(ComputeBladeId blade) {
  if (blade >= config_.num_compute_blades) {
    return nullptr;
  }
  return std::make_unique<Group>(this, blade);
}

}  // namespace mind
