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
      fault_plane_(config.fault) {
  blades_.resize(static_cast<size_t>(config_.num_compute_blades));
  blade_thread_counts_.resize(static_cast<size_t>(config_.num_compute_blades), 0);
  for (auto& b : blades_) {
    b.cache = std::make_unique<DramCache>(config_.compute_cache_bytes >> kPageShift,
                                          /*store_data=*/false);
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
  ++blade_thread_counts_[blade];  // Channels check this for submit-time latency finality.
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

SimTime GamSystem::PsoReadBarrier(ThreadId tid, uint64_t page, SimTime now) {
  // Same value as the read-only peek — channel Submit's latency simulation depends on
  // that identity — plus the pruning side effect.
  const SimTime barrier = PsoPeekBarrier(tid, page, now);
  if (auto it = pending_writes_.find(tid); it != pending_writes_.end()) {
    // Prune in place but never erase the map entry: channel groups cache pointers to the
    // threads' vectors (pso_pending_), which erasing the entry would leave dangling.
    // Each thread only ever mutates its own vector.
    std::erase_if(it->second,
                  [barrier](const PendingWrite& w) { return w.completion <= barrier; });
  }
  return barrier;
}

SimTime GamSystem::PsoPeekBarrier(ThreadId tid, uint64_t page, SimTime now) const {
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
  return barrier;
}

SimTime GamSystem::EnterLibrary(ThreadId tid, ComputeBladeId blade, uint64_t page,
                                AccessType type, SimTime now) {
  if (type == AccessType::kRead) {
    now = PsoReadBarrier(tid, page, now);
  }
  // Library fast path: permission check + lock on *every* access (GAM has no MMU help).
  // detlint: allow(parallel-serialized-call): this is the per-blade FifoResource library
  // lock (blade-confined under the group/drain phase discipline), not the fabric's
  // serialized QueueModel::Acquire — the regex frontend matches by name only.
  const auto grant = blades_[blade].lock.Acquire(now, config_.lock_service);
  return grant.finish + lat().gam_local_access;
}

// Ownership-aware drain over the GAM hit path (contract notes in gam.h; engine-side
// discipline in memory_system.h).
class GamSystem::OwnerDrain final : public OwnerDrainOps {
 public:
  explicit OwnerDrain(GamSystem* sys) : sys_(sys) {}

  MIND_PARALLEL_PHASE [[nodiscard]] bool Eligible(ThreadId /*tid*/, ComputeBladeId blade,
                                                  VirtAddr va, AccessType type,
                                                  SimTime /*now*/) const override {
    if (sys_->config_.prefetch.enabled()) {
      return false;  // Installs and late joins mutate per-blade tables mid-drain.
    }
    const DramCache::Frame* frame = sys_->blades_[blade].cache->Peek(PageNumber(va));
    return frame != nullptr && !frame->prefetched &&
           (type == AccessType::kRead || frame->writable);
  }
  MIND_SERIALIZED_PATH [[nodiscard]] SimTime MinEligibleCost() const override {
    return sys_->config_.lock_service + sys_->lat().gam_local_access;
  }

 private:
  GamSystem* sys_;
};

std::unique_ptr<OwnerDrainOps> GamSystem::OpenOwnerDrain(int /*num_shards*/) {
  return std::make_unique<OwnerDrain>(this);
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
    InstallReadyPrefetches(blade, now);
    frame = local.cache->Lookup(page);
    hit = is_hit();
    if (!hit) {
      if (auto it = local.prefetch.in_flight.find(page);
          it != local.prefetch.in_flight.end()) {
        const BladePrefetchState::InFlight entry = it->second;
        local.prefetch.in_flight.erase(it);
        local.prefetch.RecomputeNextReady();
        const bool stale =
            local.cache->region_inval_version(DramCache::RegionOf(page)) !=
            entry.inval_stamp;
        if (!stale && type == AccessType::kRead && frame == nullptr) {
          // Demand read joins the in-flight fetch: the library blocks until the data
          // lands (a late prefetch — shortened the stall without hiding it).
          entry.owner->OnLate();
          ++counters_.remote_accesses;
          const SimTime landed = std::max(t, entry.ready_at);
          auto evicted = local.cache->Insert(page, /*writable=*/false, nullptr);
          if (evicted.has_value()) {
            local.prefetch.OnPageEvicted(evicted->page);
            if (evicted->dirty) {
              (void)FlushToMemory(evicted->page, blade, landed);
              ++counters_.pages_flushed;
            }
          }
          const SimTime done = landed + lat().gam_local_access;
          res.latency = done - req_now;
          res.completion = done;
          res.breakdown.fault = lat().gam_local_access;
          res.breakdown.network = done - req_now > res.breakdown.fault
                                      ? done - req_now - res.breakdown.fault
                                      : 0;
          counters_.breakdown_sums += res.breakdown;
          if (trace_ != nullptr) [[unlikely]] {
            TraceEvent ev;
            ev.kind = TraceEventKind::kPrefetchUseful;
            ev.clock = now;
            ev.dur = done - now;
            ev.tid = tid;
            ev.blade = blade;
            ev.a = page;
            trace_->Emit(ev);
          }
          PrefetchAfterFault(tid, blade, page, done);
          return res;
        }
        // Stale copy, or a write that needs M anyway: drop the speculation and miss.
        if (stale) {
          entry.owner->OnDiscardedStale();
          if (trace_ != nullptr) [[unlikely]] {
            TraceEvent ev;
            ev.kind = TraceEventKind::kPrefetchDiscard;
            ev.clock = now;
            ev.tid = tid;
            ev.blade = blade;
            ev.a = page;
            ev.b = 1;  // Stale at join.
            trace_->Emit(ev);
          }
        } else {
          entry.owner->OnLate();
        }
      }
      if (frame != nullptr && frame->prefetched) {
        // Write upgrade on a prefetched read-only page: its first real use.
        frame->prefetched = false;
        local.prefetch.OnPrefetchedTouch(page);
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
      local.prefetch.OnPrefetchedTouch(page);
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
    auto evicted = local.cache->Insert(page, type == AccessType::kWrite, nullptr);
    if (evicted.has_value()) {
      if (config_.prefetch.enabled()) {
        local.prefetch.OnPageEvicted(evicted->page);  // Evicted-unused feedback.
      }
      if (evicted->dirty) {
        (void)FlushToMemory(evicted->page, blade, done);
        ++counters_.pages_flushed;
      }
    }
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
    PrefetchAfterFault(tid, blade, page, done);
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

MIND_SERIALIZED_PATH void GamSystem::AdvanceTo(SimTime now) {
  if (!config_.prefetch.enabled()) {
    return;
  }
  // Re-arm gap fix: pending re-armed windows issue here even when the blade never takes
  // another serialized access (see the same hook in Rack::AdvanceTo).
  for (int b = 0; b < config_.num_compute_blades; ++b) {
    InstallReadyPrefetches(static_cast<ComputeBladeId>(b), now);
  }
}

// ---------------------------------------------------------------------------
// Software prefetching in the GAM library (src/prefetch/prefetch.h): predictions issue
// behind the per-blade FIFO library lock and register as sharers at the home directory.
// ---------------------------------------------------------------------------

PrefetchEngine& GamSystem::EnsurePrefetchEngine(ThreadId tid) {
  return EnsureEngine(prefetch_engines_, tid, config_.prefetch);
}

void GamSystem::InstallReadyPrefetches(ComputeBladeId blade, SimTime now) {
  BladeState& local = blades_[blade];
  BladePrefetchState& bp = local.prefetch;
  for (const auto& [page, entry] : bp.TakeReady(now)) {
    if (local.cache->region_inval_version(DramCache::RegionOf(page)) !=
        entry.inval_stamp) {
      // An invalidation reached the blade before the data: the copy is stale.
      entry.owner->OnDiscardedStale();
      if (trace_ != nullptr) [[unlikely]] {
        TraceEvent ev;
        ev.kind = TraceEventKind::kPrefetchDiscard;
        ev.clock = now;
        ev.blade = blade;
        ev.a = page;
        ev.b = 0;  // Stale at install.
        trace_->Emit(ev);
      }
      continue;
    }
    entry.owner->OnInstalled();
    if (local.cache->Find(page) != nullptr) {
      continue;  // A demand fault re-fetched it meanwhile.
    }
    // Speculative install at the blade's adaptive cold LRU depth (prefetch-aware
    // eviction priority): a mispredicting burst evicts its own guesses first.
    auto evicted = local.cache->InsertPrefetched(page, /*writable=*/false, nullptr,
                                                 /*pdid=*/0, bp.cold_insert_depth());
    if (evicted.has_value()) {
      bp.OnPageEvicted(evicted->page);
      if (evicted->dirty) {
        (void)FlushToMemory(evicted->page, blade, entry.ready_at);
        ++counters_.pages_flushed;
      }
    }
    bp.unused[page] = entry.owner;
  }
  if (!bp.rearm_requests.empty()) {
    // Re-arm requests from hit paths and channel/group commits: issue the next window at
    // the blade's first serialized point (see the same hook in Rack).
    for (size_t i = 0; i < bp.rearm_requests.size(); ++i) {
      const BladePrefetchState::Rearm rearm = bp.rearm_requests[i];
      IssuePrefetches(*rearm.engine, blade, rearm.page, now);
    }
    bp.rearm_requests.clear();
  }
}

void GamSystem::PrefetchAfterFault(ThreadId tid, ComputeBladeId blade, uint64_t page,
                                   SimTime done) {
  PrefetchEngine& engine = EnsurePrefetchEngine(tid);
  engine.RecordFault(page);
  IssuePrefetches(engine, blade, page, done);
}

void GamSystem::IssuePrefetches(PrefetchEngine& engine, ComputeBladeId blade,
                                uint64_t page, SimTime done) {
  prefetch_scratch_.clear();
  engine.Predict(page, &prefetch_scratch_);
  // Occupancy feedback: skip (and shrink) the window when the trigger page's backing
  // blade port is already saturated with demand traffic.
  if (config_.prefetch.fabric_pressure_threshold < 1.0 &&
      fabric_.Utilization(Endpoint::Memory(BackingBlade(page))) >
          config_.prefetch.fabric_pressure_threshold) {
    engine.OnFabricPressure();
    return;
  }
  BladeState& local = blades_[blade];
  uint64_t last_issued = page;
  bool issued_any = false;
  uint64_t issued_count = 0;
  for (const uint64_t p : prefetch_scratch_) {
    if (!engine.HasInFlightRoom()) {
      break;  // Bounded in-flight queue.
    }
    const VirtAddr va = PageToAddr(p);
    if (va < first_va_ || va >= next_va_) {
      continue;  // Never speculate past the allocated address space.
    }
    if (local.cache->Find(p) != nullptr ||
        local.prefetch.in_flight.find(p) != local.prefetch.in_flight.end()) {
      continue;
    }
    // The library issues the speculative read behind the blade's FIFO lock: speculation
    // pays the same serialized entry every demand access does.
    const auto grant = local.lock.Acquire(done, config_.lock_service);
    SimTime t = grant.finish;
    const ComputeBladeId home = HomeOf(p);
    if (home != blade) {
      t = BladeToBlade(blade, home, MessageKind::kRdmaReadRequest, t);
    }
    BladeState& home_state = blades_[home];
    const auto handler_grant =
        home_state.handler.Acquire(t, lat().gam_software_handler);
    t = handler_grant.finish;
    DirEntry& dir = home_state.directory[p];
    if (dir.state == MsiState::kModified && dir.owner != blade) {
      continue;  // Fetching would force an owner flush: no invalidations for guesses.
    }
    if (dir.busy_until > t) {
      continue;  // Transition in flight: never wait speculatively.
    }
    // Register as a reader: the page installs Shared, so a later writer's invalidation
    // reaches this blade (and an in-flight fetch goes stale through the region stamp).
    if (dir.state == MsiState::kInvalid) {
      dir.state = MsiState::kShared;
    }
    if (dir.state == MsiState::kShared) {
      dir.sharers |= BladeBit(blade);
    }
    const SimTime ready = FetchFromMemory(p, blade, t);
    engine.OnIssued();
    local.prefetch.in_flight[p] = BladePrefetchState::InFlight{
        ready, local.cache->region_inval_version(DramCache::RegionOf(p)), &engine,
        /*pdid=*/0};
    local.prefetch.NoteIssued(ready);
    last_issued = p;
    issued_any = true;
    ++issued_count;
  }
  if (issued_any) {
    engine.NoteIssuedWindow(page, last_issued);
    if (trace_ != nullptr) [[unlikely]] {
      TraceEvent ev;
      ev.kind = TraceEventKind::kPrefetchIssue;
      ev.clock = done;
      ev.blade = blade;
      ev.a = page;
      ev.b = issued_count;
      trace_->Emit(ev);
    }
  }
}

PrefetchStats GamSystem::prefetch_stats() {
  for (auto& b : blades_) {
    b.prefetch.ResolveEvictedUnused([&](uint64_t page) {
      const DramCache::Frame* f = b.cache->Peek(page);
      return f != nullptr && f->prefetched;
    });
  }
  return MergeEngineStats(prefetch_engines_);
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
    think_ = think;
    // With one registered thread on the blade, nothing but this channel ever moves the
    // blade's library lock, so the simulated queue below is exact and latencies are final
    // at Submit. Under intra-blade contention latencies depend on how same-blade threads
    // interleave — which only the commit pass (per-blade group merge, or op-by-op
    // Commit) knows — so the contended branch classifies ONLY: hit checks and region
    // stamps, plus a queue-free latency lower bound for the end-clock horizon (the PSO
    // barrier and other threads' lock holds can only push real latencies later). Per-op
    // latencies stay unwritten; the commit pass writes the exact values.
    const bool sole_thread = sys_->blade_thread_counts_[blade_] == 1;
    SimTime busy = blade.lock.busy_until();
    bool uniform = true;
    SimTime first_latency = 0;
    SubmitResult out;
    out.latency_final = sole_thread;
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
      if (!sole_thread) {
        // Contended blade, classification only: queue-free latency lower bound, no PSO
        // peek, latency field left unwritten (see the loop header comment).
        const SimTime start = std::max(clock, busy);
        busy = start + service;
        clock = (busy + local_work) + think;
        continue;
      }
      SimTime arrival = clock;
      if (!is_write) {
        arrival = sys_->PsoPeekBarrier(tid_, page, arrival);
      }
      const SimTime start = std::max(arrival, busy);
      busy = start + service;
      const SimTime latency = (busy + local_work) - clock;
      if (i == 0) {
        first_latency = latency;
      } else {
        uniform &= latency == first_latency;
      }
      completions[i].latency = latency;
      clock += latency + think;
    }
    out.accepted = i;
    out.end_clock = clock;
    out.uniform_latency =
        sole_thread && uniform && i > 0 && first_latency != 0 ? first_latency : 0;
    return out;
  }

  MIND_PARALLEL_PHASE [[nodiscard]] bool RunValid() const override {
    return stamps_.Valid(*sys_->blades_[blade_].cache);
  }

  MIND_PARALLEL_PHASE void Commit(Completion* completions, size_t n, SimTime clock) override {
    BladeState& blade = sys_->blades_[blade_];
    for (size_t i = 0; i < n; ++i) {
      const uint64_t tagged = completions[i].token.bits;
      const auto* frame = reinterpret_cast<DramCache::Frame*>(tagged & ~uint64_t{1});
      const bool is_write = (tagged & 1) != 0;
      // Replays the serial hit path through the shared library-entry helper: real PSO
      // barrier (pruning), real FIFO lock acquisition, LRU touch, dirty bit.
      const SimTime lib_done = sys_->EnterLibrary(
          tid_, blade_, frame->page, is_write ? AccessType::kWrite : AccessType::kRead,
          clock);
      ApplyCommitToken(*blade.cache, completions[i],
                       [&](uint64_t page) { blade.prefetch.OnPrefetchedTouch(page); });
      completions[i].latency = lib_done - clock;
      clock += completions[i].latency + think_;
    }
  }

 private:
  friend class GamSystem::Group;

  GamSystem* sys_;
  ThreadId tid_;
  ComputeBladeId blade_;
  SimTime think_ = 0;               // Recorded at Submit; Commit replays per-op clocks.
  DramCache::RegionStamps stamps_;  // Dependency footprint of the last submitted run.
};

std::unique_ptr<AccessChannel> GamSystem::OpenChannel(ThreadId tid, ComputeBladeId blade) {
  if (blade >= config_.num_compute_blades) {
    return nullptr;
  }
  return std::make_unique<Channel>(this, tid, blade);
}

// Per-blade ChannelGroup over the GAM library (contract in access_channel.h, merge
// machinery in channel_group.h). This is the group layer's biggest winner: under
// intra-blade contention a per-thread Submit can only lower-bound hit latencies (the
// FIFO library lock's queueing delay depends on how same-blade threads interleave), so
// the per-thread path finalizes op by op through Commit — one virtual call and one
// FifoResource::Acquire per op. The group knows the whole interleaving: it replays the
// lock queue across the merged (clock, thread) stream in one pass — arrival (post
// PSO-read-barrier, with the same pruning EnterLibrary performs), start = max(arrival,
// busy), busy += service — writes the exact latency into each completion, and advances
// the blade's lock once per batch with the aggregate stats the per-op Acquires would
// have recorded.
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
                           [&](uint64_t page) { blade.prefetch.OnPrefetchedTouch(page); });
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
